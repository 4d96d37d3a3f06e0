"""Exit 0 when the failures recorded in a pytest junit XML file are exactly the known red.

    python3 -m pytest -q --junitxml=tier1.xml || true
    python3 tools/known_red.py tier1.xml

The known red is acceptance criterion 6 (see the README).  Any other
failure or error exits 1, and so does the known red passing, since the
README must then change.  The skipped tests are printed too, each with
its reason, so a log shows when more of them skip; they never change the
exit code.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN = {"tests/test_acceptance.py::test_criterion_6_inverter_distortion_ordering"}


def _test_id(case) -> str:
    return f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}"


def main(path: str) -> int:
    cases = list(ET.parse(path).iter("testcase"))
    failed = {
        _test_id(case) for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    skipped = sorted((_test_id(case), case.find("skipped").get("message")) for case in cases
                     if case.find("skipped") is not None)
    print(f"skipped: {len(skipped) or 'none'}")
    for test, reason in skipped:
        print(f"  {test}: {reason}")
    print("failed or errored:", sorted(failed) or "none")
    return 0 if failed == KNOWN else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
