"""Exit 0 when the failures recorded in a pytest junit XML file are exactly the known red.

    python3 -m pytest -q --junitxml=tier1.xml || true
    python3 tools/known_red.py tier1.xml

The known red is acceptance criterion 6 (see the README).  Any other
failure or error exits 1, and so does the known red passing, since the
README must then change.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN = {"tests/test_acceptance.py::test_criterion_6_inverter_distortion_ordering"}


def main(path: str) -> int:
    failed = {
        f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}"
        for case in ET.parse(path).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }
    print("failed or errored:", sorted(failed) or "none")
    return 0 if failed == KNOWN else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
