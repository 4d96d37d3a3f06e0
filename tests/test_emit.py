"""The json emitter: rows through the C encoder give the indent=2 bytes.

cli._emit writes a list of flat rows in one C-encoder pass and rebuilds
the indented layout; every case here compares it byte for byte with
json.dumps(_json_safe(rows), indent=2) + "\\n", the layout it replaces.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbtkit import cli


def reference(rows) -> str:
    return json.dumps(cli._json_safe(rows), indent=2) + "\n"


def emitted(rows, capsys) -> str:
    args = cli.build_parser().parse_args(["discretize", "--format", "json"])
    assert cli._emit(args, rows, list(rows[0]) if rows else []) == 0
    return capsys.readouterr().out


COMMANDS = [
    ("discretize",),
    ("discretize", "--diffeq", "--method", "sbt", "--alpha", "0.7", "--beta", "1.02"),
    ("discretize", "--method", "sbt"),
    ("bode",),
    ("bode", "--method", "sbt", "--grid", "900:1000:31"),
    ("bode", "--kr", "1e308", "--grid", "940:960:3"),
    ("bode", "--grid", "1:1e308:5:log"),
    ("error", "--method", "tustin", "--grid", "900:1000:21"),
    ("pole-map",),
    ("pole-map", "--methods", "exact,sbt", "--alpha", "0.8"),
    ("simulate", "board", "--methods", "tustin,sbt"),
    ("simulate", "inverter", "--methods", "pi,sbt", "--duration", "0.4"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_rows_match_indent_2(argv, capsys, monkeypatch):
    seen = []
    rows_json = cli._rows_json

    def record(rows):
        seen.append(rows)
        return rows_json(rows)

    monkeypatch.setattr(cli, "_rows_json", record)
    assert cli.main(list(argv) + ["--format", "json"]) == 0
    (rows,) = seen
    assert capsys.readouterr().out == reference(rows)


@pytest.mark.parametrize("rows", [
    [],
    [{"method": "sbt", "b0": 1.0}],
    [{"f_hz": 950.0, "mag_db": math.nan, "phase_deg": math.inf},
     {"f_hz": 951.0, "mag_db": -math.inf, "phase_deg": 0.0}],
    [{"method": "a},\n    {b", "x": None, "ok": True, "n": 3}],
], ids=["empty", "one row", "non-finite", "boundary in a string"])
def test_edge_rows_match_indent_2(rows, capsys):
    assert emitted(rows, capsys) == reference(rows)


_SCALARS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(alphabet=st.sampled_from('{},"\n\\:[] aZéωΩ\U0001f600\t'), max_size=12)
)
_ROWS = st.lists(st.dictionaries(st.text(max_size=6), _SCALARS, min_size=1, max_size=5), max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ROWS)
@example([{"}": "},\n    {", "{": ",\n    "}, {"": -0.0}])
def test_flat_rows_match_indent_2(rows):
    assert cli._rows_json(rows) + "\n" == reference(rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_ROWS)
def test_pure_python_encoder_gives_the_same_bytes(rows):
    expected = reference(rows)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(json.encoder, "c_make_encoder", None)
        assert cli._rows_json(rows) + "\n" == expected
