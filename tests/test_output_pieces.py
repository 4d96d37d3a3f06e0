"""Output without whole-text copies: chunked json rows and written pieces.

cli._rows_json encodes JSON_CHUNK_ROWS rows per C-encoder pass and joins
the chunks once; every case compares it byte for byte with
json.dumps(_json_safe(rows), indent=2).  sim.write_atomic stages
(path, pieces) pairs, and cli._emit writes its text and final newline as
two pieces.
"""

import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbtkit import cli, sim

N = cli.JSON_CHUNK_ROWS


def reference(rows) -> str:
    return json.dumps(cli._json_safe(rows), indent=2)


def rows_of(count: int) -> list:
    """count finite rows, except that the first row of the second chunk
    holds a nan, an inf, a None and a string that reads like a row boundary."""
    rows = [{"f_hz": 10.0 + 0.1 * i, "mag_db": -1.25 * i, "label": f"r{i}"} for i in range(count)]
    if count > N:
        rows[N].update(mag_db=math.nan, phase_deg=math.inf, label=None, note="},\n    {")
    return rows


@pytest.mark.parametrize("count", [1, N - 1, N, N + 1, 2 * N + 1])
@pytest.mark.parametrize("encoder", ["c", "python"])
def test_rows_json_across_chunk_boundaries(count, encoder, monkeypatch):
    rows = rows_of(count)
    expected = reference(rows)
    assert expected.count("null") == (3 if count > N else 0)
    if encoder == "python":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert cli._rows_json(rows) == expected


_SCALARS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.none()
    | st.text(alphabet=st.sampled_from('{},"\n\\: aé\U0001f600'), max_size=10)
)
_ROWS = st.lists(st.dictionaries(st.text(max_size=4), _SCALARS, min_size=1, max_size=3),
                 min_size=1, max_size=9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ROWS, st.integers(1, 4))
def test_rows_json_at_small_chunk_sizes(rows, chunk):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "JSON_CHUNK_ROWS", chunk)
        assert cli._rows_json(rows) == reference(rows)


# long pieces of one-, two-, three- and four-byte characters, and an empty one
PIECES = ("x" * 70000 + "é\U0001f600" + "ω" * 70000 + "\n", "", "Ω" * 140003, "\n")


def test_write_atomic_writes_the_utf8_of_the_joined_pieces(tmp_path):
    path = tmp_path / "out.txt"
    sim.write_atomic([(str(path), PIECES)])
    assert path.read_bytes() == "".join(PIECES).encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_failure_while_staging_pieces_leaves_no_file(tmp_path):
    def failing():
        yield PIECES[0]
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        sim.write_atomic([(str(tmp_path / "a.txt"), PIECES), (str(tmp_path / "b.txt"), failing())])
    assert os.listdir(tmp_path) == []


def test_an_unwritable_target_leaves_no_file_and_is_named(tmp_path):
    missing = str(tmp_path / "missing" / "b.txt")
    with pytest.raises(FileNotFoundError) as info:
        sim.write_atomic([(str(tmp_path / "a.txt"), PIECES), (missing, ("text\n",))])
    assert info.value.filename == missing
    assert os.listdir(tmp_path) == []


def test_emit_to_stdout_writes_the_text_then_its_newline(monkeypatch):
    writes = []

    class Stdout(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Stdout()
    monkeypatch.delenv(cli.GRID_ENV, raising=False)
    monkeypatch.setattr(cli.sys, "stdout", out)
    assert cli.main(["bode", "--format", "json"]) == 0
    assert len(writes) == 2 and writes[1] == "\n"
    text = out.getvalue()
    assert text == writes[0] + "\n" and text.endswith("}\n]\n")
    assert json.loads(text)[0]["f_hz"] == 10.0
