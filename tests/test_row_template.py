"""The two routes of cli._rows_json's chunks, and np.dot in place of @.

A chunk whose rows share the first row's string keys in order and hold
only finite values of exact type float is rendered through one %r row
template; every other chunk goes through the C encoder.  Every case is
compared byte for byte with json.dumps(_json_safe(rows), indent=2), and
the route a chunk took is read from the encoder passes it made.

analysis._values and the block runner's small 2-D products call np.dot
instead of @: the same BLAS product, so the same bits, at each 2-D shape
those callers use.  (The runner's Markov row keeps @: at K = 2 with two
inputs it is one row times a strided matrix, where np.dot may round
differently.)
"""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbtkit import analysis, cli, controllers, sim, transforms


def reference(rows) -> str:
    return json.dumps(cli._json_safe(rows), indent=2)


def render(rows, monkeypatch) -> tuple[str, list]:
    """cli._rows_json(rows), and the row count of each chunk it passed to
    the encoder (a chunk that falls back to _json_safe counts twice)."""
    passes = []

    def dumps(obj, **kwargs):
        if "separators" in kwargs:
            passes.append(len(obj))
        return json.dumps(obj, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cli, "json", types.SimpleNamespace(dumps=dumps))
        return cli._rows_json(rows), passes


EDGES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-05, 0.0001, 1e16, 1e22, 1e-7, 123456789012345678.0,
    0.1 + 0.2, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
]


def test_repr_edge_values_take_the_template(monkeypatch):
    rows = [{"value": v, "negated": -v, "half": v / 2} for v in EDGES]
    text, passes = render(rows, monkeypatch)
    assert passes == []
    assert text == reference(rows)
    assert json.loads(text) == rows


def test_template_chunk_then_nan_chunk(monkeypatch):
    monkeypatch.setattr(cli, "JSON_CHUNK_ROWS", 3)
    rows = [{"f_hz": 10.0 * i, "mag_db": -0.5 * i} for i in range(7)]
    rows[4]["mag_db"] = math.nan
    rows[6]["f_hz"] = -math.inf
    text, passes = render(rows, monkeypatch)
    assert passes == [3, 3, 1, 1]  # chunks 2 and 3 each fail allow_nan once, then encode
    assert text == reference(rows)
    assert text.count("null") == 2


def test_all_finite_chunks_take_the_template(monkeypatch):
    monkeypatch.setattr(cli, "JSON_CHUNK_ROWS", 4)
    rows = [{"f_hz": 1.5 * i, "mag_db": 0.1 * i, "phase_deg": -i / 3} for i in range(11)]
    text, passes = render(rows, monkeypatch)
    assert passes == []
    assert text == reference(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}],
        [{"a": 1.0, "b": 2.0}, {"a": 3.0}],
        [{"a": 1.0}, {"a": 2.0, "b": 3.0}],
        [{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}],
        [{"a": 1.0, "b": 2.0}, {"a": 1.0}, {"b": 2.0, "a": 1.0}, {"b": 2.0}],
    ],
    ids=["swapped", "fewer", "more", "other-key", "same-key-sequence"],
)
def test_rows_whose_keys_differ_take_the_encoder(rows, monkeypatch):
    text, passes = render(rows, monkeypatch)
    assert passes == [len(rows)]
    assert text == reference(rows)


def test_keys_that_need_escapes(monkeypatch):
    keys = ['"', "\\", "é", "line\nbreak", "%r", "100%", "\U0001f600", "\t"]
    rows = [{k: float(i + j) / 7 for j, k in enumerate(keys)} for i in range(5)]
    text, passes = render(rows, monkeypatch)
    assert passes == []
    assert text == reference(rows)
    assert json.loads(text) == rows


class _Float(float):
    def __repr__(self):
        return "not json"


@pytest.mark.parametrize(
    "cell",
    [True, False, 3, 0, np.float64(0.1), np.float64(-0.0), _Float(2.5), None, "1.0"],
    ids=["true", "false", "int", "int-zero", "np-float64", "np-negative-zero", "float-subclass",
         "none", "string"],
)
def test_cells_not_of_exact_type_float_take_the_encoder(cell, monkeypatch):
    rows = [{"x": 0.25, "y": 0.5} for _ in range(3)]
    rows[1]["y"] = cell
    text, passes = render(rows, monkeypatch)
    assert passes == [3]
    assert text == reference(rows)


def test_non_string_keys_take_the_encoder(monkeypatch):
    rows = [{1: 0.5, 2.5: 1.0, None: 2.0, True: 3.0}] * 2
    text, passes = render(rows, monkeypatch)
    assert passes == [2]
    assert text == reference(rows)


def test_an_overflowing_sum_of_finite_values_takes_the_encoder(monkeypatch):
    rows = [{"x": 1.7976931348623157e308}, {"x": 1.7976931348623157e308}]
    text, passes = render(rows, monkeypatch)
    assert passes == [2]
    assert text == reference(rows)


_KEYS = st.lists(st.text(alphabet=st.sampled_from('ab"\\\n%ré\U0001f600'), max_size=3),
                 min_size=1, max_size=4, unique=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_KEYS, st.data(), st.integers(1, 4))
def test_shared_keys_and_any_floats_match_at_small_chunk_sizes(keys, data, chunk):
    count = data.draw(st.integers(1, 9))
    rows = [{k: data.draw(st.floats()) for k in keys} for _ in range(count)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "JSON_CHUNK_ROWS", chunk)
        assert cli._rows_json(rows) == reference(rows)


def test_discretize_rows_keep_the_field_order():
    p, T = controllers.QrParams(59.1, 17.907, 5969.0), 5e-5
    for method in (transforms.Euler(), transforms.Tustin()):
        biq = cli._discretize(p, method, T)
        diff = controllers.diff_eq_coeffs(biq)
        assert list(vars(biq)) == list(biq.__dataclass_fields__)
        assert list(vars(diff)) == list(diff.__dataclass_fields__)
    zeros = controllers.DiffEqCoeffs(-0.0, 1.0, -0.0, 0.5, -0.0)
    assert list(vars(zeros)) == list(zeros.__dataclass_fields__)
    assert all(math.copysign(1.0, getattr(zeros, k)) == 1.0 for k in ("kin0", "kin2", "kout2"))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("points", [1, 5, 41, 400, 2200])
def test_evaluator_product_dot_equals_matmul(n, points):
    rng = np.random.default_rng(points * 10 + n)
    rows = rng.normal(size=(2, n))
    basis = analysis._basis(np.exp(1j * rng.uniform(0.0, math.pi, points)), n)
    assert same_bits(np.dot(rows, basis), rows @ basis)
    assert same_bits(analysis._values(rows, basis).view(float), rows @ basis)


def state_matrix(system: int, rng) -> np.ndarray:
    """A, a strided view, of one of the runner's systems: one or two legs
    open loop, or the inverter loop at delay 0, 1, 3 or 256."""
    legs = [controllers.DiffEqCoeffs(*rng.normal(scale=0.3, size=5)) for _ in range(2)]
    if system < 2:
        return sim._legs_system(legs[: system + 1])[0]
    return sim._closed_loop_system(legs, (0, 1, 3, 256)[system - 2], 0.0125)[0]


@pytest.mark.parametrize("system", range(6))
def test_runner_products_dot_equals_matmul(system):
    rng = np.random.default_rng(system)
    A = state_matrix(system, rng)
    ns = len(A)
    assert not A.flags.c_contiguous
    powers = np.empty((sim.BLOCK + 1, ns, ns))
    powers[0] = np.eye(ns)
    for k in range(sim.BLOCK):  # the powers of A into a table row
        np.dot(powers[k], A, out=powers[k + 1])
        assert same_bits(powers[k + 1], powers[k] @ A)
    for table in (rng.normal(scale=0.5, size=(ns, ns)), powers[sim.BLOCK]):  # _decays' squarings
        assert same_bits(np.dot(table, table), table @ table)
    step = rng.normal(scale=0.5, size=(ns, ns))
    for nb in (2, 3, 562, 625):  # each scan level
        after = rng.normal(size=(nb, ns))
        shift = 1
        while shift < nb:
            assert same_bits(np.dot(after[:-shift], step), after[:-shift] @ step)
            shift *= 2
