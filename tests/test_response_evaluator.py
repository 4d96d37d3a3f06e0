"""analysis.complex_response's power-basis evaluator against two references.

Every response is one product of the stacked [den; num] coefficient rows
with the powers x**0 ... x**(n-1) of the points.  Its accuracy is checked
against Horner's scheme in long double on seeded boards, and its edge
cases (unequal degrees, constants, one point, pole hits) against the
pointwise TransferFunction.__call__.
"""

import json
import math
import random

import numpy as np
import pytest

from sbtkit import (
    Polynomial,
    Sbt,
    SbtParams,
    TransferFunction,
    analysis,
    complex_response,
    default_bode_grid,
    default_rmse_grid,
    qr_continuous,
    qr_discretize,
    sim,
)
from test_loss_routes import seeded_board


def horner_long(coeffs, x):
    """Ascending coefficients at the points x by Horner's scheme in long double."""
    acc = np.full(x.shape, coeffs[-1], dtype=np.clongdouble)
    for c in coeffs[-2::-1]:
        acc = acc * x + np.longdouble(c)
    return acc


def box_systems(seed):
    """The analog plant and sbt discretizations at the search box's corners,
    its centre and four seeded pairs inside it."""
    p, T = seeded_board(seed)
    rng = random.Random(seed)
    pairs = [(0.5, 0.9), (0.5, 1.1), (1.0, 0.9), (1.0, 1.1), (0.75, 1.0)]
    pairs += [(rng.uniform(0.5, 1.0), rng.uniform(0.9, 1.1)) for _ in range(4)]
    discrete = [qr_discretize(p, Sbt(SbtParams(a, b)), T).to_transfer(T) for a, b in pairs]
    return [qr_continuous(p)] + discrete


@pytest.mark.skipif(not sim.X87_LONG_DOUBLE, reason="long double is no wider than double here")
@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("grid", [default_rmse_grid(), default_bode_grid()], ids=["rmse", "bode"])
def test_magnitude_is_within_5e_13_of_long_double_horner(seed, grid):
    freqs = grid.as_array()
    for tf in box_systems(seed):
        h, hit = complex_response(tf, freqs)
        assert not hit.any()
        x = analysis._points(freqs, tf.dt).astype(np.clongdouble)
        want = np.abs(horner_long(tf.num.coeffs, x) / horner_long(tf.den.coeffs, x))
        rel = np.abs(np.abs(h).astype(np.longdouble) - want) / want
        assert float(np.max(rel)) <= 5e-13


def pointwise(tf, freqs):
    """tf(x) at each point, and num(x) where __call__ refuses a pole hit."""
    x = analysis._points(freqs, tf.dt)
    return np.array([tf.num(v) if abs(tf.den(v)) < analysis.POLE_HIT_TOL else tf(v)
                     for v in x.tolist()])


T = 5e-5
W0 = 2.0 * math.pi * 1000.0
EDGE_CASES = {
    # numerator of higher degree than the denominator, and of lower degree
    "improper-analog": (TransferFunction([1.0, -2e-3, 3e-7, 4e-11], [2.0, 1e-3], None),
                        [10.0, 950.0, 9000.0]),
    "improper-discrete": (TransferFunction([0.5, -1.0, 0.25, 2.0], [1.0, -0.5], T),
                          [10.0, 950.0, 9000.0]),
    "strictly-proper-discrete": (TransferFunction([3.0], [0.9, -1.2, 0.3, 1.0], T),
                                 [10.0, 950.0, 9000.0]),
    # a constant over a constant, and a constant over a quadratic
    "constant": (TransferFunction([2.5], [4.0], T), [10.0, 950.0, 9000.0]),
    "constant-numerator": (TransferFunction([7.0], [W0 * W0, 20.0, 1.0], None),
                           [10.0, 950.0, 9000.0]),
    # one point, as simulate board's predicted amplitude asks for
    "one-point": (qr_discretize(seeded_board(3)[0], Sbt(SbtParams(0.6, 1.02)), T).to_transfer(T),
                  [937.5]),
    # an undamped resonator hit exactly at 1000 Hz: flagged, with value num/1
    "pole-hit": (TransferFunction([0.5, 2e-3], [W0 * W0, 0.0, 1.0], None), [500.0, 1000.0, 1500.0]),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_cases_match_pointwise_evaluation(name):
    tf, points = EDGE_CASES[name]
    freqs = np.array(points)
    h, hit = complex_response(tf, freqs)
    assert h.shape == hit.shape == freqs.shape
    want = pointwise(tf, freqs)
    assert np.all(np.abs(h - want) <= 1e-12 * np.abs(want))
    x = analysis._points(freqs, tf.dt)
    assert hit.tolist() == [abs(tf.den(v)) < analysis.POLE_HIT_TOL for v in x.tolist()]
    assert bool(hit.any()) is (name == "pole-hit")


def test_basis_rows_are_successive_powers():
    x = np.exp(2j * math.pi * np.array([100.0, 950.0, 5000.0]) * T)
    powers = analysis._basis(x, 4).view(complex)
    assert powers.shape == (4, 3)
    assert np.all(powers[0] == 1.0)
    for k in range(1, 4):
        assert np.array_equal(powers[k], powers[k - 1] * x)


def test_one_product_evaluates_every_row():
    x = 2j * math.pi * np.array([10.0, 950.0])
    rows = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 0.0], [0.0, 0.0, -1.0]])
    got = analysis._values(rows, analysis._basis(x, 3))
    assert got.shape == (3, 2)
    want = [[Polynomial(r)(v) for v in x.tolist()] for r in rows]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.filterwarnings("error")
def test_continuous_response_past_a_power_overflow_reads_the_reversed_rows(capsys):
    # x**2 of x = j*2*pi*f overflows above about 2e153 Hz, and 2*pi*f itself at 1e308;
    # there |H| of the analog board is 2*kr*wc/(2*pi*f), still a finite double
    from sbtkit import cli

    assert cli.main(["bode", "--grid", "1:1e308:5:log", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)[2:]
    assert [r["f_hz"] for r in rows] == [1e154, 1e231, 1e308]
    for r in rows:
        want = 2.0 * 59.1 * 17.907 / (2.0 * math.pi) / r["f_hz"]
        assert abs(10.0 ** (r["mag_db"] / 20.0) - want) <= 1e-12 * want
        assert r["phase_deg"] == -90.0


def test_reversed_rows_keep_a_value_that_is_not_finite():
    # an improper analog response really overflows, and a discrete one is never evaluated again
    freqs = np.array([1e10, 1e200])
    h, hit = complex_response(TransferFunction([1.0, 0.0, 0.0, 1.0], [1.0, 1.0], None), freqs)
    assert np.isfinite(h[0]) and not np.isfinite(h[1]) and not hit.any()
    # num overflows near z = 1; at w = -j/(2*pi*f) the reversed rows would give a finite value
    h, hit = complex_response(TransferFunction([1e308, 1e308], [2.0, 1.0], T), np.array([10.0]))
    assert not np.isfinite(h[0]) and not hit[0]
