"""The block runner's one block shape: an even count of BLOCK-sample rows,
zero-filled past the last sample, at every run length.

Each run is checked against the per-step loop within 1e-12 of the peak,
not bit for bit across lengths: a BLAS kernel may round a product's last
rows by their position in it."""

import math

import numpy as np
import pytest

from sbtkit import DiffEqCoeffs, PiParams, QrParams, Sbt, SbtParams, TustinPrewarp, sim
from sbtkit import diff_eq_coeffs, pir_discretize, qr_discretize, run_difference_equation

K = sim.BLOCK
DELAY_ONE = DiffEqCoeffs(kin0=0.0, kin1=1.0, kin2=0.0, kout1=0.0, kout2=0.0)
# a QR leg of the reference board, and two stable second-order legs
LEGS = [
    diff_eq_coeffs(qr_discretize(QrParams(59.1, 17.907, 5969.0), Sbt(SbtParams(0.5, 1.0)), 5e-5)),
    DiffEqCoeffs(kin0=0.7, kin1=-0.3, kin2=0.2, kout1=1.2, kout2=-0.8),
    DiffEqCoeffs(kin0=-1.1, kin1=0.4, kin2=0.9, kout1=-0.5, kout2=-0.3),
]
COEF = 1.0 / 40000.0 / 245e-6
LOOP_LEGS = pir_discretize(PiParams(2.955, 8.594e-4), QrParams(44.325, 17.907, 5969.0),
                           TustinPrewarp(), 1.0 / 40000.0)
# no samples at all is EmptyInput; every other length of up to 3 whole blocks and a remainder
LENGTHS = [(blocks, rest) for blocks in range(4) for rest in range(K) if blocks or rest]
ROUTES = [
    pytest.param(True, marks=pytest.mark.skipif(not sim.X87_LONG_DOUBLE,
                                                reason="long double is not the x87 format here"),
                 id="scan"),
    pytest.param(False, id="edge-loop"),
]


def _ids(lengths):
    return [f"{blocks}x{K}+{rest}" for blocks, rest in lengths]


def _within(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("scan", ROUTES)
@pytest.mark.parametrize("blocks, rest", LENGTHS, ids=_ids(LENGTHS))
def test_legs_equal_the_per_step_loop_at_every_length(monkeypatch, scan, blocks, rest):
    monkeypatch.setattr(sim, "_scan_pays", lambda ns, nb: scan)
    x = np.random.default_rng(blocks * K + rest).uniform(-1.0, 1.0, blocks * K + rest)
    run = sim._block_lti(*sim._legs_system(LEGS), [x])
    assert run is not None
    _within(run[0], sim._run_steps(LEGS, x))
    _within(run_difference_equation(LEGS, x), sim._run_steps(LEGS, x))


@pytest.mark.parametrize("scan", ROUTES)
@pytest.mark.parametrize("blocks, rest", LENGTHS, ids=_ids(LENGTHS))
def test_closed_loop_equals_the_per_step_loop_at_every_length(monkeypatch, scan, blocks, rest):
    monkeypatch.setattr(sim, "_scan_pays", lambda ns, nb: scan)
    rng = np.random.default_rng(blocks * K + rest)
    i_ref = rng.uniform(-30.0, 30.0, blocks * K + rest)
    v_grid = rng.uniform(-311.0, 311.0, blocks * K + rest)
    run = sim._block_lti(*sim._closed_loop_system(LOOP_LEGS, 1, COEF), [i_ref, v_grid])
    assert run is not None
    i_grid, v_inv = sim._closed_loop_steps(LOOP_LEGS, 1, COEF, i_ref, v_grid)
    # the block route's output is the current after each step: i_grid one
    # sample on, and then the current after the last step
    last = i_grid[-1] + COEF * (v_inv[-1] - v_grid[-1])
    _within(run[0], np.append(i_grid[1:], last))


@pytest.mark.parametrize("blocks, rest", LENGTHS, ids=_ids(LENGTHS))
def test_a_spike_in_the_last_sample_takes_the_per_step_route(blocks, rest):
    # the delay leg's output never shows the last input, but the state after
    # it, or a dropped output of the last row, does
    x = np.sin(np.arange(blocks * K + rest) * 0.1)
    x[-1] = 2e12
    assert sim._block_lti(*sim._legs_system([DELAY_ONE]), [x]) is None
    got = run_difference_equation(DELAY_ONE, x)
    assert np.array_equal(got, sim._run_steps([DELAY_ONE], x))
    assert np.array_equal(got[1:], x[:-1])


@pytest.mark.parametrize("samples, rows", [(1, 2), (K, 2), (2 * K, 2), (2 * K + 1, 4), (3 * K, 4),
                                           (36000, 1126), (40000, 1250)])
def test_a_run_steps_an_even_count_of_block_rows(monkeypatch, samples, rows):
    shapes = []
    real_matmul = np.matmul

    def matmul(a, b, out=None):
        shapes.append(len(a))
        return real_matmul(a, b, out=out)

    monkeypatch.setattr(sim.np, "matmul", matmul)
    x = np.cos(np.arange(samples) * 0.01)
    y = run_difference_equation(LEGS[1:], x)
    assert y.shape == (samples,)
    assert sum(shapes) == rows and all(n % 2 == 0 for n in shapes)
    assert math.isfinite(y.sum())
