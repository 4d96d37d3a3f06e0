"""Two routes to the search loss: q_loss against the object-built reference.

q_loss evaluates the six biquad coefficients on a cached unit-circle grid
and flags instability with the Schur-Cohn conditions.  The reference
below builds the discrete TransferFunction and evaluates it through the
public response functions, and finds the poles with quadratic_roots.
"""

import random
import warnings

import numpy as np
import pytest

from sbtkit import (
    LossConfig,
    Polynomial,
    QrParams,
    Sbt,
    SbtParams,
    SearchConfig,
    UnstableWarning,
    analysis,
    complex_response,
    default_rmse_grid,
    equivalent_s_from_z,
    optimize_alpha_beta,
    q_loss,
    qr_continuous,
    qr_discretize,
    quadratic_roots,
    tuning,
    z_from_s,
)
from sbtkit.controllers import upper_pole


def seeded_board(seed: int) -> tuple[QrParams, float]:
    """A board around the reference one (kr, wc within 20%, wn within 10%)."""
    rng = random.Random(seed)
    p = QrParams(59.1 * rng.uniform(0.8, 1.2), 17.907 * rng.uniform(0.8, 1.2),
                 5969.0 * rng.uniform(0.9, 1.1))
    return p, 1.0 / rng.uniform(19500.0, 21000.0)


def reference_loss(alpha, beta, p, T, cfg=None):
    if cfg is None:
        cfg = LossConfig()
    params = SbtParams(alpha, beta)
    if cfg.loss_kind == "pole_distance":
        original = upper_pole(p)
        return abs(equivalent_s_from_z(z_from_s(original, params, T), T) - original) / p.omega_n
    freqs = cfg.grid.as_array()
    disc = qr_discretize(p, Sbt(params), T).to_transfer(T)
    if cfg.loss_kind == "mag_rmse_db":
        err = (analysis._response_arrays(qr_continuous(p), freqs)[0]
               - analysis._response_arrays(disc, freqs)[0])
    else:
        err = np.abs(complex_response(qr_continuous(p), freqs)[0]) - np.abs(complex_response(disc, freqs)[0])
    if cfg.weights is not None:
        w = np.asarray(cfg.weights)
        return float(np.sqrt(np.sum(w * err * err) / np.sum(w)))
    return float(np.sqrt(np.mean(err * err)))


def configs(seed: int):
    grid = default_rmse_grid()
    weights = tuple(np.random.RandomState(seed).uniform(0.0, 2.0, len(grid)))
    for kind in tuning.LOSS_KINDS:
        yield LossConfig(grid=grid, loss_kind=kind)
        yield LossConfig(grid=grid, loss_kind=kind, weights=weights)


@pytest.mark.parametrize("seed", [1, 2])
def test_loss_equals_reference_over_the_coarse_box(seed):
    p, T = seeded_board(seed)
    pairs = [(float(a), float(b)) for a in np.linspace(0.5, 1.0, 41)
             for b in np.linspace(0.9, 1.1, 41)]
    for cfg in configs(seed):
        lean = [q_loss(a, b, p, T, cfg) for a, b in pairs]
        assert lean == [reference_loss(a, b, p, T, cfg) for a, b in pairs], cfg.loss_kind


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
def test_schur_cohn_flag_agrees_with_the_roots():
    rng = random.Random(11)
    flags = {True: 0, False: 0}
    for seed in range(1, 7):
        p, T = seeded_board(seed)
        for _ in range(60):
            alpha, beta = rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)
            biq = qr_discretize(p, Sbt(SbtParams(alpha, beta)), T)
            radius = max(abs(r) for r in quadratic_roots(Polynomial([biq.b0, biq.b1, biq.b2])))
            if abs(radius - 1.0) < 1e-9:
                continue  # too near the boundary for the two tests to be compared
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                q_loss(alpha, beta, p, T)
            flagged = any(w.category is UnstableWarning for w in caught)
            assert flagged == (radius > 1.0 + 1e-12), (seed, alpha, beta, radius)
            flags[flagged] += 1
    assert min(flags.values()) >= 30, flags


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_optimize_trace_equals_the_reference_trace(seed, monkeypatch):
    p, T = seeded_board(seed) if seed else (QrParams(59.1, 17.907, 5969.0), 5e-5)
    search = SearchConfig(coarse_points=15, refine_iters=20)
    for kind in tuning.LOSS_KINDS:
        cfg = LossConfig(loss_kind=kind)
        lean = optimize_alpha_beta(p, T, cfg, search)
        with monkeypatch.context() as m:
            m.setattr(tuning, "q_loss", reference_loss)
            ref = optimize_alpha_beta(p, T, cfg, search)
        assert lean.trace == ref.trace, kind
        assert (lean.alpha, lean.beta, lean.loss_value) == (ref.alpha, ref.beta, ref.loss_value)

