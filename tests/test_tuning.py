"""Scalar discretization loss and the (alpha, beta) search."""

import math

import numpy as np
import pytest

from sbtkit import (
    FrequencyGrid,
    LossConfig,
    ParamError,
    QrParams,
    SearchConfig,
    UnstableWarning,
    optimize_alpha_beta,
    prewarp_factor,
    q_loss,
    sbt_params_straightforward,
    tuning,
)

KR, WC, WN = 59.1, 17.907, 5969.0
T = 5e-5
BOARD = QrParams(KR, WC, WN)


def test_loss_config_validation():
    with pytest.raises(ParamError):
        LossConfig(loss_kind="cosine")
    g = FrequencyGrid.linear(900.0, 1000.0, 5)
    with pytest.raises(ParamError):
        LossConfig(grid=g, weights=(1.0, 1.0))
    with pytest.raises(ParamError):
        LossConfig(grid=g, weights=(0.0,) * 5)
    with pytest.raises(ParamError):
        LossConfig(grid=g, weights=(1.0, 1.0, -1.0, 1.0, 1.0))
    cfg = LossConfig(grid=g, weights=[1, 2, 3, 2, 1])
    assert cfg.weights == (1.0, 2.0, 3.0, 2.0, 1.0)


def test_search_config_validation():
    with pytest.raises(ParamError):
        SearchConfig(alpha_range=(0.4, 1.0))
    with pytest.raises(ParamError):
        SearchConfig(alpha_range=(0.9, 0.6))
    with pytest.raises(ParamError):
        SearchConfig(beta_range=(0.0, 1.0))
    with pytest.raises(ParamError):
        SearchConfig(coarse_points=0)
    with pytest.raises(ParamError):
        SearchConfig(refine_iters=-1)
    SearchConfig(alpha_range=(0.7, 0.7), beta_range=(1.0, 1.0))  # collapsed box is fine


def test_loss_matches_direct_rmse():
    sf = sbt_params_straightforward(BOARD, T)
    assert q_loss(sf.alpha, sf.beta, BOARD, T) == pytest.approx(0.121014, rel=1e-4)
    assert q_loss(1.0, 1.0, BOARD, T) == pytest.approx(18.463785, rel=1e-5)
    assert q_loss(0.5, 1.0, BOARD, T) == pytest.approx(3.938630, rel=1e-5)


def test_loss_kinds_disagree_but_rank_alike():
    sf = sbt_params_straightforward(BOARD, T)
    for kind in ("mag_rmse_db", "mag_rmse_linear", "pole_distance"):
        cfg = LossConfig(loss_kind=kind)
        good = q_loss(sf.alpha, sf.beta, BOARD, T, cfg)
        bad = q_loss(1.0, 1.0, BOARD, T, cfg)
        assert 0.0 <= good < bad


def test_pole_distance_loss_zero_only_for_perfect_landing():
    cfg = LossConfig(loss_kind="pole_distance")
    val = q_loss(0.5, 1.0, BOARD, T, cfg)
    assert val > 1e-5
    sf = sbt_params_straightforward(BOARD, T)
    assert q_loss(sf.alpha, sf.beta, BOARD, T, cfg) < val


def test_weighted_loss_focuses_the_band():
    g = FrequencyGrid.explicit([940.0, 950.0, 960.0])
    flat = LossConfig(grid=g)
    peaky = LossConfig(grid=g, weights=(0.0, 1.0, 0.0))
    sf = sbt_params_straightforward(BOARD, T)
    # straightforward matches the peak exactly, so peak-only loss collapses
    assert q_loss(sf.alpha, sf.beta, BOARD, T, peaky) < q_loss(sf.alpha, sf.beta, BOARD, T, flat)


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
def test_unstable_shape_factor_warns():
    with pytest.warns(UnstableWarning):
        q_loss(0.0, 1.0, BOARD, T)


def test_optimizer_dominates_straightforward():
    res = optimize_alpha_beta(BOARD, T, search_cfg=SearchConfig(coarse_points=9, refine_iters=12))
    assert res.straightforward_loss is not None
    assert res.loss_value <= res.straightforward_loss
    assert res.straightforward.alpha == 0.5
    assert res.straightforward.beta == pytest.approx(prewarp_factor(WN, T), rel=1e-14)


def test_optimizer_trace_structure():
    cfg = SearchConfig(coarse_points=5, refine_iters=4)
    res = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    stages = [e.stage for e in res.trace]
    assert stages[0] == "straightforward"
    assert stages.count("coarse") == 25
    assert set(stages) <= {"straightforward", "coarse", "refine-alpha", "refine-beta"}
    # best-so-far column never increases and ends at the reported loss
    best = [e.best_loss for e in res.trace]
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    assert best[-1] == res.loss_value
    assert res.loss_value == min(e.loss for e in res.trace)


def test_optimizer_deterministic():
    cfg = SearchConfig(coarse_points=7, refine_iters=6)
    a = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    b = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    assert a.trace == b.trace
    assert (a.alpha, a.beta, a.loss_value) == (b.alpha, b.beta, b.loss_value)


def test_optimizer_collapsed_box_echoes_pair():
    cfg = SearchConfig(alpha_range=(0.7, 0.7), beta_range=(1.02, 1.02),
                       coarse_points=5, refine_iters=5)
    res = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    assert res.alpha == 0.7
    assert res.beta == 1.02
    # the fixed pair is outside nothing: straightforward lies outside this box
    assert res.straightforward_loss is None


def test_optimizer_pole_distance_recovers_prewarp_scale():
    res = optimize_alpha_beta(
        BOARD, T,
        loss_cfg=LossConfig(loss_kind="pole_distance"),
        search_cfg=SearchConfig(coarse_points=21, refine_iters=30),
    )
    k = prewarp_factor(WN, T)
    assert res.beta == pytest.approx(k, rel=2e-3)
    assert res.loss_value < 1e-6


def test_optimizer_respects_box():
    cfg = SearchConfig(alpha_range=(0.6, 0.8), beta_range=(0.95, 1.05),
                       coarse_points=7, refine_iters=8)
    res = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    assert 0.6 <= res.alpha <= 0.8
    assert 0.95 <= res.beta <= 1.05
    for e in res.trace:
        if e.stage == "straightforward":
            continue
        assert 0.6 <= e.alpha <= 0.8 + 1e-12
        assert 0.95 <= e.beta <= 1.05 + 1e-12


def test_random_instances_have_finite_nonnegative_loss():
    rng = np.random.RandomState(77)
    for _ in range(10):
        p = QrParams(rng.uniform(5, 80), rng.uniform(5, 60), rng.uniform(2000, 12000))
        Ts = rng.uniform(2e-5, 1e-4)
        val = q_loss(rng.uniform(0.5, 1.0), rng.uniform(0.9, 1.1), p, Ts)
        assert math.isfinite(val) and val >= 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_optimizer_rejects_a_box_without_finite_loss():
    from sbtkit import DomainError

    huge = QrParams(1e308, WC, WN)
    assert not math.isfinite(q_loss(0.5, 1.0, huge, T))
    with pytest.raises(DomainError):
        optimize_alpha_beta(huge, T, search_cfg=SearchConfig(coarse_points=3, refine_iters=1))


def test_search_evaluation_cap():
    cap = tuning.MAX_EVALUATIONS
    iters = (cap - 5) // 4  # 1 + 2^2 + 4*iters is the largest search that fits
    SearchConfig(coarse_points=2, refine_iters=iters)
    with pytest.raises(ParamError, match=f"search of {1 + 4 + 4 * (iters + 1)} evaluations"):
        SearchConfig(coarse_points=2, refine_iters=iters + 1)
    with pytest.raises(ParamError, match="MAX_EVALUATIONS"):
        SearchConfig(coarse_points=100000, refine_iters=1)


def test_search_box_needs_a_finite_upper_beta_bound():
    with pytest.raises(ParamError, match="beta_range"):
        SearchConfig(beta_range=(0.9, math.inf))


def test_loss_config_compares_by_identity():
    # the loss-context cache keys on the config object, not on its grid values
    cfg = LossConfig()
    assert cfg == cfg and cfg != LossConfig()
    assert hash(cfg) == object.__hash__(cfg)


def test_default_loss_config_is_built_once():
    # a fresh default per call would miss the _context cache every time
    before = tuning._context.cache_info().misses
    first = q_loss(0.6, 1.0, BOARD, T)
    second = q_loss(0.7, 1.0, BOARD, T)
    assert tuning._context.cache_info().misses - before <= 1
    assert (first, second) == (q_loss(0.6, 1.0, BOARD, T, LossConfig()),
                               q_loss(0.7, 1.0, BOARD, T, LossConfig()))
