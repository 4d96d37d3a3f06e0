"""The search's value rules and its trace contract.

q_loss validates (alpha, beta) with the same rule as SbtParams
(transforms._check_sbt) without building one, LossConfig refuses weights
that would make every loss nan, and the trace is a tuple of TraceEntry
named tuples holding plain floats.
"""

import json
import math

import pytest

from sbtkit import (
    FrequencyGrid,
    LossConfig,
    ParamError,
    QrParams,
    SbtParams,
    SearchConfig,
    TraceEntry,
    optimize_alpha_beta,
    q_loss,
)

BOARD = QrParams(59.1, 17.907, 5969.0)
T = 5e-5


def _message(fn, *args) -> str:
    with pytest.raises(ParamError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("alpha, beta", [
    (-0.1, 1.0), (1.1, 1.0), (math.nan, 1.0), ("0.5", 1.0),
    (0.7, 0), (0.7, -1), (0.7, math.nan), (0.7, math.inf),
], ids=repr)
def test_q_loss_and_sbt_params_share_the_alpha_beta_rule(alpha, beta):
    expected = _message(SbtParams, alpha, beta)
    assert _message(q_loss, alpha, beta, BOARD, T) == expected
    pole = LossConfig(loss_kind="pole_distance")
    assert _message(q_loss, alpha, beta, BOARD, T, pole) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
def test_loss_config_refuses_a_weight_that_is_not_finite(bad):
    g = FrequencyGrid.linear(900.0, 1000.0, 5)
    with pytest.raises(ParamError, match="finite"):
        LossConfig(grid=g, weights=(1.0, 1.0, bad, 1.0, 1.0))


def test_loss_config_refuses_weights_whose_sum_overflows():
    g = FrequencyGrid.linear(900.0, 1000.0, 200)
    assert math.isinf(sum((1e308,) * 200))
    with pytest.raises(ParamError, match="finite"):
        LossConfig(grid=g, weights=(1e308,) * 200)


def test_large_weights_with_a_finite_sum_are_accepted():
    g = FrequencyGrid.linear(900.0, 1000.0, 5)
    big = LossConfig(grid=g, weights=(1e300,) * 5)
    unit = LossConfig(grid=g, weights=(1.0,) * 5)
    assert q_loss(0.7, 1.0, BOARD, T, big) == pytest.approx(q_loss(0.7, 1.0, BOARD, T, unit), rel=1e-12)


def test_trace_entry_is_an_immutable_named_tuple():
    assert TraceEntry._fields == ("stage", "alpha", "beta", "loss", "best_loss")
    entry = TraceEntry("coarse", 0.5, 1.0, 0.25, 0.125)
    assert tuple(entry) == ("coarse", 0.5, 1.0, 0.25, 0.125)
    with pytest.raises(AttributeError):
        entry.alpha = 0.6


def test_identical_searches_give_equal_traces():
    cfg = SearchConfig(coarse_points=5, refine_iters=3)
    first = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    second = optimize_alpha_beta(BOARD, T, search_cfg=cfg)
    assert first.trace == second.trace
    assert all(type(e) is TraceEntry for e in first.trace)


@pytest.mark.parametrize("search", [
    SearchConfig(coarse_points=5, refine_iters=3),
    SearchConfig(alpha_range=(1, 1), beta_range=(1, 1)),
    SearchConfig(alpha_range=(0.5, 1), beta_range=(1, 1), coarse_points=3, refine_iters=2),
], ids=["default box", "int one-point box", "int edges"])
def test_every_pair_in_the_trace_and_result_is_a_float(search):
    res = optimize_alpha_beta(BOARD, T, search_cfg=search)
    for e in res.trace:
        assert type(e.alpha) is float and type(e.beta) is float, e
    assert type(res.alpha) is float and type(res.beta) is float


def test_int_one_point_box_prints_floats_in_json():
    res = optimize_alpha_beta(BOARD, T, search_cfg=SearchConfig(alpha_range=(1, 1), beta_range=(1, 1)))
    assert json.dumps([res.alpha, res.beta, res.trace[-1].alpha, res.trace[-1].beta]) == "[1.0, 1.0, 1.0, 1.0]"
