"""Weighted magnitude losses do not depend on the scale of the weights.

tuning._context scales the weights by the power of two that brings the
largest into [0.5, 1), which scales every product and sum of the loss
exactly: weights near the top or the bottom of the double range give the
unit-weight loss instead of inf or an underflowed sum, and LossConfig keeps
the weights as given.
"""

import math

import numpy as np
import pytest

from sbtkit import FrequencyGrid, LossConfig, QrParams, default_rmse_grid, q_loss
from sbtkit.tuning import LOSS_KINDS

BOARD = QrParams(59.1, 17.907, 5969.0)
T = 5e-5
GRID = FrequencyGrid.linear(900.0, 1000.0, 5)
MAG_KINDS = [k for k in LOSS_KINDS if k != "pole_distance"]


@pytest.mark.parametrize("kind", MAG_KINDS)
@pytest.mark.parametrize("weight", [1e307, 1e-300, 5e-324], ids=repr)
def test_extreme_equal_weights_give_the_unit_weight_loss(kind, weight):
    weights = (weight,) * len(GRID)
    cfg = LossConfig(grid=GRID, loss_kind=kind, weights=weights)
    unit = LossConfig(grid=GRID, loss_kind=kind, weights=(1.0,) * len(GRID))
    loss = q_loss(0.7, 1.0, BOARD, T, cfg)
    assert math.isfinite(loss)
    assert loss == pytest.approx(q_loss(0.7, 1.0, BOARD, T, unit), rel=1e-15)
    assert cfg.weights == weights


def test_the_overflowing_case_reads_its_unit_weight_value():
    cfg = LossConfig(grid=GRID, weights=(1e307,) * 5)
    assert q_loss(0.7, 1.0, BOARD, T, cfg) == 13.184606758877047


@pytest.mark.parametrize("kind", MAG_KINDS)
@pytest.mark.parametrize("shift", [-900, -40, 3, 900])
def test_a_power_of_two_scale_leaves_every_bit(kind, shift):
    grid = default_rmse_grid()
    w = np.random.default_rng(7).uniform(0.0, 2.0, len(grid))
    base = LossConfig(grid=grid, loss_kind=kind, weights=tuple(w))
    scaled = LossConfig(grid=grid, loss_kind=kind, weights=tuple(np.ldexp(w, shift)))
    for alpha, beta in [(0.5, 1.0), (0.7, 0.98), (1.0, 1.05)]:
        assert q_loss(alpha, beta, BOARD, T, scaled) == q_loss(alpha, beta, BOARD, T, base)
