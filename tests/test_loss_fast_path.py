"""q_loss's unmasked route against the object-built reference.

q_loss skips the pole-hit masks when no grid point can be a hit: for
complex poles, b2*(1 - sqrt(c0))^2 bounds |den| from below on the unit
circle.  Otherwise it tests the smallest |den|, and only a hit (or a nan)
takes the masked route.  These tests drive every branch: complex poles
inside and outside the disk, poles on the circle, real poles (a board
damped to the edge of QrParams' range) and grid points that are hits
because the tolerance was raised.
"""

import math
import random
import struct
import warnings

import numpy as np
import pytest

from sbtkit import QrParams, Sbt, SbtParams, analysis, q_loss, qr_discretize, transforms, tuning
from sbtkit.controllers import _qr_column
from test_loss_routes import configs, reference_loss, seeded_board

# wc one ulp below wn: the discrete poles round to a real pair
CRITICAL_BOARD = (QrParams(59.1, float(np.nextafter(5969.0, 0.0)), 5969.0), 5e-5)


def bits(values):
    """The doubles as bytes, so nan equals nan and the comparison is bit for bit."""
    return [struct.pack("<d", v) for v in values]


def monic(alpha, beta, p, T):
    _, _, _, b2, b1, b0 = _qr_column(p, alpha, beta, beta, T)
    return b0 / b2, b1 / b2


def wide_pairs(rng, p, T, n):
    """n random pairs over alpha in [0, 1] and beta in [0.5, 1.5], the box
    corners, and the alpha that puts the poles on the unit circle at beta = 1
    (b0 = b2), where there is one."""
    pairs = [(0.0, 0.5), (0.0, 1.5), (1.0, 0.5), (1.0, 1.5), (0.5, 1.0)]
    on_circle = 0.5 - p.omega_c / (p.omega_n**2 * T)
    if on_circle >= 0.0:
        pairs.append((on_circle, 1.0))
    return pairs + [(rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)) for _ in range(n)]


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
@pytest.mark.filterwarnings("ignore::sbtkit.UnstableWarning")
def test_q_loss_equals_reference_over_the_wide_box():
    rng = random.Random(17)
    boards = [seeded_board(seed) for seed in range(1, 5)] + [CRITICAL_BOARD]
    kinds = {"real": 0, "outside": 0, "on_circle": 0, "inside": 0}
    for seed, (p, T) in enumerate(boards, 1):
        pairs = wide_pairs(rng, p, T, 40)
        for a, b in pairs:
            c0, c1 = monic(a, b, p, T)
            if c1 * c1 >= 4.0 * c0:
                kinds["real"] += 1
            elif abs(c0 - 1.0) < 1e-12:
                kinds["on_circle"] += 1
            else:
                kinds["outside" if c0 > 1.0 else "inside"] += 1
        for cfg in configs(seed):
            lean = [q_loss(a, b, p, T, cfg) for a, b in pairs]
            assert bits(lean) == bits(reference_loss(a, b, p, T, cfg) for a, b in pairs), \
                (seed, cfg.loss_kind)
    assert min(kinds.values()) >= 1, kinds
    assert kinds["outside"] >= 30 and kinds["inside"] >= 30, kinds


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_q_loss_equals_reference_when_the_tolerance_makes_hits(seed, monkeypatch):
    """With POLE_HIT_TOL between the smallest and largest |den| on the grid,
    some points are hits, the bound cannot clear the tolerance, and q_loss
    takes the masked route: +inf dB at the hits, num/1 in the linear loss."""
    p, T = seeded_board(seed)
    rng = random.Random(seed)
    z = np.exp(1j * 2.0 * math.pi * analysis.default_rmse_grid().as_array() * T)
    for _ in range(4):
        a, b = rng.uniform(0.5, 1.0), rng.uniform(0.9, 1.1)
        biq = qr_discretize(p, Sbt(SbtParams(a, b)), T)
        den = np.abs((biq.b2 * z + biq.b1) * z + biq.b0)
        tol = math.sqrt(den.min() * den.max())
        with monkeypatch.context() as m:
            m.setattr(tuning, "POLE_HIT_TOL", tol)
            m.setattr(analysis, "POLE_HIT_TOL", tol)
            for cfg in configs(seed):
                lean = q_loss(a, b, p, T, cfg)
                assert bits([lean]) == bits([reference_loss(a, b, p, T, cfg)]), cfg.loss_kind
                if cfg.loss_kind == "mag_rmse_db":
                    assert lean == math.inf
                elif cfg.loss_kind == "mag_rmse_linear":
                    assert math.isfinite(lean)


@pytest.mark.parametrize("name", list(transforms.METHODS))
def test_qr_column_equals_qr_discretize_for_every_method(name):
    tag = transforms.METHODS[name]
    for seed in range(1, 4):
        p, T = seeded_board(seed)
        method = tag(SbtParams(0.7, 1.02)) if tag is Sbt else tag()
        biq = qr_discretize(p, method, T)
        column = _qr_column(p, *transforms.time_factors(method, p.omega_n, T), T)
        assert column == (biq.a2, biq.a1, biq.a0, biq.b2, biq.b1, biq.b0), name


def test_q_loss_warns_below_the_stable_alpha_at_its_caller():
    p, T = seeded_board(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q_loss(0.3, 1.0, p, T)
    ranged = [w for w in caught if issubclass(w.category, transforms.StabilityRangeWarning)]
    assert len(ranged) == 1 and ranged[0].filename == __file__
