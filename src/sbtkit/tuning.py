"""Loss surfaces over (alpha, beta) and the deterministic two-stage search.

The search scans a coarse inclusive grid over the constraint box, then
refines around the best cell with alternating per-axis golden-section
steps.  The straightforward pair (0.5, pre-warp factor) is always
evaluated first when it lies inside the box, so the returned loss never
exceeds it.  Everything is deterministic: same inputs, same trace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analysis import (
    FrequencyGrid,
    _basis,
    _mag_db,
    _points,
    _values,
    complex_response,
    default_rmse_grid,
)
from .controllers import QrParams, _qr_column, qr_continuous, sbt_params_straightforward, upper_pole
from .errors import DomainError, ParamError, UnstableWarning
from .lti import POLE_HIT_TOL, _check_positive
from .transforms import (
    STABLE_ALPHA_MIN,
    SbtParams,
    _check_sbt,
    _warn_unstable_alpha,
    equivalent_s_from_z,
    z_from_s,
)

__all__ = [
    "LossConfig",
    "SearchConfig",
    "TraceEntry",
    "OptimizeResult",
    "q_loss",
    "optimize_alpha_beta",
]

LOSS_KINDS = ("mag_rmse_db", "mag_rmse_linear", "pole_distance")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# most q_loss evaluations one search may ask for (the default search runs 1842)
MAX_EVALUATIONS = 2**16


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: the _context cache key
class LossConfig:
    """What the scalar loss measures.

    mag_rmse_db      weighted RMS of the dB magnitude error over the grid
    mag_rmse_linear  same but on plain magnitude differences
    pole_distance    |equivalent pole - original pole| / omega_n
    """

    grid: FrequencyGrid = field(default_factory=default_rmse_grid)
    loss_kind: str = "mag_rmse_db"
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ParamError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(self.grid):
                raise ParamError(
                    f"{len(w)} weights for a {len(self.grid)}-point grid"
                )
            # a nan or inf weight, or a sum that overflows, makes every loss nan
            if not (all(0.0 <= x < math.inf for x in w) and 0.0 < sum(w) < math.inf):
                raise ParamError("weights must be finite and non-negative with a finite, positive sum")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class SearchConfig:
    """Constraint box and search effort."""

    alpha_range: tuple[float, float] = (0.5, 1.0)
    beta_range: tuple[float, float] = (0.9, 1.1)
    coarse_points: int = 41
    refine_iters: int = 40

    def __post_init__(self):
        a_lo, a_hi = self.alpha_range
        b_lo, b_hi = self.beta_range
        if not (STABLE_ALPHA_MIN <= a_lo <= a_hi <= 1.0):
            raise ParamError(f"alpha_range must satisfy {STABLE_ALPHA_MIN} <= lo <= hi <= 1, "
                             f"got {self.alpha_range!r}")
        if not (0.0 < b_lo <= b_hi < math.inf):
            raise ParamError(f"beta_range must satisfy 0 < lo <= hi < inf, got {self.beta_range!r}")
        if self.coarse_points < 1:
            raise ParamError("coarse_points must be at least 1")
        if self.refine_iters < 0:
            raise ParamError("refine_iters must be non-negative")
        n = 1 + self.coarse_points**2 + 4 * self.refine_iters
        if n > MAX_EVALUATIONS:
            raise ParamError(f"search of {n} evaluations exceeds MAX_EVALUATIONS = {MAX_EVALUATIONS}")


class TraceEntry(NamedTuple):
    """One evaluation of the search: its stage, the pair, its loss and the best loss so far."""

    stage: str
    alpha: float
    beta: float
    loss: float
    best_loss: float


@dataclass(frozen=True)
class OptimizeResult:
    alpha: float
    beta: float
    loss_value: float
    straightforward: SbtParams
    straightforward_loss: float | None
    trace: tuple[TraceEntry, ...]


@lru_cache(maxsize=4)  # a search reuses one; each holds a grid and two arrays
def _context(p: QrParams, T: float, cfg: LossConfig):
    """What the magnitude losses of one search share: the 3-row analysis._basis
    of z = exp(j*2*pi*f*T) over the grid, the analog reference (in dB for
    mag_rmse_db) and the weights, scaled by the power of two that brings
    the largest into [0.5, 1).  A power of two scales every product and sum
    of _mag_loss exactly, short of overflow and underflow, so the loss keeps
    its bits, and w * err * err no longer overflows on weights that are
    merely large."""
    freqs = cfg.grid.as_array()
    h, hit = complex_response(qr_continuous(p), freqs)
    ref = _mag_db(h, hit) if cfg.loss_kind == "mag_rmse_db" else np.abs(h)
    w = None if cfg.weights is None else np.ldexp(cfg.weights, -math.frexp(max(cfg.weights))[1])
    return _basis(_points(freqs, T), 3), ref, w


_default_loss = lru_cache(maxsize=1)(LossConfig)  # one default, so it keeps its _context entry


def q_loss(alpha: float, beta: float, p: QrParams, T: float, cfg: LossConfig | None = None) -> float:
    """Scalar discretization quality loss at one (alpha, beta) pair.

    Validates like qr_discretize (the alpha/beta rule of SbtParams,
    transforms._check_sbt, the sample period, the StabilityRangeWarning
    below alpha 0.5), then takes the six coefficients straight from
    controllers._qr_column, so no object is built per evaluation; only the
    pole_distance loss builds an SbtParams, for z_from_s.  Emits
    UnstableWarning when the monic denominator z^2 + c1*z + c0 fails the
    Schur-Cohn test |c0| <= 1, |c1| <= 1 + c0 (possible only for alpha
    below 0.5).  No roots are computed here, so quadratic_roots and its
    residual check run only in pole_map_table.

    The magnitude losses run in _mag_loss, whose errstate decorator is the
    one numpy error scope of an evaluation.
    """
    if cfg is None:
        cfg = _default_loss()
    _check_sbt(alpha, beta)
    _check_positive("sample period", T)
    _warn_unstable_alpha(alpha)
    a2, a1, a0, b2, b1, b0 = _qr_column(p, alpha, beta, beta, T)
    c0, c1 = b0 / b2, b1 / b2
    if not (abs(c0) <= 1.0 and abs(c1) <= 1.0 + c0):
        warnings.warn(f"discrete poles outside the unit disk for alpha={alpha}, beta={beta}",
                      UnstableWarning, stacklevel=2)
    if cfg.loss_kind == "pole_distance":
        original = upper_pole(p)
        eq = equivalent_s_from_z(z_from_s(original, SbtParams(alpha, beta), T), T)
        return abs(eq - original) / p.omega_n
    basis, ref, w = _context(p, T, cfg)
    return _mag_loss(((b0, b1, b2), (a0, a1, a2)), c0, c1, basis, ref, w, cfg.loss_kind == "mag_rmse_db")


@np.errstate(all="ignore")
def _mag_loss(rows, c0, c1, basis, ref, w, db) -> float:
    """RMS error (weighted by w when given) of the biquad's magnitude against
    ref over the grid of basis, in dB when db is set; rows are ((b0, b1, b2),
    (a0, a1, a2)) and c0, c1 the monic denominator's b0/b2 and b1/b2.

    The response goes through analysis._values, complex_response's one
    product, on the cached power basis of the grid (num/1 at pole hits,
    +inf dB there), so the loss equals the one built from the public
    evaluators bit for bit.  The pole-hit mask is built only when a hit is
    possible: for complex poles, |z^2 + c1*z + c0| >= (1 - sqrt(c0))^2 on
    |z| = 1, and when b2 times that bound clears POLE_HIT_TOL by more than
    the product's rounding, no grid point is a hit.  Real poles, poles near
    the circle and nan coefficients always build it.
    """
    b0, b1, b2 = rows[0]
    den, num = _values(np.array(rows), basis)
    # for complex poles |den| >= b2*(1 - sqrt(c0))^2 on |z| = 1: when that
    # clears POLE_HIT_TOL past the product's rounding, no grid point is a hit
    gap = 1.0 - math.sqrt(c0) if c1 * c1 < 4.0 * c0 else 0.0
    hit = None
    if not abs(b2) * gap * gap > POLE_HIT_TOL + 1e-12 * (abs(b2) + abs(b1) + abs(b0)):
        hit = np.abs(den) < POLE_HIT_TOL
        den[hit] = 1.0  # num/1 at a pole hit, as complex_response
    num /= den
    mag = np.abs(num)
    if db:
        np.log10(mag, out=mag)
        mag *= 20.0
        if hit is not None:
            mag[hit] = np.inf
    err = np.subtract(ref, mag, out=mag)
    if w is not None:
        return math.sqrt(np.add.reduce(w * err * err) / np.add.reduce(w))
    err *= err
    return math.sqrt(np.add.reduce(err) / err.size)


def _axis_points(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced floats from lo to hi inclusive, or [lo] when hi == lo."""
    if hi == lo:
        return [float(lo)]
    return np.linspace(lo, hi, n).tolist()


def _golden_step(lo: float, hi: float, f) -> tuple[float, float, float]:
    """Golden-section step on [lo, hi], f at the lower point first: (new lo, new hi, better point)."""
    x1 = hi - (hi - lo) * _INVPHI
    x2 = lo + (hi - lo) * _INVPHI
    if f(x1) <= f(x2):
        return lo, x2, x1
    return x1, hi, x2


def optimize_alpha_beta(
    p: QrParams,
    T: float,
    loss_cfg: LossConfig | None = None,
    search_cfg: SearchConfig | None = None,
) -> OptimizeResult:
    """Minimize q_loss over the constraint box.

    Stage one evaluates the straightforward pair (when inside the box) and
    an inclusive coarse_points x coarse_points grid; ties keep the earliest
    cell.  Stage two alternates golden-section steps on alpha and beta in a
    bracket spanning the coarse neighbors of the best cell.  The best point
    ever evaluated is returned, so the result never loses to the
    straightforward design it is meant to improve on.  DomainError is
    raised when no evaluated pair gives a finite loss.
    """
    if loss_cfg is None:
        loss_cfg = _default_loss()
    if search_cfg is None:
        search_cfg = SearchConfig()

    trace: list[TraceEntry] = []
    best_alpha = best_beta = None
    best_loss = math.inf

    def evaluate(stage: str, a: float, b: float) -> float:
        nonlocal best_alpha, best_beta, best_loss
        val = q_loss(a, b, p, T, loss_cfg)
        if val < best_loss:
            best_alpha, best_beta, best_loss = a, b, val
        trace.append(TraceEntry(stage, a, b, val, best_loss))
        return val

    sf = sbt_params_straightforward(p, T)
    a_lo, a_hi = search_cfg.alpha_range
    b_lo, b_hi = search_cfg.beta_range
    sf_inside = a_lo <= sf.alpha <= a_hi and b_lo <= sf.beta <= b_hi
    sf_loss = evaluate("straightforward", sf.alpha, sf.beta) if sf_inside else None

    alphas = _axis_points(a_lo, a_hi, search_cfg.coarse_points)
    betas = _axis_points(b_lo, b_hi, search_cfg.coarse_points)
    best_cell = (0, 0)
    best_cell_loss = math.inf
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            val = evaluate("coarse", a, b)
            if val < best_cell_loss:
                best_cell_loss = val
                best_cell = (i, j)

    i, j = best_cell
    a_left = alphas[max(i - 1, 0)]
    a_right = alphas[min(i + 1, len(alphas) - 1)]
    b_left = betas[max(j - 1, 0)]
    b_right = betas[min(j + 1, len(betas) - 1)]
    cur_a = alphas[i]
    cur_b = betas[j]

    for _ in range(search_cfg.refine_iters):
        if a_right > a_left:
            a_left, a_right, cur_a = _golden_step(
                a_left, a_right, lambda a: evaluate("refine-alpha", a, cur_b)
            )
        if b_right > b_left:
            b_left, b_right, cur_b = _golden_step(
                b_left, b_right, lambda b: evaluate("refine-beta", cur_a, b)
            )

    if best_alpha is None:
        raise DomainError("no (alpha, beta) in the box gives a finite loss")
    return OptimizeResult(
        alpha=best_alpha,
        beta=best_beta,
        loss_value=best_loss,
        straightforward=sf,
        straightforward_loss=sf_loss,
        trace=tuple(trace),
    )
