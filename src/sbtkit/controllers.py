"""Resonant current controllers and their discrete realizations.

The continuous resonant element is

    G_qr(s) = 2*Kr*wc*s / (s^2 + 2*wc*s + wn^2)

with gain Kr, bandwidth wc and resonant frequency wn (rad/s).  The
fundamental tracker is a PI element Kp*(1 + 1/(tau_i*s)) placed in
parallel.  Discretization produces a biquad in descending z powers,

    H(z) = (a2*z^2 + a1*z + a0) / (b2*z^2 + b1*z + b0),

by one closed-form column over (alpha, beta_c, beta_n).  It reduces
bit-exactly to the backward-difference column at (1, 1, 1), to the
trapezoidal column at (0.5, 1, 1) and to the pre-warped trapezoidal
column at (0.5, 1, k_w); expression order below is chosen so those
reductions hold exactly in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NormalizationError, ParamError
from .lti import Polynomial, TransferFunction, _REAL, _check_positive, parallel
from .transforms import Method, SbtParams, _warn_unstable_alpha, prewarp_factor, time_factors

__all__ = [
    "QrParams",
    "PiParams",
    "BiquadCoeffs",
    "DiffEqCoeffs",
    "qr_continuous",
    "pi_continuous",
    "pir_continuous",
    "qr_discretize",
    "diff_eq_coeffs",
    "pi_discretize",
    "pir_discretize",
    "sbt_params_straightforward",
]


@dataclass(frozen=True)
class QrParams:
    """Resonant element constants, all angular frequencies in rad/s."""

    kr: float
    omega_c: float
    omega_n: float

    def __post_init__(self):
        _check_positive("kr", self.kr)
        wc, wn = self.omega_c, self.omega_n
        if not (isinstance(wc, _REAL) and isinstance(wn, _REAL) and 0 < wc < wn < math.inf):
            raise ParamError(
                f"need 0 < omega_c < omega_n < inf, got omega_c={self.omega_c!r} "
                f"omega_n={self.omega_n!r}"
            )


def upper_pole(p: QrParams, ratio: float = 1.0) -> complex:
    """Upper plant pole (-wc, sqrt((ratio*wn)^2 - wc^2)); its imaginary part
    is 0 only where the radicand underflows."""
    wn = p.omega_n * ratio
    return complex(-p.omega_c, math.sqrt(wn**2 - p.omega_c**2))


@dataclass(frozen=True)
class PiParams:
    """Proportional-integral constants."""

    kp: float
    tau_i: float

    def __post_init__(self):
        _check_positive("kp", self.kp)
        _check_positive("tau_i", self.tau_i)


def _unsigned_zeros(coeffs) -> None:
    """Replace -0.0 by 0.0 in every field, so reduced parameter choices print the same table
    (names from __dataclass_fields__: dataclasses.fields builds a tuple on every call)."""
    for name in coeffs.__dataclass_fields__:
        if getattr(coeffs, name) == 0.0:
            object.__setattr__(coeffs, name, 0.0)


@dataclass(frozen=True)
class BiquadCoeffs:
    """Second-order discrete section, coefficients in descending z powers."""

    a2: float
    a1: float
    a0: float
    b2: float
    b1: float
    b0: float

    def __post_init__(self):
        if self.b2 == 0.0:
            raise ParamError("leading denominator coefficient b2 must be nonzero")
        _unsigned_zeros(self)

    def to_transfer(self, T: float) -> TransferFunction:
        """Same section as a discrete TransferFunction (ascending storage)."""
        return TransferFunction(
            Polynomial([self.a0, self.a1, self.a2]),
            Polynomial([self.b0, self.b1, self.b2]),
            dt=T,
        )


@dataclass(frozen=True)
class DiffEqCoeffs:
    """Normalized update  y[n] = kin0*x[n] + kin1*x[n-1] + kin2*x[n-2]
    + kout1*y[n-1] + kout2*y[n-2]."""

    kin0: float
    kin1: float
    kin2: float
    kout1: float
    kout2: float

    __post_init__ = _unsigned_zeros


def qr_continuous(p: QrParams) -> TransferFunction:
    """Continuous resonant element as a rational function of s."""
    num = Polynomial([0.0, 2 * p.kr * p.omega_c])
    den = Polynomial([p.omega_n * p.omega_n, 2 * p.omega_c, 1.0])
    return TransferFunction(num, den)


def pi_continuous(p: PiParams) -> TransferFunction:
    """Kp*(1 + 1/(tau_i*s)) over the common denominator tau_i*s."""
    return TransferFunction(
        Polynomial([p.kp, p.kp * p.tau_i]), Polynomial([0.0, p.tau_i])
    )


def pir_continuous(pi: PiParams, qr: QrParams) -> TransferFunction:
    """PI and resonant element in parallel (degree-3 denominator)."""
    return parallel(pi_continuous(pi), qr_continuous(qr))


def _qr_column(p: QrParams, al: float, bc: float, bn: float, T: float) -> tuple[float, ...]:
    """The closed-form column (a2, a1, a0, b2, b1, b0) at (alpha, beta_c, beta_n),
    unchecked: the search loss calls it per evaluation, qr_discretize per design.
    The left-hand prefixes (4*al - 2)*bc and (2 - 2*al)*bc are computed once;
    each product still runs left to right, and negation is exact, so every
    coefficient keeps the bits of the expression written out in full."""
    kr, wc, wn = p.kr, p.omega_c, p.omega_n
    lead, trail = (4 * al - 2) * bc, (2 - 2 * al) * bc
    return (
        2 * al * bc * kr * wc * T,
        -lead * kr * wc * T,
        -trail * kr * wc * T,
        1 + 2 * al * bc * wc * T + (al * bn * wn * T) ** 2,
        -2 - lead * wc * T + 2 * al * (1 - al) * (bn * wn * T) ** 2,
        1 - trail * wc * T + ((1 - al) * bn * wn * T) ** 2,
    )


def qr_discretize(p: QrParams, method: Method, T: float) -> BiquadCoeffs:
    """Closed-form biquad for the resonant element under the given method.

    One column covers every method: the scalable map with time factor
    beta_c on the bandwidth terms and beta_n on the resonance terms, which
    equals substituting the map (alpha, beta_c) into the plant with its
    resonance scaled by beta_n/beta_c (see transforms.time_factors).
    """
    al, bc, bn = time_factors(method, p.omega_n, T)
    _warn_unstable_alpha(al)
    return BiquadCoeffs(*_qr_column(p, al, bc, bn, T))


def diff_eq_coeffs(c: BiquadCoeffs) -> DiffEqCoeffs:
    """Divide the biquad through by b2 for the recursive update."""
    if abs(c.b2) < 1e-300:
        raise NormalizationError(f"|b2| = {abs(c.b2):.3e} too small to normalize")
    return DiffEqCoeffs(
        kin0=c.a2 / c.b2,
        kin1=c.a1 / c.b2,
        kin2=c.a0 / c.b2,
        kout1=-c.b1 / c.b2,
        kout2=-c.b0 / c.b2,
    )


def pi_discretize(p: PiParams, T: float) -> DiffEqCoeffs:
    """Trapezoidal PI update: an accumulator with feed-through.

    y[n] = y[n-1] + Kp*(1 + T/(2*tau_i))*x[n] + Kp*(T/(2*tau_i) - 1)*x[n-1]
    """
    _check_positive("sample period", T)
    half = T / (2.0 * p.tau_i)
    return DiffEqCoeffs(
        kin0=p.kp * (1.0 + half),
        kin1=p.kp * (half - 1.0),
        kin2=0.0,
        kout1=1.0,
        kout2=0.0,
    )


def pir_discretize(
    pi: PiParams, qr: QrParams, method: Method, T: float
) -> tuple[DiffEqCoeffs, DiffEqCoeffs]:
    """Parallel legs of the digital controller.

    The PI leg always uses the trapezoidal update; only the resonant leg
    changes with the method under test.  Outputs of the two legs are summed.
    """
    return pi_discretize(pi, T), diff_eq_coeffs(qr_discretize(qr, method, T))


def sbt_params_straightforward(p: QrParams, T: float) -> SbtParams:
    """Shape 0.5 with the time factor that pins the resonance in place."""
    return SbtParams(0.5, prewarp_factor(p.omega_n, T))
