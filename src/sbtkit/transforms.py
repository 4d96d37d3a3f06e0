"""The scalable bilinear map between the s-plane and the z-plane.

The map with shape factor alpha and time factor beta is

    s = (1 / (beta*T)) * (z - 1) / (alpha*z + 1 - alpha)

with algebraic inverse

    z = (1 + (1 - alpha)*beta*T*s) / (1 - alpha*beta*T*s).

alpha in [0, 1] selects where the left half plane lands: alpha = 1 gives
the backward-difference map, alpha = 0.5 the trapezoidal map.  Only
alpha >= 0.5 keeps every stable continuous pole inside the unit circle,
so paths that accept smaller alpha emit StabilityRangeWarning.  beta > 0
rescales the effective sample period to beta*T, which is what pulls a
warped resonance back onto its continuous frequency.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import (
    DomainError,
    MapSingularity,
    OriginError,
    ParamError,
    StabilityRangeWarning,
)
from .lti import Polynomial, TransferFunction, _REAL, _check_positive

__all__ = [
    "STABLE_ALPHA_MIN",
    "SbtParams",
    "Euler",
    "Tustin",
    "TustinPrewarp",
    "Sbt",
    "Method",
    "StabilityCircle",
    "z_from_s",
    "s_from_z",
    "exact_z_from_s",
    "equivalent_s_from_z",
    "prewarp_factor",
    "stability_circle",
    "is_stable_image",
    "substitute",
    "METHODS",
    "time_factors",
    "method_params",
    "method_label",
]

STABLE_ALPHA_MIN = 0.5


def _warn_unstable_alpha(alpha: float) -> None:
    """The one StabilityRangeWarning (alpha below STABLE_ALPHA_MIN), pointed at the caller's caller."""
    if alpha < STABLE_ALPHA_MIN:
        msg = f"alpha={alpha} below {STABLE_ALPHA_MIN}: discretized poles may leave the unit disk"
        warnings.warn(msg, StabilityRangeWarning, stacklevel=3)


def _check_sbt(alpha, beta) -> None:
    """The one rule for a map's parameters: alpha a real number in [0, 1],
    beta positive and finite.  SbtParams and the search loss both call it."""
    if not (isinstance(alpha, _REAL) and 0.0 <= alpha <= 1.0):
        raise ParamError(f"alpha must lie in [0, 1], got {alpha!r}")
    _check_positive("beta", beta)


@dataclass(frozen=True)
class SbtParams:
    """Shape factor alpha in [0, 1] and time factor beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_sbt(self.alpha, self.beta)

    def in_stable_range(self) -> bool:
        """True when every stable s-plane pole maps inside the unit circle."""
        return self.alpha >= STABLE_ALPHA_MIN


@dataclass(frozen=True)
class Euler:
    """Backward-difference method, identical to SbtParams(1, 1)."""


@dataclass(frozen=True)
class Tustin:
    """Trapezoidal method, identical to SbtParams(0.5, 1)."""


@dataclass(frozen=True)
class TustinPrewarp:
    """Trapezoidal method with the resonance pre-warped before mapping.

    omega_n is the angular frequency (rad/s) to preserve; None means
    "use the controller's own resonant frequency" and is resolved by the
    operation that consumes the tag.
    """

    omega_n: float | None = None


@dataclass(frozen=True)
class Sbt:
    """The scalable map with explicit parameters."""

    params: SbtParams


Method = Euler | Tustin | TustinPrewarp | Sbt


@dataclass(frozen=True)
class StabilityCircle:
    """Image of the left half plane: disk centered on the real axis."""

    center_re: float
    radius: float

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return abs(z - self.center_re) <= self.radius + tol


def z_from_s(s: complex, p: SbtParams, T: float) -> complex:
    """Map an s-plane point to its z-plane image."""
    _check_positive("sample period", T)
    den = 1.0 - p.alpha * p.beta * T * s
    if abs(den) < 1e-15:
        raise MapSingularity(f"s={s!r} lies on the map singularity 1/(alpha*beta*T)")
    return (1.0 + (1.0 - p.alpha) * p.beta * T * s) / den


def s_from_z(z: complex, p: SbtParams, T: float) -> complex:
    """Map a z-plane point back to the s-plane.

    Uses the explicit real and imaginary forms: with z = gamma + j*zeta
    and D = (alpha*gamma + 1 - alpha)^2 + (alpha*zeta)^2,

        sigma = (alpha*(gamma-1)^2 + (gamma-1) + alpha*zeta^2) / (beta*T*D)
        omega = zeta / (beta*T*D)

    which agree with dividing (z - 1) by beta*T*(alpha*z + 1 - alpha).
    """
    _check_positive("sample period", T)
    g, zt = z.real, z.imag
    d = (p.alpha * g + 1.0 - p.alpha) ** 2 + (p.alpha * zt) ** 2
    if d < 1e-30:
        raise MapSingularity(f"z={z!r} lies on the inverse-map singularity")
    scale = 1.0 / (p.beta * T * d)
    sigma = scale * (p.alpha * (g - 1.0) ** 2 + (g - 1.0) + p.alpha * zt * zt)
    omega = scale * zt
    return complex(sigma, omega)


def exact_z_from_s(s: complex, T: float) -> complex:
    """Reference map z = exp(s*T)."""
    _check_positive("sample period", T)
    return cmath.exp(s * T)


def equivalent_s_from_z(z: complex, T: float) -> complex:
    """Principal-branch inverse of the reference map, s = ln(z)/T.

    The imaginary part is taken from the two-argument angle, so points in
    the upper half plane give omega in (0, pi/T].  z = 0 is rejected.
    """
    _check_positive("sample period", T)
    if z == 0:
        raise OriginError("z = 0 has no equivalent s-plane point")
    return complex(math.log(abs(z)) / T, cmath.phase(z) / T)


def prewarp_factor(omega_n: float, T: float) -> float:
    """Frequency-preserving time factor tan(omega_n*T/2) / (omega_n*T/2).

    Requires 0 < omega_n*T/2 < pi/2, i.e. omega_n below the angular
    Nyquist rate.
    """
    _check_positive("sample period", T)
    x = omega_n * T / 2.0
    if not 0.0 < x < math.pi / 2.0:
        raise DomainError(f"omega_n*T/2 = {x!r} outside (0, pi/2)")
    return math.tan(x) / x

def stability_circle(alpha: float) -> StabilityCircle:
    """Disk the left half plane maps onto: center 1 - 1/(2*alpha), radius 1/(2*alpha)."""
    if not alpha > 0.0:
        raise DomainError("stability circle defined for alpha > 0 only")
    r = 1.0 / (2.0 * alpha)
    return StabilityCircle(center_re=1.0 - r, radius=r)


def is_stable_image(z: complex, alpha: float, tol: float = 1e-12) -> bool:
    """True when z lies inside the closed image disk for this alpha."""
    return stability_circle(alpha).contains(z, tol=tol)


def substitute(tf: TransferFunction, p: SbtParams, T: float) -> TransferFunction:
    """Discretize a continuous transfer function by direct substitution.

    Each power s^k in numerator and denominator is replaced by

        (z - 1)^k * (alpha*z + 1 - alpha)^(n-k) * (beta*T)^(n-k)

    where n is the larger of the two degrees, i.e. both polynomials are
    cleared by the common factor (beta*T)^n * (alpha*z + 1 - alpha)^n.
    No further normalization is applied, so degree-2 inputs reproduce the
    closed-form biquad columns coefficient for coefficient.
    """
    _check_positive("sample period", T)
    if tf.is_discrete:
        raise DomainError("substitute expects a continuous-time system")
    _warn_unstable_alpha(p.alpha)
    n = max(tf.num.degree, tf.den.degree)
    zm1 = Polynomial([-1.0, 1.0])
    azb = Polynomial([1.0 - p.alpha, p.alpha])

    def lift(poly: Polynomial) -> Polynomial:
        out = Polynomial([0.0])
        for k, c in enumerate(poly.coeffs):
            if c == 0.0:
                continue
            term = zm1.power(k) * azb.power(n - k)
            out = out + term.scale(c * (p.beta * T) ** (n - k))
        return out

    return TransferFunction(lift(tf.num), lift(tf.den), dt=T)


METHODS = {"euler": Euler, "tustin": Tustin, "sota": TustinPrewarp, "sbt": Sbt}
"""Method registry: short name to tag class, in the order tables list them."""


def time_factors(method: Method, omega_n: float, T: float) -> tuple[float, float, float]:
    """Resolve a method tag to (alpha, beta_c, beta_n).

    beta_c is the time factor on the bandwidth terms and beta_n the one on
    the resonance terms of the resonant element.  Backward difference is
    (1, 1, 1), trapezoidal is (0.5, 1, 1) and the scalable map is
    (alpha, beta, beta).  Pre-warped trapezoidal is (0.5, 1, k_w): the
    plain trapezoidal map applied to a plant whose resonance is scaled by
    k_w = prewarp_factor.  omega_n is the fallback design frequency for a
    TustinPrewarp tag that does not carry its own.
    """
    _check_positive("sample period", T)
    if isinstance(method, Sbt):
        return method.params.alpha, method.params.beta, method.params.beta
    if isinstance(method, TustinPrewarp):
        wn = method.omega_n if method.omega_n is not None else omega_n
        return 0.5, 1.0, prewarp_factor(wn, T)
    if isinstance(method, Euler):
        return 1.0, 1.0, 1.0
    if isinstance(method, Tustin):
        return 0.5, 1.0, 1.0
    raise ParamError(f"unknown method tag {method!r}")


def method_params(method: Method, omega_n: float, T: float) -> SbtParams:
    """Resolve a method tag to its (alpha, beta) pair, beta being the time
    factor on the resonance (see time_factors)."""
    alpha, _, beta_n = time_factors(method, omega_n, T)
    return method.params if isinstance(method, Sbt) else SbtParams(alpha, beta_n)


def method_label(method: Method) -> str:
    """Short lower-case name used in tables and CLI output."""
    for name, tag in METHODS.items():
        if isinstance(method, tag):
            return name
    raise ParamError(f"unknown method tag {method!r}")

