"""Real-coefficient polynomials and rational transfer functions.

Polynomial coefficients are stored in ascending powers of the variable:
``coeffs[k]`` multiplies ``x**k``.  A transfer function is a pair of
polynomials tagged with its domain, continuous (``dt is None``) or
discrete with a positive, finite sample period ``dt``.  Instances are
frozen; every operation returns a new object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError, DomainMismatch, DegreeError, EmptyInput, ParamError, PoleHit

__all__ = ["Polynomial", "TransferFunction", "parallel", "quadratic_roots"]

# |den| below this marks a pole hit, for a point and for a response sweep
POLE_HIT_TOL = 1e-300


# what counts as a real number: a Python int or float, or a numpy scalar of either
_REAL = (int, float, np.integer, np.floating)


def _check_positive(name: str, x) -> None:
    """The one rule for a value that must be a positive, finite real number
    (a numpy scalar counts): sample periods, gains, time constants, beta."""
    if not (isinstance(x, _REAL) and x > 0.0 and math.isfinite(x)):
        raise ParamError(f"{name} must be positive and finite, got {x!r}")


def _horner(coeffs, x):
    """Ascending coefficients at x by Horner's scheme (a constant takes the shape of x)."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    if isinstance(acc, float) and isinstance(x, (complex, np.ndarray)):
        return acc + 0 * x
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Dense real polynomial in ascending-power form."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        cs = [float(c) for c in coeffs]
        if not cs:
            raise EmptyInput("polynomial needs at least one coefficient")
        # normalize: drop trailing (highest-order) exact zeros, keep at least one entry
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x):
        """Evaluate by Horner's scheme. Accepts scalars or numpy arrays."""
        return _horner(self.coeffs, x)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, k: float) -> "Polynomial":
        return Polynomial([k * c for c in self.coeffs])

    def power(self, n: int) -> "Polynomial":
        if n < 0:
            raise ParamError("polynomial power must be non-negative")
        out = Polynomial([1.0])
        for _ in range(n):
            out = out * self
        return out


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function num/den with a domain tag.

    ``dt is None`` marks a continuous-time system in the Laplace variable s;
    otherwise ``dt`` is the sample period in seconds of a discrete-time system in z.
    """

    num: Polynomial
    den: Polynomial
    dt: float | None = field(default=None)

    def __post_init__(self):
        if not isinstance(self.num, Polynomial):
            object.__setattr__(self, "num", Polynomial(self.num))
        if not isinstance(self.den, Polynomial):
            object.__setattr__(self, "den", Polynomial(self.den))
        if self.den.is_zero():
            raise ParamError("denominator polynomial is identically zero")
        if self.dt is not None:
            _check_positive("sample period", self.dt)

    @property
    def is_discrete(self) -> bool:
        return self.dt is not None

    def __call__(self, x):
        """Evaluate num(x)/den(x) at a complex point.

        Raises PoleHit when |den(x)| falls below POLE_HIT_TOL.
        """
        d = self.den(x)
        if abs(d) < POLE_HIT_TOL:
            raise PoleHit(f"denominator magnitude {abs(d):.3e} below {POLE_HIT_TOL:.3e} at x={x!r}")
        return self.num(x) / d


def parallel(a: TransferFunction, b: TransferFunction) -> TransferFunction:
    """Sum of two transfer functions over the common denominator.

    Both operands must live in the same domain (and share dt when discrete).
    """
    if a.dt != b.dt:
        raise DomainMismatch(f"cannot add systems with dt={a.dt!r} and dt={b.dt!r}")
    num = a.num * b.den + b.num * a.den
    den = a.den * b.den
    return TransferFunction(num, den, a.dt)


def quadratic_roots(p: Polynomial) -> tuple[complex, complex]:
    """Both roots of a degree-2 polynomial, numerically stable form.

    For a complex pair the positive-imaginary root comes first; for a real
    pair the larger root comes first.
    """
    if p.degree != 2:
        raise DegreeError(f"expected degree 2, got degree {p.degree}")
    c, b, a = p.coeffs
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:
        # avoid cancellation: compute the large-magnitude root first
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
        r1 = q / a
        r2 = c / q if q != 0.0 else -b / (2.0 * a)
        lo, hi = sorted((float(r1), float(r2)))
        roots = (complex(hi), complex(lo))
    else:
        re = -b / (2.0 * a)
        im = np.sqrt(-disc) / (2.0 * a)
        roots = (complex(re, abs(im)), complex(re, -abs(im)))
    _check_residual(p, roots)
    return roots


def _check_residual(p: Polynomial, roots) -> None:
    lead = abs(p.coeffs[-1])
    for r in roots:
        bound = 1e-9 * lead * max(1.0, abs(r)) ** 2
        # require |p(r)| small relative to the leading coefficient scale
        if abs(p(r)) > max(bound, 1e-9 * max(abs(c) for c in p.coeffs)):
            raise CrossCheckError(f"root residual check failed at {r!r}: |p(r)|={abs(p(r)):.3e}")
