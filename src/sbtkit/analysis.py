"""Frequency-domain comparison of continuous and discretized controllers.

Provides evaluation grids, magnitude/phase response sampling, the
analog-minus-discrete magnitude error curve with its RMSE aggregate, and
the pole-mapping table that tracks where the continuous resonant poles
land under each discretization method.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .controllers import QrParams, qr_discretize, sbt_params_straightforward, upper_pole
from .errors import CrossCheckError, DomainError, EmptyInput, ParamError
from .lti import POLE_HIT_TOL, Polynomial, TransferFunction, quadratic_roots
from .transforms import (
    METHODS,
    Method,
    Sbt,
    SbtParams,
    equivalent_s_from_z,
    exact_z_from_s,
    method_label,
    prewarp_factor,
    time_factors,
    z_from_s,
)

__all__ = [
    "FrequencyGrid",
    "ResponsePoint",
    "SourcePoles",
    "PoleMapRecord",
    "default_bode_grid",
    "default_rmse_grid",
    "alternative_rmse_grids",
    "load_grid_file",
    "complex_response",
    "freq_response",
    "magnitude_error_curve",
    "rmse",
    "source_poles",
    "pole_map_table",
]

# most points one grid may hold (the largest built-in grid has 2200)
MAX_GRID_POINTS = 2**16


def _grid_size(n: int) -> int:
    if n > MAX_GRID_POINTS:
        raise ParamError(f"grid of {n} points exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return n


def _finite_edges(f_lo: float, f_hi: float) -> None:
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise ParamError(f"grid edges must be finite, got {f_lo!r} and {f_hi!r}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive frequencies in Hz plus a spacing tag."""

    points: tuple[float, ...]
    spacing: str = field(default="explicit")

    def __post_init__(self):
        if len(self.points) == 0:
            raise EmptyInput("frequency grid needs at least one point")
        _grid_size(len(self.points))
        pts = tuple(float(f) for f in self.points)
        if not (0.0 < pts[0] and pts[-1] < math.inf):
            raise ParamError("grid frequencies must be positive and finite")
        for lo, hi in zip(pts, pts[1:]):
            if not hi > lo:
                raise ParamError("grid frequencies must be strictly increasing")
        if self.spacing not in ("linear", "logarithmic", "explicit"):
            raise ParamError(f"unknown spacing tag {self.spacing!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @classmethod
    def linear(cls, f_lo: float, f_hi: float, n: int) -> "FrequencyGrid":
        _finite_edges(f_lo, f_hi)
        return cls(tuple(np.linspace(f_lo, f_hi, _grid_size(n))), "linear")

    @classmethod
    def logarithmic(cls, f_lo: float, f_hi: float, n: int) -> "FrequencyGrid":
        _finite_edges(f_lo, f_hi)
        if f_lo <= 0 or f_hi <= 0:
            raise ParamError("logarithmic grid needs positive edges")
        return cls(tuple(np.logspace(math.log10(f_lo), math.log10(f_hi), _grid_size(n))), "logarithmic")

    @classmethod
    def explicit(cls, points) -> "FrequencyGrid":
        return cls(tuple(points), "explicit")

    def merged_with(self, other: "FrequencyGrid") -> "FrequencyGrid":
        # sort and drop equal neighbours: np.unique's result, without the
        # numpy.ma import that np.unique makes
        pts = np.sort(np.concatenate([self.as_array(), other.as_array()]))
        return FrequencyGrid(tuple(pts[np.r_[True, pts[1:] != pts[:-1]]]), "explicit")


@functools.cache  # a FrequencyGrid is immutable, so every call may share one
def default_bode_grid() -> FrequencyGrid:
    """Wide sweep: 2000 log points 10 Hz to 9.5 kHz merged with a 200-point
    linear zoom over 900 to 1000 Hz (duplicates removed)."""
    wide = FrequencyGrid.logarithmic(10.0, 9500.0, 2000)
    zoom = FrequencyGrid.linear(900.0, 1000.0, 200)
    return wide.merged_with(zoom)


def default_rmse_grid() -> FrequencyGrid:
    """Near-resonance comparison grid: 200 linear points over 900 to 1000 Hz.

    Error aggregates are quoted on this grid by default.  On wide sweeps the
    RMSE of every trapezoidal-family method is dominated by the common
    high-frequency warp near Nyquist, which washes out the between-method
    contrast that matters at the resonance.
    """
    return FrequencyGrid.linear(900.0, 1000.0, 200)


def alternative_rmse_grids() -> dict[str, FrequencyGrid]:
    """Three companion grids for reporting grid sensitivity of the RMSE."""
    return {
        "zoom-tight": FrequencyGrid.linear(940.0, 960.0, 201),
        "band-log": FrequencyGrid.logarithmic(500.0, 1800.0, 300),
        "wide-merged": default_bode_grid(),
    }


def load_grid_file(path: str) -> FrequencyGrid:
    """Read an explicit grid: one frequency in Hz per line, # comments allowed."""
    pts = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    pts.append(float(line))
    except ValueError as exc:  # a line that is not a number, or bytes that are not UTF-8
        raise ParamError(f"grid file {path!r}: {exc}") from exc
    if not pts:
        raise EmptyInput(f"no frequencies found in {path!r}")
    return FrequencyGrid(tuple(pts), "explicit")


@dataclass(frozen=True)
class ResponsePoint:
    """One sampled frequency-response value.  Phase wrapped to (-180, 180]."""

    f_hz: float
    mag_db: float
    phase_deg: float
    pole_hit: bool = False


def _points(freqs: np.ndarray, dt: float | None) -> np.ndarray:
    """j*2*pi*f for a continuous system (dt None), else exp(j*2*pi*f*dt) below Nyquist."""
    if dt is not None and freqs[-1] >= 0.5 / dt:
        raise DomainError(f"grid reaches {freqs[-1]:g} Hz, at or beyond Nyquist {0.5 / dt:g} Hz")
    with np.errstate(all="ignore"):  # a point near the largest double overflows to nan
        return 1j * 2.0 * math.pi * freqs if dt is None else np.exp(1j * 2.0 * math.pi * freqs * dt)


def _basis(x: np.ndarray, n: int) -> np.ndarray:
    """x**0 ... x**(n-1) as an (n, 2N) float array, real and imaginary parts
    interleaved.  Row k is row k-1 times x.  Call under np.errstate: a power
    of a continuous point can overflow."""
    powers = np.empty((n, x.size), dtype=complex)
    powers[0] = 1.0
    for k in range(1, n):
        np.multiply(powers[k - 1], x, out=powers[k])
    return powers.view(float)


def _values(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Every row of ascending coefficients (a C-contiguous float64 (m, n)
    array) at every point of an n-row _basis, as one BLAS product: (m, N) complex.
    np.dot runs the same dgemm as @, with the same bits, without matmul's
    gufunc dispatch: 1.45 against 1.00 us for the loss's (2, 3) x (3, 400)."""
    return np.dot(rows, basis).view(complex)


def complex_response(tf: TransferFunction, freqs: np.ndarray):
    """Complex response at each frequency (Hz) and the mask of pole hits,
    without numpy warnings.

    A continuous system is evaluated at x = j*2*pi*f, a discrete one at
    exp(j*2*pi*f*dt), which must lie below Nyquist.  Both coefficient rows
    are padded with zeros to one length.  Where |den| is below
    lti.POLE_HIT_TOL the point is flagged and its value is num/1.  Far up
    a continuous sweep a power of x overflows and the value is not finite;
    there both rows, reversed, are evaluated again at w = 1/x, built as
    -j/(2*pi*f) so that it stays finite where 2*pi*f overflows, since
    num(x)/den(x) is the ratio of the reversed rows at w.  A point takes
    that value only where it is finite.
    """
    num, den = tf.num.coeffs, tf.den.coeffs
    n = max(len(num), len(den))
    rows = np.zeros((2, n))
    rows[0, :len(den)] = den
    rows[1, :len(num)] = num
    with np.errstate(all="ignore"):
        denv, numv = _values(rows, _basis(_points(freqs, tf.dt), n))
        hit = np.abs(denv) < POLE_HIT_TOL
        h = numv / np.where(hit, 1.0, denv)
        redo = ~(hit | np.isfinite(h))
        if tf.dt is None and redo.any():
            w = (-0.5j / math.pi) / freqs[redo]
            denw, numw = _values(np.ascontiguousarray(rows[:, ::-1]), _basis(w, n))
            again = numw / denw
            h[redo] = np.where(np.isfinite(again), again, h[redo])
    return h, hit


def _mag_db(h: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """20*log10|h|, with +inf at pole hits."""
    with np.errstate(divide="ignore"):
        return np.where(hit, np.inf, 20.0 * np.log10(np.abs(h)))


def _response_arrays(tf: TransferFunction, freqs: np.ndarray):
    h, hit = complex_response(tf, freqs)
    phase = np.degrees(np.angle(h))
    return _mag_db(h, hit), np.where(phase <= -180.0, phase + 360.0, phase), hit


def freq_response(tf: TransferFunction, grid: FrequencyGrid) -> list[ResponsePoint]:
    """Sample magnitude (dB) and wrapped phase (deg) over the grid.

    A grid point that lands on a pole is flagged rather than raising, so a
    single bad point does not abort a sweep.
    """
    freqs = grid.as_array()
    mag_db, phase, hit = _response_arrays(tf, freqs)
    return [
        ResponsePoint(float(f), float(m), float(p), bool(flag))
        for f, m, p, flag in zip(freqs, mag_db, phase, hit)
    ]


def magnitude_error_curve(
    analog: TransferFunction, discrete: TransferFunction, grid: FrequencyGrid
) -> list[tuple[float, float]]:
    """Pointwise (frequency, analog_db - discrete_db).  Positive error means
    the discretized controller under-responds.  Pole-hit points are dropped.
    An error that is not finite (a magnitude that overflowed, or two that
    underflowed to -inf dB) raises DomainError naming its frequency."""
    if analog.is_discrete:
        raise DomainError("first argument must be the continuous reference")
    if not discrete.is_discrete:
        raise DomainError("second argument must be a discrete system")
    freqs = grid.as_array()
    h_a, hit_a = complex_response(analog, freqs)
    h_d, hit_d = complex_response(discrete, freqs)
    keep = ~(hit_a | hit_d)
    freqs = freqs[keep]
    with np.errstate(invalid="ignore"):  # -inf minus -inf is nan, raised below
        errors = _mag_db(h_a, hit_a)[keep] - _mag_db(h_d, hit_d)[keep]
    bad = np.flatnonzero(~np.isfinite(errors))
    if bad.size:
        raise DomainError(f"magnitude error is not finite at {float(freqs[bad[0]])!r} Hz")
    return list(zip(freqs.tolist(), errors.tolist()))


def rmse(errors) -> float:
    """Root mean square of a sequence of error values.

    Accepts plain floats or (frequency, error) pairs as produced by
    magnitude_error_curve.
    """
    vals = [e[1] if isinstance(e, (tuple, list)) else float(e) for e in errors]
    if not vals:
        raise EmptyInput("rmse of an empty error sequence")
    arr = np.asarray(vals, dtype=float)
    return float(np.sqrt(np.mean(arr * arr)))


@dataclass(frozen=True)
class SourcePoles:
    """Upper-half-plane continuous poles the discretizations start from."""

    original: complex
    prewarped: complex


def source_poles(p: QrParams, T: float) -> SourcePoles:
    """The upper plant pole and its sibling with the resonance scaled by prewarp_factor."""
    original = upper_pole(p)
    if original.imag == 0:
        raise DomainError("resonant poles are not complex: omega_c >= omega_n")
    # prewarp_factor > 1, so the pre-warped radicand is no smaller: its pole is complex too
    return SourcePoles(original=original, prewarped=upper_pole(p, prewarp_factor(p.omega_n, T)))


@dataclass(frozen=True)
class PoleMapRecord:
    """Where the upper resonant pole lands for one method."""

    label: str
    mapped_z: complex
    equivalent_s: complex


def pole_map_table(
    p: QrParams,
    T: float,
    methods: list[Method] | None = None,
    consistency_tol: float = 1e-9,
) -> list[PoleMapRecord]:
    """Pole landing table, reference row first.

    Row one maps the original pole through exp(s*T).  Every other row
    resolves its method to (alpha, beta_c, beta_n), scales the plant's
    resonance by beta_n/beta_c, maps that pole through the bilinear map
    (alpha, beta_c), and cross-checks the image against the roots of the
    discretized biquad denominator.  Disagreement beyond
    ``consistency_tol`` means the closed-form coefficient column and the
    map disagree, and raises CrossCheckError.
    """
    if methods is None:
        methods = [
            Sbt(sbt_params_straightforward(p, T)) if tag is Sbt else tag()
            for tag in METHODS.values()
        ]
    exact_z = exact_z_from_s(upper_pole(p), T)
    records = [
        PoleMapRecord("exact", exact_z, equivalent_s_from_z(exact_z, T))
    ]
    for m in methods:
        alpha, beta_c, beta_n = time_factors(m, p.omega_n, T)
        mapped = z_from_s(upper_pole(p, beta_n / beta_c), SbtParams(alpha, beta_c), T)
        den = qr_discretize(p, m, T)
        root_hi, _ = quadratic_roots(Polynomial([den.b0, den.b1, den.b2]))
        if not (abs(mapped - root_hi) <= consistency_tol):  # a nan on either route fails
            raise CrossCheckError(
                f"{method_label(m)}: analytic pole image {mapped!r} and biquad "
                f"denominator root {root_hi!r} disagree beyond {consistency_tol:g}"
            )
        records.append(
            PoleMapRecord(method_label(m), mapped, equivalent_s_from_z(mapped, T))
        )
    return records
