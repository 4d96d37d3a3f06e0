"""Time-domain execution: difference equations, steady-state sine
measurements, spectral distortion, and the grid-tied inverter loop.

The inverter model is the average model of an L-filtered bridge: the
controller runs at the control rate, its output voltage command is
applied after an integer sample delay together with a grid-voltage
feedforward, and the inductor current is integrated by forward Euler at
the same rate.  The grid is a stiff source carrying the fundamental plus
one injected harmonic.  The current reference is an ideally phase-locked
fundamental sine.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .controllers import DiffEqCoeffs
from .errors import (
    DomainError,
    EmptyInput,
    NotSettled,
    NumericOverflow,
    ParamError,
    WindowError,
)

__all__ = [
    "DiffEqRunner",
    "run_difference_equation",
    "SineTestResult",
    "sine_steady_state",
    "thd",
    "InverterConfig",
    "SimTrace",
    "inverter_closed_loop",
    "trace_thd",
    "write_trace_csv",
]

OVERFLOW_GUARD = 1e12


class DiffEqRunner:
    """Stateful second-order recursion
    y[n] = kin0*x[n] + kin1*x[n-1] + kin2*x[n-2] + kout1*y[n-1] + kout2*y[n-2].
    """

    def __init__(self, coeffs: DiffEqCoeffs):
        self.c = coeffs
        self.x1 = 0.0
        self.x2 = 0.0
        self.y1 = 0.0
        self.y2 = 0.0

    def step(self, x: float) -> float:
        c = self.c
        y = c.kin0 * x + c.kin1 * self.x1 + c.kin2 * self.x2 + c.kout1 * self.y1 + c.kout2 * self.y2
        self.x2 = self.x1
        self.x1 = x
        self.y2 = self.y1
        self.y1 = y
        return y


def _as_legs(coeffs) -> list[DiffEqCoeffs]:
    if isinstance(coeffs, DiffEqCoeffs):
        return [coeffs]
    legs = list(coeffs)
    if not legs:
        raise EmptyInput("controller needs at least one difference-equation leg")
    return legs


def run_difference_equation(coeffs, samples, guard: float = OVERFLOW_GUARD) -> np.ndarray:
    """Run one leg (or the sum of several parallel legs) over an input array."""
    runners = [DiffEqRunner(c) for c in _as_legs(coeffs)]
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptyInput("no input samples")
    out = np.empty(x.size)
    for n, v in enumerate(x):
        y = 0.0
        for r in runners:
            y += r.step(v)
        if not abs(y) < guard:
            raise NumericOverflow(f"output {float(y)!r} at sample {n} exceeds guard {guard:g}")
        out[n] = y
    return out


@dataclass(frozen=True)
class SineTestResult:
    """Steady-state response to one sine: fundamental amplitude, phase lag
    in degrees, and the ratio of non-fundamental to fundamental RMS."""

    amplitude: float
    phase_deg: float
    residual: float


def _cycle_fraction(f: float, fs: float) -> Fraction:
    # rational cycles-per-sample; exact for ratios that are exact in binary
    return Fraction(f / fs).limit_denominator(4096)


def sine_steady_state(
    coeffs,
    f: float,
    fs: float,
    amp: float = 1.0,
    settle_cycles: int = 300,
    measure_cycles: int = 50,
) -> SineTestResult:
    """Drive the difference equation with amp*sin(2*pi*f*t) and project the
    settled output onto the drive frequency.

    The measurement window is stretched to the nearest whole number of
    samples AND cycles so the single-bin projection has no leakage.  Two
    consecutive windows are compared; disagreement above 0.1 percent raises
    NotSettled, which usually means settle_cycles is too small for the
    controller's decay time.
    """
    if not 0.0 < f < 0.5 * fs:
        raise DomainError(f"need 0 < f < fs/2, got f={f!r}, fs={fs!r}")
    if settle_cycles < 0 or measure_cycles < 1:
        raise ParamError("settle_cycles must be >= 0 and measure_cycles >= 1")
    frac = _cycle_fraction(f, fs)
    if frac == 0:
        raise ParamError(f"f={f!r} is too low for fs={fs!r}: f/fs rounds to 0 at denominator 4096")
    cycles_per_chunk, samples_per_chunk = frac.numerator, frac.denominator
    chunks = max(1, math.ceil(measure_cycles / cycles_per_chunk))
    window = chunks * samples_per_chunk
    settle = math.ceil(settle_cycles * fs / f)
    total = settle + 2 * window

    n = np.arange(total)
    x = amp * np.sin(2.0 * math.pi * f * n / fs)
    y = run_difference_equation(coeffs, x)

    def project(sig: np.ndarray, idx: np.ndarray) -> complex:
        ph = np.exp(-2j * math.pi * f * idx / fs)
        return complex(2.0 / idx.size * np.dot(sig, ph))

    i1 = n[settle : settle + window]
    i2 = n[settle + window :]
    c1 = project(y[settle : settle + window], i1)
    c2 = project(y[settle + window :], i2)
    a1, a2 = abs(c1), abs(c2)
    if abs(a2 - a1) > 1e-3 * max(a2, 1e-30):
        raise NotSettled(
            f"window amplitudes {a1!r} and {a2!r} differ by more than 0.1%; "
            "increase settle_cycles"
        )
    cx = project(x[settle + window :], i2)
    if a2 < 1e-300 or abs(cx) < 1e-300:
        # no fundamental in drive or response: phase is undefined, report 0
        phase = 0.0
    else:
        phase = math.degrees(math.atan2((c2 / cx).imag, (c2 / cx).real))
    tail = y[settle + window :]
    total_ms = float(np.mean(tail * tail))
    fund_ms = 0.5 * a2 * a2
    residual = math.sqrt(max(total_ms - fund_ms, 0.0)) / math.sqrt(max(fund_ms, 1e-300))
    return SineTestResult(amplitude=a2, phase_deg=phase, residual=residual)


def thd(samples, f0: float, fs: float, max_harmonic: int = 50) -> float:
    """Total harmonic distortion in percent of the fundamental.

    The window must span a whole number of fundamental periods (at least
    ten) so each harmonic lands on an exact projection bin.  Harmonics at
    or beyond Nyquist are not representable and are skipped.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptyInput("no samples")
    if not 0.0 < f0 < 0.5 * fs:
        raise DomainError(f"need 0 < f0 < fs/2, got f0={f0!r}")
    if max_harmonic < 2:
        raise ParamError("max_harmonic must be at least 2")
    periods = x.size * f0 / fs
    if abs(periods - round(periods)) > 1e-6 * max(periods, 1.0):
        raise WindowError(f"window spans {periods!r} periods, not an integer count")
    if round(periods) < 10:
        raise WindowError(f"window spans only {round(periods)} periods, need >= 10")
    n = np.arange(x.size)
    base = -2j * math.pi * f0 * n / fs
    fund = abs(complex(2.0 / x.size * np.dot(x, np.exp(base))))
    if fund < 1e-300:
        raise DomainError("fundamental component is zero, distortion undefined")
    acc = 0.0
    for h in range(2, max_harmonic + 1):
        if h * f0 >= 0.5 * fs:
            break
        c = complex(2.0 / x.size * np.dot(x, np.exp(h * base)))
        acc += abs(c) ** 2
    return 100.0 * math.sqrt(acc) / fund


@dataclass(frozen=True)
class InverterConfig:
    """Grid-tied inverter scenario constants.

    c_filter participates only when include_cap_branch is set, in which
    case the analytic capacitor current of the stiff grid voltage is
    subtracted from the measured (and regulated) grid current.
    """

    l_filter: float = 245e-6
    c_filter: float = 22e-6
    fs_ctrl: float = 40000.0
    grid_freq: float = 50.0
    grid_vrms: float = 220.0
    harmonic_freq: float = 950.0
    harmonic_amp: float = 100.0
    i_ref_amplitude: float = 30.0
    delay_samples: int = 1
    duration: float = 1.0
    i_initial: float = 0.0
    include_cap_branch: bool = False

    def __post_init__(self):
        values = [getattr(self, f.name) for f in fields(self)]
        if not all(math.isfinite(v) for v in values):
            raise ParamError("inverter constants must be finite")
        if self.l_filter <= 0 or self.fs_ctrl <= 0 or self.grid_freq <= 0:
            raise ParamError("l_filter, fs_ctrl and grid_freq must be positive")
        if self.duration * self.grid_freq < 20:
            raise ParamError("duration must cover at least 20 grid cycles")
        if self.delay_samples < 0 or self.delay_samples != int(self.delay_samples):
            raise ParamError("delay_samples must be a non-negative integer")
        if not 0 <= self.harmonic_freq < 0.5 * self.fs_ctrl:
            raise ParamError("harmonic_freq must sit below Nyquist")
        if self.harmonic_amp < 0 or self.grid_vrms < 0:
            raise ParamError("voltage amplitudes must be non-negative")


@dataclass(frozen=True)
class SimTrace:
    """Synchronous sample record of one closed-loop run."""

    t: np.ndarray
    i_grid: np.ndarray
    v_grid: np.ndarray
    v_inv: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.i_grid) == len(self.v_grid) == len(self.v_inv) == n):
            raise ParamError("trace arrays must share one length")


def inverter_closed_loop(cfg: InverterConfig, controller) -> SimTrace:
    """Run the average-model current loop and record every sample.

    ``controller`` is one DiffEqCoeffs or a sequence of parallel legs; the
    legs all see the current error and their outputs are summed.  The
    commanded voltage (controller output plus measured grid voltage
    feedforward) reaches the bridge delay_samples later.
    """
    legs = [DiffEqRunner(c) for c in _as_legs(controller)]
    T = 1.0 / cfg.fs_ctrl
    steps = round(cfg.duration * cfg.fs_ctrl)
    w1 = 2.0 * math.pi * cfg.grid_freq
    wh = 2.0 * math.pi * cfg.harmonic_freq
    a1 = math.sqrt(2.0) * cfg.grid_vrms
    ah = cfg.harmonic_amp
    cap = cfg.c_filter if cfg.include_cap_branch else 0.0

    t = np.arange(steps) * T
    v_grid = a1 * np.sin(w1 * t) + ah * np.sin(wh * t)
    i_ref = cfg.i_ref_amplitude * np.sin(w1 * t)
    # analytic capacitor current of the stiff grid voltage (zero when disabled)
    i_cap = cap * (a1 * w1 * np.cos(w1 * t) + ah * wh * np.cos(wh * t))

    i_grid = np.empty(steps)
    v_inv = np.empty(steps)
    delay = [0.0] * cfg.delay_samples
    i_l = cfg.i_initial
    coef = T / cfg.l_filter
    for n in range(steps):
        meas = i_l - i_cap[n]
        err = i_ref[n] - meas
        u = 0.0
        for leg in legs:
            u += leg.step(err)
        cmd = u + v_grid[n]
        if delay:
            delay.append(cmd)
            vb = delay.pop(0)
        else:
            vb = cmd
        i_grid[n] = meas
        v_inv[n] = vb
        i_l += coef * (vb - v_grid[n])
        if not abs(i_l) < OVERFLOW_GUARD:
            raise NumericOverflow(
                f"inductor current {float(i_l)!r} at step {n} exceeds guard; "
                "the discretized controller is likely unstable"
            )
    return SimTrace(t=t, i_grid=i_grid, v_grid=v_grid, v_inv=v_inv)


def trace_thd(trace: SimTrace, cfg: InverterConfig, periods: int = 10, max_harmonic: int = 50) -> float:
    """Distortion of the trailing ``periods`` grid periods of the trace."""
    per_samples = cfg.fs_ctrl / cfg.grid_freq
    n = round(periods * per_samples)
    if abs(periods * per_samples - n) > 1e-9:
        raise WindowError("fs_ctrl/grid_freq does not give whole samples per period")
    if n > len(trace.i_grid):
        raise WindowError("trace shorter than the requested measurement window")
    return thd(trace.i_grid[-n:], cfg.grid_freq, cfg.fs_ctrl, max_harmonic=max_harmonic)


def csv_text(keys, rows) -> str:
    """CSV text: a header line of keys, then one line per row of cells.

    Strings are written as they are, None as an empty cell and numbers at
    17 significant digits, so the values read back exactly.
    """
    lines = [",".join(keys)]
    lines += [
        ",".join(v if isinstance(v, str) else "" if v is None else format(v, ".17g") for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Replace the file at path by text in one step: write a temporary
    sibling, then rename it over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """Write t,i_grid,v_grid,v_inv rows at full precision, atomically."""
    rows = zip(trace.t, trace.i_grid, trace.v_grid, trace.v_inv)
    write_atomic(path, csv_text(("t", "i_grid", "v_grid", "v_inv"), rows))
