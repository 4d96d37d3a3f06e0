"""Time-domain execution: difference equations, steady-state sine
measurements, spectral distortion, and the grid-tied inverter loop.

Both runners simulate every sample.  A linear system whose powers are
shown to decay runs as a block state-space recursion in numpy; any other
system (every one with spectral radius at least one), and any run whose
block output or final state leaves OVERFLOW_GUARD, runs the per-step
loop from sample 0, which raises the overflow error at the exact step.

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
# samples per block of the block state-space runner
BLOCK = 256
# most samples one run may ask for (about 105 s at the 40 kHz control rate)
MAX_SAMPLES = 2**22
# longest bridge delay line; the loop's state matrix grows as its square
MAX_DELAY_SAMPLES = 256


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


def _decays(A) -> bool:
    """Whether some power A^(2^j), j <= 20, has every absolute row sum at
    most 1/2, which proves the spectral radius of A below one.  No A with
    radius >= 1 or a non-finite entry passes, nor a stable A too slow to
    halve within 2^20 steps."""
    power = A
    for _ in range(21):
        if np.abs(power).sum(axis=1).max() <= 0.5:
            return True
        power = power @ power
    return False


def _block_lti(A, B, C, D, inputs):
    """Response of s[n+1] = A s[n] + B u[n], y[n] = C s[n] + D u[n] from
    s[0] = 0 to the input rows u, BLOCK samples at a time.

    Inside a block of k samples that starts in state s0, the outputs are
    C A^j s0 plus each input convolved with the first k Markov parameters
    D, CB, CAB, ...; the state after the block is A^k s0 plus the inputs
    weighted by A^(k-1-j) B (Burrus, "Block realization of digital
    filters", 1972).  Returns the output rows, or None when the per-step
    loop must run instead: A is not shown to decay (spectral radius >= 1),
    or an output or the state after the last sample is not finite and
    below OVERFLOW_GUARD.
    """
    ns, m = B.shape
    p = C.shape[0]
    total = len(inputs[0])
    with np.errstate(all="ignore"):
        if not _decays(A):
            return None
        K = min(BLOCK, total)
        powers = np.empty((K + 1, ns, ns))  # A^0 .. A^K
        powers[0] = np.eye(ns)
        for k in range(K):
            powers[k + 1] = powers[k] @ A
        state_out = np.einsum("os,kst->okt", C, powers[:K])  # [o, j] = row o of C A^j
        markov = np.empty((p, m, K))
        markov[:, :, 0] = D
        markov[:, :, 1:] = np.einsum("okt,ti->oik", state_out[:, : K - 1], B)
        weights = np.einsum("kst,ti->isk", powers[K - 1 :: -1], B)  # [i, :, j] = A^(K-1-j) B
        # one array per output row, as the per-step loops allocate them:
        # malloc reuses freed arrays of that size, so peak memory stays put
        y = [np.empty(total) for _ in range(p)]
        s = np.zeros(ns)
        for n0 in range(0, total, K):
            k = min(K, total - n0)
            u = [row[n0 : n0 + k] for row in inputs]
            for o in range(p):
                out = state_out[o, :k] @ s
                for i in range(m):
                    out += np.convolve(u[i], markov[o, i, :k])[:k]
                if not np.abs(out).max() < OVERFLOW_GUARD:
                    return None
                y[o][n0 : n0 + k] = out
            s = powers[k] @ s
            for i in range(m):
                s += weights[i, :, K - k :] @ u[i]
        if not np.abs(s).max() < OVERFLOW_GUARD:
            return None
    return y


def _legs_system(legs):
    """Parallel legs fed by one input as (A, B, C, D), with the state
    [x1, x2, y1, y2 of each leg] and the summed leg outputs as output."""
    ns = 2 + 2 * len(legs)
    nxt = np.zeros((ns, ns + 1))  # rows over [state, input]
    out = np.zeros(ns + 1)
    nxt[0, ns] = 1.0  # x1 <- x
    nxt[1, 0] = 1.0  # x2 <- x1
    for j, c in enumerate(legs):
        y1 = 2 + 2 * j
        leg = np.zeros(ns + 1)
        leg[[ns, 0, 1, y1, y1 + 1]] = c.kin0, c.kin1, c.kin2, c.kout1, c.kout2
        nxt[y1] = leg
        nxt[y1 + 1, y1] = 1.0  # y2 <- y1
        out += leg
    return nxt[:, :ns], nxt[:, ns:], out[None, :ns], out[None, ns:]


def _run_steps(legs, x: np.ndarray) -> np.ndarray:
    """Per-step route of run_difference_equation."""
    runners = [DiffEqRunner(c) for c in legs]
    out = np.empty(x.size)
    for n, v in enumerate(x):
        y = 0.0
        for r in runners:
            y += r.step(v)
        if not abs(y) < OVERFLOW_GUARD:
            raise NumericOverflow(f"output {float(y)!r} at sample {n} exceeds guard {OVERFLOW_GUARD:g}")
        out[n] = y
    return out


def run_difference_equation(coeffs, samples) -> np.ndarray:
    """Run one leg (or the sum of several parallel legs) over an input array."""
    legs = _as_legs(coeffs)
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptyInput("no input samples")
    run = _block_lti(*_legs_system(legs), [x])
    return _run_steps(legs, x) if run is None else run[0]


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
    if not math.isfinite(amp):
        raise ParamError(f"amp must be finite, got {amp!r}")
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
    if total > MAX_SAMPLES:
        raise ParamError(f"the sine test asks for {total} samples, above MAX_SAMPLES = {MAX_SAMPLES}")

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
    p = round(periods)
    # bin h*p of the spectrum is harmonic h; 2/N scales it to an amplitude
    c = np.abs(np.fft.rfft(x)) * (2.0 / x.size)
    fund = c[p]
    if fund < 1e-300:
        raise DomainError("fundamental component is zero, distortion undefined")
    h = np.arange(2, max_harmonic + 1)
    bins = h[2 * h * p < x.size] * p  # harmonics below Nyquist
    return 100.0 * math.sqrt(float(np.sum(c[bins] ** 2))) / fund


@dataclass(frozen=True)
class InverterConfig:
    """Grid-tied inverter scenario constants."""

    l_filter: float = 245e-6
    fs_ctrl: float = 40000.0
    grid_freq: float = 50.0
    grid_vrms: float = 220.0
    harmonic_freq: float = 950.0
    harmonic_amp: float = 100.0
    i_ref_amplitude: float = 30.0
    delay_samples: int = 1
    duration: float = 1.0

    def __post_init__(self):
        values = [getattr(self, f.name) for f in fields(self)]
        if not all(math.isfinite(v) for v in values):
            raise ParamError("inverter constants must be finite")
        if self.duration * self.fs_ctrl > MAX_SAMPLES:
            raise ParamError(
                f"duration*fs_ctrl asks for {self.duration * self.fs_ctrl:.0f} steps, "
                f"above MAX_SAMPLES = {MAX_SAMPLES}"
            )
        if self.l_filter <= 0 or self.fs_ctrl <= 0 or self.grid_freq <= 0:
            raise ParamError("l_filter, fs_ctrl and grid_freq must be positive")
        if self.duration * self.grid_freq < 20:
            raise ParamError("duration must cover at least 20 grid cycles")
        d = self.delay_samples
        if not (0 <= d <= MAX_DELAY_SAMPLES and d == int(d)):
            raise ParamError(f"delay_samples={d!r} is not an integer in [0, {MAX_DELAY_SAMPLES}]")
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


def _closed_loop_system(legs, delay: int, coef: float):
    """The current loop as (A, B, C, D) with inputs [i_ref, v_grid],
    outputs [i_grid, v_inv] and the state [legs, delay line oldest first,
    inductor current]."""
    la, lb, lc, ld = _legs_system(legs)
    nl = len(la)
    ns = nl + delay + 1
    il = ns - 1
    ref, grid = ns, ns + 1  # input columns of the rows over [state, inputs]
    unit = np.eye(ns + 2)
    err = unit[ref] - unit[il]
    cmd = unit[grid] + ld[0, 0] * err
    cmd[:nl] += lc[0]
    vb = unit[nl] if delay else cmd
    nxt = np.zeros((ns, ns + 2))
    nxt[:nl, :nl] = la
    nxt[:nl] += np.outer(lb[:, 0], err)
    if delay:  # the line moves up one place and takes the new command last
        nxt[nl : il - 1, nl + 1 : il] = np.eye(delay - 1)
        nxt[il - 1] = cmd
    nxt[il] = unit[il] + coef * (vb - unit[grid])
    out = np.stack([unit[il], vb])
    return nxt[:, :ns], nxt[:, ns:], out[:, :ns], out[:, ns:]


def _closed_loop_steps(legs, delay: int, coef: float, i_ref: np.ndarray, v_grid: np.ndarray):
    """Per-step route of inverter_closed_loop: the (i_grid, v_inv) rows."""
    runners = [DiffEqRunner(c) for c in legs]
    steps = len(i_ref)
    i_grid = np.empty(steps)
    v_inv = np.empty(steps)
    line = [0.0] * delay
    i_l = 0.0
    for n in range(steps):
        err = i_ref[n] - i_l
        u = 0.0
        for leg in runners:
            u += leg.step(err)
        cmd = u + v_grid[n]
        if line:
            line.append(cmd)
            vb = line.pop(0)
        else:
            vb = cmd
        i_grid[n] = i_l
        v_inv[n] = vb
        i_l += coef * (vb - v_grid[n])
        if not abs(i_l) < OVERFLOW_GUARD:
            raise NumericOverflow(
                f"inductor current {float(i_l)!r} at step {n} exceeds guard; "
                "the discretized controller is likely unstable"
            )
    return i_grid, v_inv


def inverter_closed_loop(cfg: InverterConfig, controller) -> SimTrace:
    """Run the average-model current loop and record every sample.

    ``controller`` is one DiffEqCoeffs or a sequence of parallel legs; the
    legs all see the current error and their outputs are summed.  The
    commanded voltage (controller output plus measured grid voltage
    feedforward) reaches the bridge delay_samples later.
    """
    legs = _as_legs(controller)
    T = 1.0 / cfg.fs_ctrl
    steps = round(cfg.duration * cfg.fs_ctrl)
    w1 = 2.0 * math.pi * cfg.grid_freq
    wh = 2.0 * math.pi * cfg.harmonic_freq
    a1 = math.sqrt(2.0) * cfg.grid_vrms

    t = np.arange(steps) * T
    v_grid = a1 * np.sin(w1 * t) + cfg.harmonic_amp * np.sin(wh * t)
    i_ref = cfg.i_ref_amplitude * np.sin(w1 * t)

    delay, coef = int(cfg.delay_samples), T / cfg.l_filter
    run = _block_lti(*_closed_loop_system(legs, delay, coef), [i_ref, v_grid])
    i_grid, v_inv = _closed_loop_steps(legs, delay, coef, i_ref, v_grid) if run is None else run
    return SimTrace(t=t, i_grid=i_grid, v_grid=v_grid, v_inv=v_inv)


def trace_thd(trace: SimTrace, cfg: InverterConfig, periods: int = 10) -> float:
    """Distortion of the trailing ``periods`` grid periods of the trace."""
    if periods < 1:
        raise ParamError(f"periods must be at least 1, got {periods!r}")
    per_samples = cfg.fs_ctrl / cfg.grid_freq
    n = round(periods * per_samples)
    if abs(periods * per_samples - n) > 1e-9:
        raise WindowError("fs_ctrl/grid_freq does not give whole samples per period")
    if n > len(trace.i_grid):
        raise WindowError("trace shorter than the requested measurement window")
    return thd(trace.i_grid[-n:], cfg.grid_freq, cfg.fs_ctrl)


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
