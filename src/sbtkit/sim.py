"""Time-domain execution: difference equations, steady-state sine
measurements, spectral distortion, and the grid-tied inverter loop.

Both runners simulate every sample of a linear system with one output
row.  A system whose powers are shown to decay runs as a block
state-space recursion in numpy: matrix products over all blocks of BLOCK
samples at once, a scan of about log2(blocks) levels for the block-edge
states where it costs less than one step per block, and the outputs as
one product per block row [state before the block | the block of every
input], so each output sample is one sum of products.  The rows are an
even count of whole blocks, zero-filled past the last sample.  The
matrices that depend on the system alone are built once per system, so a
repeated controller only steps its inputs.  Any other
system (every one with spectral radius at least one), and any run where a
block-edge state or any computed output leaves OVERFLOW_GUARD, runs the
per-step loop from sample 0, which raises the overflow error at the exact
step.

The inverter model is the average model of an L-filtered bridge: the
controller runs at the control rate, its output voltage command is
applied after an integer sample delay together with a grid-voltage
feedforward, and the inductor current is integrated by forward Euler at
the same rate.  The grid is a stiff source carrying the fundamental plus
one injected harmonic.  The current reference is an ideally phase-locked
fundamental sine.
"""

from __future__ import annotations

import functools
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
from .lti import _check_positive

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
# samples per block of the block state-space runner: each block's outputs
# are its row [edge state | input blocks] times a (states + inputs*BLOCK,
# BLOCK) matrix, and the block edges a scan of ceil(log2(total/BLOCK))
# levels or a loop of total/BLOCK steps
BLOCK = 32
# block rows per output product, rounded up to even: the rows are copied into
# a buffer of this size, so no product makes a temporary of the run's length
OUTPUT_ROWS = 256
# most samples one run may ask for (about 105 s at the 40 kHz control rate)
MAX_SAMPLES = 2**22
# longest bridge delay line; the loop's state matrix grows as its square
MAX_DELAY_SAMPLES = 256
# whether np.longdouble is the x87 80-bit format, the one the block-edge scan
# was checked and timed on: the scan squares its step in long double, since
# squarings in double compound their rounding (1e-9 of the peak apart from the
# per-step loop on a lightly damped 50 Hz leg at 40 kHz, where the edge loop
# is 1e-11 apart); elsewhere the edges stay a loop
X87_LONG_DOUBLE = np.finfo(np.longdouble).nmant == 63


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


def _signal(samples, what: str) -> np.ndarray:
    """samples as one row of floats; a scalar or a 2-D array is a ParamError."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptyInput(f"no {what}")
    if x.ndim != 1:
        raise ParamError(f"{what} must be one row, got shape {x.shape}")
    return x


def _decays(A) -> bool:
    """Whether some power A^(2^j), j <= 20, has every absolute row sum at
    most 1/2, which proves the spectral radius of A below one.  No A with
    radius >= 1 or a non-finite entry passes, nor a stable A too slow to
    halve within 2^20 steps.  The block runner passes A^K, whose radius is
    below one iff that of A is; the slowest decay it accepts then halves
    within A^(K*2^20).  The proof runs once per system: _block_matrices
    keeps its outcome with the matrices, None for a system it fails."""
    power = A
    for _ in range(21):
        if np.abs(power).sum(axis=1).max() <= 0.5:
            return True
        power = np.dot(power, power)
    return False


def _within_guard(a) -> bool:
    """Whether every entry of a is finite and below OVERFLOW_GUARD in size."""
    return bool(-OVERFLOW_GUARD < a.min() and a.max() < OVERFLOW_GUARD)


def _scan_pays(ns: int, nb: int) -> bool:
    """Whether the block-edge scan of nb blocks and ns states costs less
    than the edge loop, by costs timed on x86-64 with one BLAS thread: each
    long-double squaring takes about 5.5 ns per ns^3, as it runs outside
    BLAS, and each level's product of all edges about 0.1 ns per block and
    ns^2; the loop takes about 2 us per block, taken as 1.5 for a margin."""
    levels = (nb - 1).bit_length()  # ceil(log2(nb))
    return X87_LONG_DOUBLE and 5.5 * (levels - 1) * ns**3 + 0.1 * levels * nb * ns**2 <= 1500.0 * nb


def _toeplitz_index(K: int) -> np.ndarray:
    """The (K, K) index K - 1 - j + k into the Markov parameters after K - 1
    zeros: entry [j, k] picks parameter k - j, a zero for k < j.  Built
    once per _block_matrices entry, whose cache holds the gathered result."""
    k = np.arange(K)
    return K - 1 - k[:, None] + k


# systems whose block matrices _block_matrices keeps: one command steps at
# most five (the board's four method legs, the inverter's five loops), so 8
# holds one command's and those of a frequency sweep of one design; an entry
# is 10-25 KB at the default sizes and about 1.3 MB, key included, at
# MAX_DELAY_SAMPLES, so the bound also caps what a run over many designs keeps
BLOCK_SYSTEMS = 8


@functools.lru_cache(maxsize=BLOCK_SYSTEMS)
def _block_matrices(system):
    """The per-system part of _block_lti, for system = the (shape, bytes)
    pairs of (A, B, C, D), so only the same bits hit an entry: None when
    _decays does not show A^K to decay, or else three read-only arrays,
    the weights [i, j] = A^(K-1-j) B_i of the inputs' drive on the state
    after a block, the fused (ns + m*K, K) output matrix [C A^j rows ; each
    input's Toeplitz] and A^K.  Every run of one controller shares them;
    the scan's squarings stay in the run, as they depend on its length."""
    A, B, C, D = (np.frombuffer(data).reshape(shape) for shape, data in system)
    ns, m = B.shape
    K = BLOCK
    with np.errstate(all="ignore"):
        powers = np.empty((K + 1, ns, ns))  # A^0 .. A^K
        powers[0] = np.eye(ns)
        for k in range(K):
            np.dot(powers[k], A, out=powers[k + 1])
        if not _decays(powers[K]):
            return None
        state_out = (C @ powers[:K])[:, 0]  # [j] = C A^j
        weights = powers[K - 1 :: -1] @ B  # [j, :, i] = A^(K-1-j) B_i
        # the Markov parameters D, CB, CAB, ... after K - 1 zeros
        markov = np.zeros((m, 2 * K - 1))
        markov[:, K - 1] = D[0]
        markov[:, K:] = (state_out[: K - 1] @ B).T
        # [i, j, k] = Markov parameter k - j, 0 for k < j: a row of inputs times it is their convolution
        toeplitz = np.take(markov, _toeplitz_index(K), axis=1)
        # block row b is [edges[b] | block b of every input], and its outputs
        # are that row times [C A^j rows ; each input's Toeplitz], one sum per sample
        fused = np.concatenate((state_out.T, toeplitz.reshape(m * K, K)))
    power = powers[K].copy()  # A^K alone, not all K + 1 powers
    for a in (weights, fused, power):
        a.flags.writeable = False
    return weights.transpose(2, 0, 1), fused, power


def _block_lti(A, B, C, D, inputs):
    """Response of s[n+1] = A s[n] + B u[n], y[n] = C s[n] + D u[n] from
    s[0] = 0 to the input rows u, in blocks of K = BLOCK samples.  The
    system has one output: C is (1, ns) and D is (1, inputs).

    Inside a block that starts in state s0, the output is C A^j s0 plus
    each input convolved with the Markov parameters D, CB, CAB, ...; the
    state after the block is A^K s0 plus the inputs weighted by
    A^(K-1-j) B (Burrus, "Block realization of digital filters", 1972).
    With each input's whole blocks as the rows of an (nb, K) view, every
    block's input drive on the state is one product with the A^(K-1-j) B
    rows.  The edge-state recursion s <- A^K s + drive is an
    inclusive (Hillis-Steele) scan: at shift = 1, 2, 4, ... below the
    block count, every edge adds the edge shift blocks before it times
    A^(K*shift), whose square is the next level's step, so the loop runs
    ceil(log2(blocks)) times (11 for a 40,000-step inverter run).  The
    squarings run in long double, so the scan runs only where that is the
    x87 format and _scan_pays finds it cheaper; elsewhere the recursion is
    a loop, one step per block.  Then each block's K outputs are one
    product of its row [state before the block | that block of every
    input] with [the C A^j rows ; each input's K x K lower-triangular
    Toeplitz matrix of the Markov parameters], so each output sample is
    one sum of ns + m*K products.  The run is stepped as an even number
    of block rows, ceil(samples / 2K) * 2: rows past the last sample take
    zero inputs, rows past the last whole block a zero edge, and their
    outputs are computed and dropped.  The rows go through a buffer of
    OUTPUT_ROWS rows, rounded up to even, so every product has an even
    row count: OpenBLAS's Haswell kernel rounds a lone remainder row, and
    numpy sends a one-row product to gemv, in another order, so with even
    counts every output rounds alike whatever the buffer size.  The small
    2-D products (the powers of A, _decays' squarings, each scan level) go
    through np.dot, the same BLAS call as @ without matmul's
    per-call dispatch; the batched 3-D ones and the output rows keep @.  The sums round
    in another order than the per-step loop: on the runs the tests check,
    scan and edge loop alike, outputs agree with it within 1e-12 of the
    signal peak (the README gives a longer run where both drift further).

    The system's part (the powers of A, the _decays proof, the drive
    weights, the fused output matrix and A^K) is _block_matrices', built
    once per system and cached by its exact bits, so a repeated controller
    only steps its inputs, with the bits a cold run gives.

    Returns [y], the one output row, or None when the per-step loop must
    run instead: A^K, the power the products need anyway, is not shown to
    decay (spectral radius >= 1, or no halving within A^(K*2^20)), or a
    block-edge state or any computed output, dropped ones included, is not
    finite and below OVERFLOW_GUARD.
    """
    matrices = _block_matrices(tuple((a.shape, a.tobytes()) for a in (A, B, C, D)))
    if matrices is None:
        return None
    weights, fused, power = matrices  # power = A^K
    ns, m = B.shape
    total = len(inputs[0])
    K = BLOCK
    nb = total // K  # whole blocks
    nr = -(-total // (2 * K)) * 2  # block rows, even
    with np.errstate(all="ignore"):
        # the state before each block row; rows past the last whole block keep a zero edge
        edges = np.zeros((nr + 1, ns))
        after = edges[1 : nb + 1]  # a view: the state after each whole block
        for row, w in zip(inputs, weights):
            after += row[: nb * K].reshape(nb, K) @ w  # every block's input drive on the state after it
        if _scan_pays(ns, nb):
            # inclusive scan of s <- A^K s + drive: after the level at shift, each
            # row holds the drives of the 2*shift blocks up to it, carried by A^K
            step, shift = power.T.astype(np.longdouble), 1
            while shift < nb:
                after[shift:] += np.dot(after[:-shift], step.astype(float))
                shift *= 2
                if shift < nb:
                    step = step @ step
        else:
            step, state = power.T, edges[0]
            for edge in after:  # the state moves from block edge to block edge
                edge += np.dot(state, step)
                state = edge
        if not _within_guard(edges):
            return None
        whole = np.empty((nr, K))  # every row's outputs; those past the last sample are dropped
        size = min(OUTPUT_ROWS, nr)
        rows = np.zeros((size + size % 2, ns + m * K))
        for b in range(0, nr, len(rows)):
            n = min(len(rows), nr - b)
            rows[:n, :ns] = edges[b : b + n]
            for i, row in enumerate(inputs):
                u = row[b * K : (b + n) * K]
                if u.size < n * K:  # the run's end: zeros fill the rows
                    u = np.concatenate((u, np.zeros(n * K - u.size)))
                rows[:n, ns + i * K : ns + (i + 1) * K] = u.reshape(n, K)
            np.matmul(rows[:n], fused, out=whole[b : b + n])
        if not _within_guard(whole):
            return None
    return [whole.reshape(-1)[:total]]


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


def _reject_non_finite(x: np.ndarray, what: str) -> None:
    """A ParamError naming the first sample of x that is not finite, if any."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ParamError(f"{what} {bad[0]} is {float(x[bad[0]])!r}, not finite")


def _run_steps(legs, x: np.ndarray) -> np.ndarray:
    """Per-step route of run_difference_equation.  An output that is not
    finite comes from an input that is not, if one came before it, and
    then that input is named, not an overflow.  The samples are stepped
    as Python floats, whose arithmetic gives the same bits as numpy's and
    no warning on an infinity."""
    runners = [DiffEqRunner(c) for c in legs]
    out = np.empty(x.size)
    for n, v in enumerate(x.tolist()):
        y = 0.0
        for r in runners:
            y += r.step(v)
        if not abs(y) < OVERFLOW_GUARD:
            if not math.isfinite(y):
                _reject_non_finite(x[: n + 1], "input sample")
            raise NumericOverflow(f"output {float(y)!r} at sample {n} exceeds guard {OVERFLOW_GUARD:g}")
        out[n] = y
    return out


def run_difference_equation(coeffs, samples) -> np.ndarray:
    """Run one leg (or the sum of several parallel legs) over an input array."""
    legs = _as_legs(coeffs)
    x = _signal(samples, "input samples")
    run = _block_lti(*_legs_system(legs), [x])
    return _run_steps(legs, x) if run is None else run[0]


@dataclass(frozen=True)
class SineTestResult:
    """Steady-state response to one sine: fundamental amplitude, phase lag
    in degrees, and the ratio of non-fundamental to fundamental RMS."""

    amplitude: float
    phase_deg: float
    residual: float


@functools.lru_cache(maxsize=1)
def _cycle_fraction(f: float, fs: float) -> Fraction:
    # rational cycles-per-sample; exact for ratios that are exact in binary.
    # Cached like _sine_drive: every method tested at one drive shares it
    return Fraction(f / fs).limit_denominator(4096)


def _sine_row(f: float, fs: float, amp: float, total: int) -> np.ndarray:
    """amp*sin(2*pi*f*n/fs) for the first ``total`` sample counts n, built in
    one buffer.  The counts are doubles, exact below 2**53, so the row is
    that of the formula on the integer counts, as in _time_row."""
    x = np.arange(float(total))
    x *= 2.0 * math.pi * f
    x /= fs
    np.sin(x, out=x)
    x *= amp
    return x


@functools.lru_cache(maxsize=1)
def _sine_drive(f: float, fs: float, amp: float, settle: int, window: int):
    """The drive rows of a sine test, read-only: the drive amp*sin(2*pi*f*n/fs)
    and the phasors exp(-2j*pi*f*n/fs) of its two measurement windows, two
    views of one row.  Every method tested at one drive shares them, and
    the next drive replaces them.  The second window's phasor projects both
    the response and the drive."""
    total = settle + 2 * window
    x = _sine_row(f, fs, amp, total)
    # the phasor row after the drive, then its own count row, and no
    # float-to-complex cast (whose ufunc buffer is one more allocation):
    # other orders made the board op fault in pages the heap had trimmed
    ph = np.empty(2 * window, dtype=complex)
    phase = np.arange(float(settle), float(total))
    phase *= -2.0 * math.pi * f
    # numpy divides a complex row by a real fs as a product with 1/fs
    phase *= 1.0 / fs
    ph.real = 0.0
    # + 0.0, as in the complex product, gives count 0 the phase +0.0
    np.add(phase, 0.0, out=ph.imag)
    np.exp(ph, out=ph)
    x.flags.writeable = False
    ph.flags.writeable = False
    return x, ph[:window], ph[window:]


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

    The result is scale-free: the settle test is relative to the second
    window's amplitude, and the phase is undefined (reported as 0) only
    where the response's or the drive's projection is exactly zero, so a
    drive of 2**k (k from -1000 to 20 on the reference board) gives the
    verdict and phase of a unit drive and 2**k times its amplitude.
    """
    if not 0.0 < f < 0.5 * fs:
        raise DomainError(f"need 0 < f < fs/2, got f={f!r}, fs={fs!r}")
    if not math.isfinite(amp):
        raise ParamError(f"amp must be finite, got {amp!r}")
    if not (0 <= settle_cycles < math.inf and 1 <= measure_cycles < math.inf):
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

    x, ph1, ph2 = _sine_drive(f, fs, amp, settle, window)
    y = run_difference_equation(coeffs, x)

    def project(sig: np.ndarray, ph: np.ndarray) -> complex:
        return complex(2.0 / ph.size * np.dot(sig, ph))

    c1 = project(y[settle : settle + window], ph1)
    c2 = project(y[settle + window :], ph2)
    a1, a2 = abs(c1), abs(c2)
    if abs(a2 - a1) > 1e-3 * a2:
        raise NotSettled(
            f"window amplitudes {a1!r} and {a2!r} differ by more than 0.1%; "
            "increase settle_cycles"
        )
    cx = project(x[settle + window :], ph2)
    if c2 == 0 or cx == 0:
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

    The spectrum is read only at the harmonic bins h*p of the N-point
    window that holds p periods, and those bins are all multiples of
    g = gcd(N, p).  Every g-th bin of an N-point DFT is the N/g-point DFT
    of the window's g equal parts summed (frequency sampling aliases in
    time), so the window is folded to one part of N/g samples and
    harmonic h is read at bin h*p/g of its rfft.  With g = 1 the fold is
    the window itself.

    The value is scale-free: a window whose folded part is not finite, or
    peaks outside [2**-256, 2**256], is read scaled by the power of two
    that brings its peak into [0.5, 1), so the window times 2**k reads the
    same for every k that keeps its samples finite and normal, with no
    numpy warning; any other window is read as it is.
    """
    x = _signal(samples, "samples")
    if not 0.0 < f0 < 0.5 * fs:
        raise DomainError(f"need 0 < f0 < fs/2, got f0={f0!r}")
    if not (max_harmonic >= 2 and float(max_harmonic).is_integer()):
        raise ParamError(f"max_harmonic must be a whole number of at least 2, got {max_harmonic!r}")
    periods = x.size * f0 / fs
    if abs(periods - round(periods)) > 1e-6 * max(periods, 1.0):
        raise WindowError(f"window spans {periods!r} periods, not an integer count")
    if round(periods) < 10:
        raise WindowError(f"window spans only {round(periods)} periods, need >= 10")
    p = round(periods)
    g = math.gcd(x.size, p)
    q, m = p // g, x.size // g  # periods and samples of one folded part
    with np.errstate(all="ignore"):  # mixed infinities, or a finite window that overflows
        part = x.reshape(g, m).sum(axis=0)
    # a part that is not finite, or too large or small for the squares below,
    # is folded again from the window scaled by the power of two that brings
    # its peak into [0.5, 1): exact, so every scale of one window reads the
    # same; any other window is read as it is (a nan or inf peak fails the test)
    if not 2.0**-256 <= np.abs(part).max() <= 2.0**256:
        _reject_non_finite(x, "sample")
        part = np.ldexp(x, -math.frexp(np.abs(x).max())[1]).reshape(g, m).sum(axis=0)
    # bin h*q of the folded spectrum is harmonic h; 2/N scales it to an amplitude
    c = np.abs(np.fft.rfft(part)) * (2.0 / x.size)
    fund = c[q]
    if fund < 1e-300:
        raise DomainError("fundamental component is zero, distortion undefined")
    top = min(int(max_harmonic), (m - 1) // (2 * q))  # the last harmonic below Nyquist
    bins = np.arange(2, top + 1) * q
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
        for name in ("l_filter", "fs_ctrl", "grid_freq"):
            _check_positive(name, getattr(self, name))
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
    """The current loop as (A, B, C, D) with inputs [i_ref, v_grid], the
    state [legs, delay line oldest first, inductor current] and one
    output: the inductor current after each step, the state's next-state
    row (C and D are the inductor rows of A and B)."""
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
    return nxt[:, :ns], nxt[:, ns:], nxt[il:, :ns], nxt[il:, ns:]


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
        line.append(u + v_grid[n])
        vb = line.pop(0)  # the command itself when delay is 0
        i_grid[n] = i_l
        v_inv[n] = vb
        i_l += coef * (vb - v_grid[n])
        if not abs(i_l) < OVERFLOW_GUARD:
            raise NumericOverflow(
                f"inductor current {float(i_l)!r} at step {n} exceeds guard; "
                "the discretized controller is likely unstable"
            )
    return i_grid, v_inv


def _time_row(fs_ctrl: float, duration: float) -> np.ndarray:
    """The sample times of a run.  The counts are made as doubles, exact
    below 2**53, so the row is that of the scaled integer counts; scaling
    an integer row converts each element on the way, at about five times
    the cost."""
    t = np.arange(float(round(duration * fs_ctrl)))
    t *= 1.0 / fs_ctrl
    return t


@functools.lru_cache(maxsize=1)
def _fundamental(fs_ctrl: float, duration: float, grid_freq: float) -> np.ndarray:
    """The grid-frequency sine of a run, read-only: one row for the grid
    voltage and the reference, shared by the configs that differ only in
    their harmonic or amplitudes."""
    row = np.sin(2.0 * math.pi * grid_freq * _time_row(fs_ctrl, duration))
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=1)
def _drive_signals(cfg: InverterConfig):
    """The (t, v_grid, i_ref) rows of a run, read-only: every method run at
    one config shares them, and the next config replaces them."""
    t = _time_row(cfg.fs_ctrl, cfg.duration)
    fundamental = _fundamental(cfg.fs_ctrl, cfg.duration, cfg.grid_freq)
    # the harmonic sine is the one row a new config must compute; built in
    # place, it makes no temporary of the run's length
    harmonic = np.multiply(t, 2.0 * math.pi * cfg.harmonic_freq)
    np.sin(harmonic, out=harmonic)
    harmonic *= cfg.harmonic_amp
    v_grid = np.multiply(fundamental, math.sqrt(2.0) * cfg.grid_vrms)
    v_grid += harmonic
    i_ref = cfg.i_ref_amplitude * fundamental
    for row in (t, v_grid, i_ref):
        row.flags.writeable = False
    return t, v_grid, i_ref


def inverter_closed_loop(cfg: InverterConfig, controller) -> SimTrace:
    """Run the average-model current loop and record every sample.

    ``controller`` is one DiffEqCoeffs or a sequence of parallel legs; the
    legs all see the current error and their outputs are summed.  The
    commanded voltage (controller output plus measured grid voltage
    feedforward) reaches the bridge delay_samples later.  The trace's t
    and v_grid are read-only, and shared by the runs at one config.

    The block route computes one row, the inductor current after each
    step.  i_grid is that row shifted one sample, from the zero initial
    state, and v_inv follows from the inductor step
    i[n+1] = i[n] + coef*(v_inv[n] - v_grid[n]), so its rounding error is
    the current's times L*fs.
    """
    legs = _as_legs(controller)
    t, v_grid, i_ref = _drive_signals(cfg)
    delay, coef = int(cfg.delay_samples), 1.0 / cfg.fs_ctrl / cfg.l_filter
    run = _block_lti(*_closed_loop_system(legs, delay, coef), [i_ref, v_grid])
    if run is None:
        i_grid, v_inv = _closed_loop_steps(legs, delay, coef, i_ref, v_grid)
    else:
        v_inv = run[0]  # the current after each step, until it becomes v_inv in place
        i_grid = np.empty_like(v_inv)
        i_grid[0] = 0.0
        i_grid[1:] = v_inv[:-1]
        v_inv -= i_grid
        v_inv /= coef
        v_inv += v_grid
    return SimTrace(t=t, i_grid=i_grid, v_grid=v_grid, v_inv=v_inv)


def _thd_window(cfg: InverterConfig, periods: int, samples: int) -> int:
    """The sample count of the last ``periods`` grid periods at cfg, the
    window trace_thd reads from a trace of ``samples`` samples; a
    ParamError or WindowError when there is no such window, so a caller
    can check it before a run."""
    if periods < 1:
        raise ParamError(f"periods must be at least 1, got {periods!r}")
    per_samples = cfg.fs_ctrl / cfg.grid_freq
    n = round(periods * per_samples)
    if abs(periods * per_samples - n) > 1e-9:
        raise WindowError("fs_ctrl/grid_freq does not give whole samples per period")
    if n > samples:
        raise WindowError("trace shorter than the requested measurement window")
    return n


def trace_thd(trace: SimTrace, cfg: InverterConfig, periods: int = 10) -> float:
    """Distortion of the trailing ``periods`` grid periods of the trace."""
    n = _thd_window(cfg, periods, len(trace.i_grid))
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
    lines.append("")  # the final newline, without a copy of the joined text
    return "\n".join(lines)


def write_atomic(files) -> None:
    """Write each (path, pieces) pair in two phases: stage the strings of
    pieces, in order, in a new temporary sibling of its path, then, once all
    are staged, rename each over its target.  files may be a generator, so
    each text can be made just before it is staged.  On a failure every
    temporary still present is removed, so a failure while staging leaves
    no file, and an OSError names the target it was for."""
    staged = []
    path = None
    try:
        for path, pieces in files:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):  # not yet renamed
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the target the caller gave, not the temporary just removed
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """Write the trace's fields (t,i_grid,v_grid,v_inv) as rows at full precision, atomically."""
    write_atomic([(path, (csv_text(list(vars(trace)), zip(*vars(trace).values())),))])
