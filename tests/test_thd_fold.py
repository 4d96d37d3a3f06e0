"""THD from the window folded to one part per gcd(samples, periods),
against the full-spectrum formula it replaced."""

import math

import numpy as np
import pytest

from sbtkit import cli, sim, thd

FS = 40000.0


def full_spectrum_thd(samples, f0, fs, max_harmonic=50):
    """The reference route: one rfft of the whole window, read at bins h*p."""
    x = np.asarray(samples, dtype=float)
    p = round(x.size * f0 / fs)
    c = np.abs(np.fft.rfft(x)) * (2.0 / x.size)
    h = np.arange(2, max_harmonic + 1)
    bins = h[2 * h * p < x.size] * p
    return 100.0 * math.sqrt(float(np.sum(c[bins] ** 2))) / c[p]


def window(n, p, seed):
    """n seeded samples over p periods: a fundamental, odd harmonics, noise;
    returns (samples, f0)."""
    k = np.arange(n)
    tt = 2.0 * math.pi * p * k / n
    rng = np.random.default_rng(seed)
    x = 10.0 * np.sin(tt + 0.3) + rng.normal(size=n)
    for h in (3, 5, 7):
        x += rng.uniform(0.1, 1.0) * np.sin(h * tt + rng.uniform(0.0, 2.0 * math.pi))
    return x, FS * p / n


@pytest.mark.parametrize("n, p", [(1001, 10), (8011, 10), (4003, 17)])
def test_an_unfolded_window_gives_the_full_spectrum_bits(n, p):
    assert math.gcd(n, p) == 1
    for seed in range(3):
        x, f0 = window(n, p, seed)
        assert thd(x, f0, FS) == full_spectrum_thd(x, f0, FS)


@pytest.mark.parametrize("n, p", [
    (8002, 10),  # 1 < g < p
    (8004, 12),  # g = 4, q = 3
    (8000, 10),  # g = p: the default inverter window
    (1200, 12),  # g = p, 100 samples per period
    (1001, 11),  # odd N, g = p
    (1005, 15),  # odd N, g = p, odd folded length
    (1005, 12),  # odd N, g = 3
    (8005, 25),  # odd N, g = 5 < p
])
def test_a_folded_window_agrees_with_the_full_spectrum(n, p):
    assert math.gcd(n, p) > 1
    for seed in range(3):
        x, f0 = window(n, p, seed)
        want = full_spectrum_thd(x, f0, FS)
        assert thd(x, f0, FS) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_list_and_strided_view_inputs_read_as_their_values():
    x, f0 = window(8000, 10, 7)
    want = thd(x, f0, FS)
    assert thd(x.tolist(), f0, FS) == want
    wide = np.empty(2 * x.size)
    wide[::2] = x
    wide[1::2] = np.nan  # read only if the strides were ignored
    view = wide[::2]
    assert not view.flags.c_contiguous
    assert thd(view, f0, FS) == want
    backwards = x[::-1].copy()[::-1]
    assert thd(backwards, f0, FS) == want


@pytest.mark.parametrize("n, p", [(200, 10), (400, 20), (210, 10)])
def test_a_harmonic_at_the_folded_nyquist_is_skipped(n, p):
    # with g = p the folded part is one period of n/p samples, so its
    # Nyquist bin is harmonic n/(2p) (for even n/p); that harmonic and
    # those above it are not counted at any max_harmonic
    k = np.arange(n)
    tt = 2.0 * math.pi * p * k / n
    f0 = FS * p / n
    top = (n // p - 1) // 2  # the last harmonic below Nyquist
    below = np.sin(tt) + 0.3 * np.sin(top * tt)
    x = below + (0.7 * np.cos(math.pi * k) if n // p % 2 == 0 else 0.0)
    for m in (top, top + 1, 50, 10**6):
        got = thd(x, f0, FS, max_harmonic=m)
        assert got == pytest.approx(full_spectrum_thd(x, f0, FS, max_harmonic=m), rel=1e-13)
        assert got == pytest.approx(30.0, rel=1e-12)
    assert thd(x, f0, FS, max_harmonic=top - 1) < 1e-10


def test_the_harmonic_count_is_bounded_before_it_is_allocated():
    x, f0 = window(8000, 10, 11)
    assert thd(x, f0, FS, max_harmonic=2**62) == thd(x, f0, FS, max_harmonic=x.size)
    assert thd(x, f0, FS, max_harmonic=2**62) == thd(x, f0, FS, max_harmonic=399)


def test_a_window_without_harmonics_below_nyquist_reads_zero():
    # 10 periods of 3 samples: harmonic 2 would sit above the folded Nyquist
    n, p = 30, 10
    x = np.sin(2.0 * math.pi * p * np.arange(n) / n)
    assert thd(x, FS * p / n, FS) == full_spectrum_thd(x, FS * p / n, FS) == 0.0


@pytest.mark.parametrize("delay", [0, 1, 2])
def test_the_inverter_methods_agree_with_the_full_spectrum(monkeypatch, capsys, delay):
    seen = []
    measure = sim.trace_thd

    def recording(trace, cfg, periods=10):
        value = measure(trace, cfg, periods)
        seen.append((value, trace, cfg, periods))
        return value

    monkeypatch.setattr(sim, "trace_thd", recording)
    rng = np.random.default_rng(delay)
    for f_h in (50.0 * (2 * int(k) + 1) for k in rng.integers(2, 15, size=2)):
        assert cli.main([
            "simulate", "inverter", "--methods", "pi,euler,tustin,sota,sbt",
            "--harmonic-freq", repr(f_h), "--wn", repr(2.0 * math.pi * f_h),
            "--delay-samples", str(delay), "--format", "json",
        ]) == 0
    capsys.readouterr()
    assert len(seen) == 10
    for value, trace, cfg, periods in seen:
        n = round(periods * cfg.fs_ctrl / cfg.grid_freq)
        want = full_spectrum_thd(trace.i_grid[-n:], cfg.grid_freq, cfg.fs_ctrl)
        # at delay 0 the feedforward cancels the grid and every method reads
        # about 7e-14 %: harmonics of rounding noise, where only an absolute
        # bound (1e-16 of the fundamental) means anything
        assert value == pytest.approx(want, rel=1e-13, abs=1e-14)
