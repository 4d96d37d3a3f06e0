"""Malformed signals and counts end in ParamError, a non-finite sample is
named, and simulate inverter checks its THD window before it runs any
method."""

import math
import warnings

import numpy as np
import pytest

from sbtkit import DiffEqCoeffs, NumericOverflow, ParamError, WindowError, cli, run_difference_equation, sim
from sbtkit import sine_steady_state, thd

GAIN = DiffEqCoeffs(kin0=2.0, kin1=0.0, kin2=0.0, kout1=0.0, kout2=0.0)
FS, F0 = 40000.0, 50.0
# 20 whole periods of a fundamental and a 3rd harmonic at a tenth of it
PHASE = 2 * math.pi * F0 * np.arange(16000) / FS
WAVE = np.sin(PHASE) + 0.1 * np.sin(3 * PHASE)


def test_a_scalar_input_is_a_param_error():
    with pytest.raises(ParamError, match=r"input samples must be one row, got shape \(\)"):
        run_difference_equation(GAIN, 5.0)


def test_a_2d_input_is_a_param_error():
    with pytest.raises(ParamError, match=r"got shape \(2, 40\)"):
        run_difference_equation(GAIN, np.ones((2, 40)))


def test_thd_of_stacked_rows_is_a_param_error():
    assert thd(WAVE, F0, FS) == pytest.approx(10.0, rel=1e-9)
    with pytest.raises(ParamError, match=r"samples must be one row, got shape \(2, 16000\)"):
        thd(np.vstack([WAVE, WAVE]), F0, FS)


@pytest.mark.parametrize("top", [2.5, math.nan, math.inf])
def test_thd_rejects_a_max_harmonic_that_is_not_a_whole_number(top):
    with pytest.raises(ParamError, match="max_harmonic must be a whole number of at least 2"):
        thd(WAVE, F0, FS, max_harmonic=top)


def test_thd_takes_a_whole_float_max_harmonic():
    assert thd(WAVE, F0, FS, max_harmonic=3.0) == thd(WAVE, F0, FS, max_harmonic=3)


def test_sine_probe_rejects_infinite_settle_cycles():
    with pytest.raises(ParamError, match="settle_cycles must be >= 0"):
        sine_steady_state(GAIN, 950.0, 20000.0, settle_cycles=math.inf)


def test_sine_probe_rejects_nan_measure_cycles():
    with pytest.raises(ParamError, match="measure_cycles >= 1"):
        sine_steady_state(GAIN, 950.0, 20000.0, measure_cycles=math.nan)


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (("--fs-ctrl", "33333", "--duration", "60"), 3,
         WindowError("fs_ctrl/grid_freq does not give whole samples per period")),
        (("--periods", "3000", "--duration", "50"), 3,
         WindowError("trace shorter than the requested measurement window")),
        (("--periods", "0"), 2, ParamError("periods must be at least 1, got 0")),
    ],
    ids=["fractional-period", "window-longer-than-run", "no-periods"],
)
def test_inverter_checks_its_thd_window_before_any_run(monkeypatch, capsys, argv, code, error):
    calls = []
    monkeypatch.setattr(sim, "inverter_closed_loop", lambda *args: calls.append(args))
    assert cli.main(["simulate", "inverter", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"
    assert calls == []


DELAY = DiffEqCoeffs(kin0=0.0, kin1=1.0, kin2=0.0, kout1=0.0, kout2=0.0)


@pytest.mark.parametrize("leg", [GAIN, DELAY], ids=["gain", "delay"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_non_finite_input_sample_is_named_not_an_overflow(leg, bad):
    x = [1.0, 2.0, bad, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match=rf"^input sample 2 is {bad!r}, not finite$"):
            run_difference_equation(leg, x)


def test_a_finite_input_beyond_the_guard_is_still_an_overflow():
    with pytest.raises(NumericOverflow, match="at sample 0 "):
        run_difference_equation(GAIN, [1e307, math.nan])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
def test_thd_names_the_first_non_finite_sample(bad):
    x = WAVE.copy()
    x[[777, 9000]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match=rf"^sample 777 is {bad!r}, not finite$"):
            thd(x, F0, FS)


def test_a_finite_window_whose_squares_overflow_reads_as_before():
    # the fold's dot product with itself overflows, so the window is
    # scanned for a non-finite sample, finds none, and is read as it is
    big = WAVE * 2.0**510
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thd(big, F0, FS) == thd(WAVE, F0, FS)
