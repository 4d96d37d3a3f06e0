"""Difference-equation execution, sine measurements, distortion, inverter loop."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from sbtkit import sim
from sbtkit import (
    DiffEqCoeffs,
    DiffEqRunner,
    DomainError,
    EmptyInput,
    InverterConfig,
    NotSettled,
    NumericOverflow,
    ParamError,
    PiParams,
    QrParams,
    Sbt,
    SbtParams,
    SimTrace,
    TustinPrewarp,
    WindowError,
    diff_eq_coeffs,
    inverter_closed_loop,
    pi_discretize,
    pir_discretize,
    qr_discretize,
    run_difference_equation,
    sbt_params_straightforward,
    sine_steady_state,
    thd,
    trace_thd,
    write_trace_csv,
)

KR, WC, WN = 59.1, 17.907, 5969.0
T = 5e-5
FS = 20000.0
BOARD = QrParams(KR, WC, WN)

GAIN_ONLY = DiffEqCoeffs(kin0=2.0, kin1=0.0, kin2=0.0, kout1=0.0, kout2=0.0)
DELAY_ONE = DiffEqCoeffs(kin0=0.0, kin1=1.0, kin2=0.0, kout1=0.0, kout2=0.0)


def board_coeffs(method):
    return diff_eq_coeffs(qr_discretize(BOARD, method, T))


def test_runner_matches_manual_recursion():
    rng = np.random.RandomState(13)
    c = DiffEqCoeffs(kin0=0.3, kin1=-0.1, kin2=0.05, kout1=0.4, kout2=-0.2)
    r = DiffEqRunner(c)
    x1 = x2 = y1 = y2 = 0.0
    for _ in range(200):
        x = rng.uniform(-1, 1)
        y = c.kin0 * x + c.kin1 * x1 + c.kin2 * x2 + c.kout1 * y1 + c.kout2 * y2
        assert r.step(x) == pytest.approx(y, rel=1e-15, abs=1e-15)
        x2, x1 = x1, x
        y2, y1 = y1, y


def test_run_difference_equation_single_and_list_agree():
    x = np.sin(np.linspace(0, 20, 500))
    a = run_difference_equation(GAIN_ONLY, x)
    b = run_difference_equation([GAIN_ONLY], x)
    assert np.array_equal(a, b)
    assert np.allclose(a, 2.0 * x)


def test_run_difference_equation_parallel_legs_sum():
    x = np.cos(np.linspace(0, 15, 400))
    both = run_difference_equation([GAIN_ONLY, DELAY_ONE], x)
    single = run_difference_equation(GAIN_ONLY, x) + run_difference_equation(DELAY_ONE, x)
    assert np.allclose(both, single)


def test_run_difference_equation_guards():
    with pytest.raises(EmptyInput):
        run_difference_equation([], np.ones(4))
    with pytest.raises(EmptyInput):
        run_difference_equation(GAIN_ONLY, [])
    runaway = DiffEqCoeffs(kin0=1.0, kin1=0.0, kin2=0.0, kout1=2.0, kout2=0.0)
    with pytest.raises(NumericOverflow):
        run_difference_equation(runaway, np.ones(1000))


def test_sine_gain_system():
    res = sine_steady_state(GAIN_ONLY, 950.0, FS, amp=0.7)
    assert res.amplitude == pytest.approx(1.4, rel=1e-9)
    assert res.phase_deg == pytest.approx(0.0, abs=1e-6)
    # the residual is a root of differenced mean squares, so its floor is
    # about sqrt(machine epsilon), not epsilon itself
    assert res.residual < 1e-6


def test_sine_delay_phase():
    res = sine_steady_state(DELAY_ONE, 950.0, FS)
    assert res.amplitude == pytest.approx(1.0, rel=1e-9)
    assert res.phase_deg == pytest.approx(-360.0 * 950.0 / FS, abs=1e-6)


def test_sine_zero_amplitude_is_quiet():
    res = sine_steady_state(GAIN_ONLY, 950.0, FS, amp=0.0)
    assert res.amplitude == 0.0
    assert res.phase_deg == 0.0
    assert res.residual == 0.0


def test_sine_domain_and_param_checks():
    with pytest.raises(DomainError):
        sine_steady_state(GAIN_ONLY, 0.0, FS)
    with pytest.raises(DomainError):
        sine_steady_state(GAIN_ONLY, 10000.0, FS)
    with pytest.raises(ParamError):
        sine_steady_state(GAIN_ONLY, 950.0, FS, settle_cycles=-1)
    with pytest.raises(ParamError):
        sine_steady_state(GAIN_ONLY, 950.0, FS, measure_cycles=0)


def test_sine_not_settled_for_high_q_without_patience():
    coeffs = board_coeffs(TustinPrewarp())
    with pytest.raises(NotSettled):
        sine_steady_state(coeffs, 950.0, FS, settle_cycles=20)


def test_sine_board_amplitude_with_patience():
    coeffs = board_coeffs(TustinPrewarp())
    res = sine_steady_state(coeffs, 950.0, FS, settle_cycles=1200)
    assert res.amplitude == pytest.approx(59.0999, rel=1e-3)
    assert res.residual < 1e-3


def test_thd_pure_tone_is_clean():
    fs, f0 = 40000.0, 50.0
    n = np.arange(int(fs / f0) * 12)
    x = 5.0 * np.sin(2 * math.pi * f0 * n / fs)
    assert thd(x, f0, fs) < 1e-10


def test_thd_known_mix():
    fs, f0 = 40000.0, 50.0
    n = np.arange(int(fs / f0) * 15)
    tt = 2 * math.pi * f0 * n / fs
    x = 10.0 * np.sin(tt) + 1.0 * np.sin(3 * tt) + 0.5 * np.sin(5 * tt)
    expected = 100.0 * math.sqrt(1.0**2 + 0.5**2) / 10.0
    assert thd(x, f0, fs) == pytest.approx(expected, rel=1e-9)


def test_thd_harmonics_beyond_nyquist_skipped():
    fs, f0 = 1000.0, 50.0
    n = np.arange(int(fs / f0) * 10)
    tt = 2 * math.pi * f0 * n / fs
    # 11th harmonic at 550 Hz would alias; only 2..9 are counted
    x = np.sin(tt) + 0.3 * np.sin(9 * tt)
    assert thd(x, f0, fs, max_harmonic=50) == pytest.approx(30.0, rel=1e-6)


def test_thd_window_guards():
    fs, f0 = 40000.0, 50.0
    with pytest.raises(EmptyInput):
        thd([], f0, fs)
    with pytest.raises(DomainError):
        thd(np.ones(100), 0.0, fs)
    with pytest.raises(ParamError):
        thd(np.ones(100), f0, fs, max_harmonic=1)
    n = np.arange(int(fs / f0) * 10 + 17)  # fractional period count
    with pytest.raises(WindowError):
        thd(np.sin(2 * math.pi * f0 * n / fs), f0, fs)
    short = np.arange(int(fs / f0) * 5)  # whole but too few periods
    with pytest.raises(WindowError):
        thd(np.sin(2 * math.pi * f0 * short / fs), f0, fs)
    flat = np.zeros(int(fs / f0) * 10)
    with pytest.raises(DomainError):
        thd(flat, f0, fs)


def test_inverter_config_validation():
    InverterConfig()
    with pytest.raises(ParamError):
        InverterConfig(duration=0.1)  # fewer than 20 grid cycles
    with pytest.raises(ParamError):
        InverterConfig(delay_samples=-1)
    with pytest.raises(ParamError):
        InverterConfig(harmonic_freq=30000.0)
    with pytest.raises(ParamError):
        InverterConfig(l_filter=0.0)


def test_sim_trace_length_check():
    with pytest.raises(ParamError):
        SimTrace(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3))


INV = QrParams(44.325, WC, WN)
PI = PiParams(2.955, 8.594e-4)


def inverter_legs(method):
    return pir_discretize(PI, INV, method, 1.0 / 40000.0)


def test_inverter_tracks_reference():
    cfg = InverterConfig(duration=0.5)
    trace = inverter_closed_loop(cfg, inverter_legs(TustinPrewarp()))
    assert len(trace.t) == round(cfg.duration * cfg.fs_ctrl)
    # measure the settled fundamental amplitude over the last 10 cycles
    n = round(10 * cfg.fs_ctrl / cfg.grid_freq)
    tail = trace.i_grid[-n:]
    idx = np.arange(len(trace.i_grid))[-n:]
    ph = np.exp(-2j * math.pi * cfg.grid_freq * idx / cfg.fs_ctrl)
    amp = abs(2.0 / n * np.dot(tail, ph))
    assert amp == pytest.approx(cfg.i_ref_amplitude, rel=0.02)


def test_inverter_unstable_controller_overflows():
    with pytest.warns(Warning):
        legs = pir_discretize(PI, INV, Sbt(SbtParams(0.0, 1.0)), 1.0 / 40000.0)
    cfg = InverterConfig(duration=0.5)
    with pytest.raises(NumericOverflow):
        inverter_closed_loop(cfg, legs)


def test_inverter_harmonic_rejection_ordering():
    cfg = InverterConfig(duration=0.5)
    pi_only = (pi_discretize(PI, 1.0 / 40000.0),)
    t_pi = trace_thd(inverter_closed_loop(cfg, pi_only), cfg)
    t_sota = trace_thd(inverter_closed_loop(cfg, inverter_legs(TustinPrewarp())), cfg)
    assert t_pi > 5.0 * t_sota
    assert t_sota < 2.0


def test_trace_thd_window_checks():
    cfg = InverterConfig(duration=0.5)
    trace = inverter_closed_loop(cfg, inverter_legs(TustinPrewarp()))
    with pytest.raises(WindowError):
        trace_thd(trace, cfg, periods=100)  # longer than the trace


def test_write_trace_csv(tmp_path):
    cfg = InverterConfig(duration=0.5)
    trace = inverter_closed_loop(cfg, inverter_legs(TustinPrewarp()))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,i_grid,v_grid,v_inv"
    assert len(lines) == len(trace.t) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert not list(tmp_path.glob("*.tmp"))


# Two routes: the block state-space runner against the per-step loop it
# replaces for stable systems.  Both round differently, so they agree to a
# tolerance relative to the peak of the compared signal.


def _stable_leg(rng):
    r, theta = rng.uniform(0.5, 0.999), rng.uniform(0.0, math.pi)
    kin = rng.uniform(-2.0, 2.0, size=3)
    return DiffEqCoeffs(kin0=kin[0], kin1=kin[1], kin2=kin[2],
                        kout1=2.0 * r * math.cos(theta), kout2=-r * r)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_legs", [1, 2])
def test_block_runner_equals_per_step_loop(seed, n_legs):
    rng = np.random.default_rng(seed)
    legs = [_stable_leg(rng) for _ in range(n_legs)]
    # a length that is not a whole number of blocks, and one below a block
    for size in (3 * sim.BLOCK + 77, sim.BLOCK // 3):
        x = rng.uniform(-1.0, 1.0, size=size)
        assert sim._block_lti(*sim._legs_system(legs), [x]) is not None
        got = run_difference_equation(legs, x)
        want = sim._run_steps(legs, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _loop_points():
    rng = np.random.default_rng(2024)
    methods = [TustinPrewarp(), Sbt(SbtParams(0.5, 1.0)), Sbt(SbtParams(0.7, 1.02))]
    points = []
    for fs in (20000.0, 40000.0):
        for delay in (0, 1, 2):
            harmonic = 50.0 * rng.choice([5, 7, 11, 13, 19, 29])
            point = (fs, delay, harmonic, 245e-6 * rng.uniform(0.7, 1.5), methods[len(points) % 3])
            points.append(pytest.param(*point, id=f"fs{fs:g}-delay{delay}-h{harmonic:g}"))
    return points


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
@pytest.mark.parametrize("fs, delay, harmonic, l_filter, method", _loop_points())
def test_block_closed_loop_equals_per_step_loop(fs, delay, harmonic, l_filter, method):
    cfg = InverterConfig(fs_ctrl=fs, delay_samples=delay, harmonic_freq=harmonic,
                         l_filter=l_filter, duration=0.4)
    legs = pir_discretize(PI, INV, method, 1.0 / fs)
    coef = 1.0 / (fs * l_filter)
    A = sim._closed_loop_system(legs, delay, coef)[0]
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
        pytest.skip("closed loop not stable at this point: only the per-step route runs")
    assert sim._decays(A)
    trace = inverter_closed_loop(cfg, legs)
    i_ref = cfg.i_ref_amplitude * np.sin(2.0 * math.pi * cfg.grid_freq * trace.t)
    i_grid, v_inv = sim._closed_loop_steps(legs, delay, coef, i_ref, trace.v_grid)
    assert np.max(np.abs(trace.i_grid - i_grid)) <= 1e-12 * np.max(np.abs(i_grid))
    assert np.max(np.abs(trace.v_inv - v_inv)) <= 1e-12 * np.max(np.abs(v_inv))


@pytest.mark.parametrize("seed", range(4))
def test_decay_test_agrees_with_the_spectral_radius(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(8, 8))
    A /= np.max(np.abs(np.linalg.eigvals(A)))
    for radius in (0.2, 0.9, 0.999):
        assert sim._decays(radius * A)
    with np.errstate(all="ignore"):  # as in the block runner: powers overflow
        for radius in (1.0, 1.001, 3.0):
            assert not sim._decays(radius * A)
        assert not sim._decays(np.full((2, 2), np.nan))


def test_runaway_leg_falls_back_to_per_step_without_warnings():
    # spectral radius 2: the per-step loop runs and names the exact sample
    runaway = DiffEqCoeffs(kin0=1.0, kin1=0.0, kin2=0.0, kout1=2.0, kout2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow, match="at sample 39 "):
            run_difference_equation(runaway, np.ones(1000))


def test_non_finite_block_output_falls_back_without_warnings():
    # a stable leg whose block sums overflow: the per-step loop stops at sample 0
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow, match="at sample 0 "):
            run_difference_equation(_stable_leg(rng), np.full(600, 1e307))


def test_sample_cap_rejects_before_allocating():
    with pytest.raises(ParamError, match="40000000000 steps"):
        InverterConfig(duration=1e6)
    with pytest.raises(ParamError, match="MAX_SAMPLES"):
        sine_steady_state(GAIN_ONLY, 950.0, FS, settle_cycles=10**9)
    InverterConfig(duration=sim.MAX_SAMPLES / 40000.0)


def test_thd_reads_the_spectrum_at_harmonic_bins():
    # equal to the projection at each harmonic frequency
    fs, f0 = 40000.0, 50.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=int(fs / f0) * 10)
    n = np.arange(x.size)
    amp = [abs(2.0 / x.size * np.dot(x, np.exp(-2j * math.pi * h * f0 * n / fs)))
           for h in range(1, 51)]
    want = 100.0 * math.sqrt(sum(a * a for a in amp[1:])) / amp[0]
    assert thd(x, f0, fs) == pytest.approx(want, rel=1e-12)


def test_delay_cap_rejects_before_building_the_loop():
    # the loop's state matrix has one row per delay sample
    with pytest.raises(ParamError, match=r"not an integer in \[0, 256\]"):
        InverterConfig(delay_samples=sim.MAX_DELAY_SAMPLES + 1)
    InverterConfig(delay_samples=sim.MAX_DELAY_SAMPLES)


@pytest.mark.parametrize("periods", [0, -3])
def test_trace_thd_rejects_fewer_than_one_period(periods):
    cfg = InverterConfig(duration=0.5)
    trace = inverter_closed_loop(cfg, inverter_legs(TustinPrewarp()))
    with pytest.raises(ParamError, match=f"periods must be at least 1, got {periods}"):
        trace_thd(trace, cfg, periods=periods)


def test_a_final_state_beyond_the_guard_takes_the_per_step_route():
    # the last input has not reached the delay leg's output yet: only the
    # state after the last sample holds it
    x = np.sin(np.arange(sim.BLOCK + 7) * 0.1)
    x[-1] = 2e12
    assert sim._block_lti(*sim._legs_system([DELAY_ONE]), [x]) is None
    got = run_difference_equation(DELAY_ONE, x)
    assert np.array_equal(got, sim._run_steps([DELAY_ONE], x))
    assert np.array_equal(got[1:], x[:-1])


@pytest.mark.parametrize("amp", [math.inf, -math.inf, math.nan])
def test_sine_probe_rejects_a_non_finite_amplitude(amp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match="amp must be finite"):
            sine_steady_state(DELAY_ONE, 950.0, FS, amp=amp)


# Edges of the batched block runner: no tail block, a one-sample input, a
# guard crossing in the tail block alone, and the drive rows one config shares.


@pytest.mark.parametrize("size", [5 * sim.BLOCK, 1], ids=["whole-blocks", "one-sample"])
def test_block_runner_equals_per_step_loop_at_block_edges(size):
    rng = np.random.default_rng(11)
    legs = [_stable_leg(rng) for _ in range(2)]
    x = rng.uniform(0.5, 1.0, size=size)
    assert sim._block_lti(*sim._legs_system(legs), [x]) is not None
    got = run_difference_equation(legs, x)
    want = sim._run_steps(legs, x)
    assert got.shape == want.shape == (size,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_guard_crossing_in_the_tail_block_alone_takes_the_per_step_route():
    legs = inverter_legs(TustinPrewarp())
    delay, coef = 1, 1.0 / 40000.0 / 245e-6
    system = sim._closed_loop_system(legs, delay, coef)
    n = 3 * sim.BLOCK + 40
    t = np.arange(n) / 40000.0
    i_ref = 30.0 * np.sin(2.0 * math.pi * 50.0 * t)
    v_grid = 311.0 * np.sin(2.0 * math.pi * 50.0 * t)
    # the same run without the spike stays on the block route
    assert sim._block_lti(*system, [i_ref, v_grid]) is not None
    jump = 3 * sim.BLOCK + 5  # inside the last, short block
    i_ref[jump] = 1e13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sim._block_lti(*system, [i_ref, v_grid]) is None
        with pytest.raises(NumericOverflow, match=f"at step {jump + delay} "):
            sim._closed_loop_steps(legs, delay, coef, i_ref, v_grid)


def _one_and_two_input_runs():
    rng = np.random.default_rng(5)
    legs = [_stable_leg(rng) for _ in range(2)]
    closed = sim._closed_loop_system(inverter_legs(TustinPrewarp()), 1, 1.0 / 40000.0 / 245e-6)
    for short in (0, 9):  # whole blocks only, and a short last block
        n = 11 * sim.BLOCK + short  # an odd block count: the last chunk is odd at every size
        yield pytest.param(sim._legs_system(legs), [rng.uniform(-1.0, 1.0, n)], id=f"one-input-{n}")
        t = np.arange(n) / 40000.0
        yield pytest.param(closed, [30.0 * np.sin(2.0 * math.pi * 50.0 * t),
                                    311.0 * np.sin(2.0 * math.pi * 50.0 * t)], id=f"two-input-{n}")


@pytest.mark.parametrize("system, inputs", _one_and_two_input_runs())
def test_block_outputs_do_not_depend_on_the_row_buffer_size(monkeypatch, system, inputs):
    blocks = len(inputs[0]) // sim.BLOCK
    runs = []
    for size in (1, 3, blocks, 4 * blocks):
        monkeypatch.setattr(sim, "OUTPUT_ROWS", size)
        run = sim._block_lti(*system, inputs)
        assert run is not None
        runs.append(run[0])
    for y in runs[1:]:
        assert np.array_equal(y, runs[0])


def test_runs_at_one_config_share_read_only_drive_rows():
    cfg = InverterConfig(duration=0.4)
    first = inverter_closed_loop(cfg, inverter_legs(TustinPrewarp()))
    second = inverter_closed_loop(InverterConfig(duration=0.4), inverter_legs(Sbt(SbtParams(0.5, 1.0))))
    assert second.t is first.t and second.v_grid is first.v_grid
    for row in (first.t, first.v_grid):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
    other = inverter_closed_loop(InverterConfig(duration=0.4, harmonic_freq=550.0),
                                 inverter_legs(TustinPrewarp()))
    assert other.t is not first.t and other.v_grid is not first.v_grid
    assert np.array_equal(other.t, first.t)
    assert not np.array_equal(other.v_grid, first.v_grid)


# Deep scans: runs long enough for 13 and more levels of the block-edge
# scan, on legs whose powers decay slowly.  A last block shorter than BLOCK
# is left over.


@pytest.mark.parametrize("radius", [0.9, 0.999])
def test_block_runner_equals_per_step_loop_over_a_deep_scan(radius):
    theta = 2.0 * math.pi * 950.0 / FS
    legs = [DiffEqCoeffs(kin0=1.0, kin1=-0.5, kin2=0.25,
                         kout1=2.0 * radius * math.cos(theta), kout2=-radius * radius)]
    x = np.random.default_rng(13).uniform(-1.0, 1.0, size=2**18 + 77)
    blocks = x.size // sim.BLOCK
    assert (blocks - 1).bit_length() >= 13 and x.size % sim.BLOCK
    run = sim._block_lti(*sim._legs_system(legs), [x])
    assert run is not None
    got = run_difference_equation(legs, x)
    assert np.array_equal(got, run[0])
    want = sim._run_steps(legs, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_block_closed_loop_equals_per_step_loop_over_a_full_second():
    cfg = InverterConfig(delay_samples=2)
    legs = inverter_legs(TustinPrewarp())
    coef = 1.0 / (cfg.fs_ctrl * cfg.l_filter)
    assert sim._decays(sim._closed_loop_system(legs, 2, coef)[0])
    trace = inverter_closed_loop(cfg, legs)
    assert len(trace.t) == 40000
    _, v_grid, i_ref = sim._drive_signals(cfg)
    i_grid, v_inv = sim._closed_loop_steps(legs, 2, coef, i_ref, v_grid)
    assert np.max(np.abs(trace.i_grid - i_grid)) <= 1e-12 * np.max(np.abs(i_grid))
    assert np.max(np.abs(trace.v_inv - v_inv)) <= 1e-12 * np.max(np.abs(v_inv))


def test_sine_tests_at_one_drive_share_read_only_rows(monkeypatch):
    drives = []

    def spy(coeffs, samples):
        drives.append(samples)
        return run_difference_equation(coeffs, samples)

    monkeypatch.setattr(sim, "run_difference_equation", spy)
    first = sine_steady_state(board_coeffs(TustinPrewarp()), 950.0, FS, settle_cycles=1200)
    sine_steady_state(board_coeffs(Sbt(SbtParams(0.5, 1.0))), 950.0, FS, settle_cycles=1200)
    assert drives[1] is drives[0]
    assert not drives[0].flags.writeable
    with pytest.raises(ValueError):
        drives[0][0] = 1.0
    assert np.array_equal(drives[0], np.sin(2.0 * math.pi * 950.0 * np.arange(drives[0].size) / FS))
    sine_steady_state(board_coeffs(TustinPrewarp()), 900.0, FS, settle_cycles=1200)
    assert drives[2] is not drives[0]
    again = sine_steady_state(board_coeffs(TustinPrewarp()), 950.0, FS, settle_cycles=1200)
    assert drives[3] is not drives[0] and np.array_equal(drives[3], drives[0])
    assert again == first


@functools.cache
def resonant_leg_run():
    # the inverter's resonant element moved to 50 Hz and run open-loop at
    # 40 kHz on uniform noise, and the per-step loop's output
    leg50 = QrParams(INV.kr, INV.omega_c, 2.0 * math.pi * 50.0)
    legs = [diff_eq_coeffs(qr_discretize(leg50, TustinPrewarp(), 1.0 / 40000.0))]
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=320000)
    return legs, x, sim._run_steps(legs, x)


@pytest.mark.parametrize("scan", [
    pytest.param(True, marks=pytest.mark.skipif(not sim.X87_LONG_DOUBLE,
                                                reason="long double is not the x87 format here")),
    False,
])
def test_block_runner_on_a_lightly_damped_50_hz_leg(monkeypatch, scan):
    # squarings in double put the scan 1e-9 of the peak apart from the per-step loop here
    legs, x, want = resonant_leg_run()
    assert sim._scan_pays(len(sim._legs_system(legs)[0]), x.size // sim.BLOCK)
    monkeypatch.setattr(sim, "_scan_pays", lambda ns, nb: scan)
    got = run_difference_equation(legs, x)
    assert np.max(np.abs(got - want)) <= 2e-11 * np.max(np.abs(want))


def test_scan_runs_only_where_it_costs_less_than_the_edge_loop(monkeypatch):
    if sim.X87_LONG_DOUBLE:
        assert sim._scan_pays(8, 625)  # the default inverter loop over 1 s
        assert sim._scan_pays(4, 562)  # a board leg over a 950 Hz sine test
        assert sim._scan_pays(21, 625) and not sim._scan_pays(21, 250)
    assert not sim._scan_pays(33, 4096) and not sim._scan_pays(69, 625)
    monkeypatch.setattr(sim, "X87_LONG_DOUBLE", False)
    assert not sim._scan_pays(8, 625)


def test_block_closed_loop_with_more_states_than_the_scan_takes():
    # a long bridge delay behind a proportional leg and a weakened resonant one
    resonant = inverter_legs(TustinPrewarp())[1]
    legs = [DiffEqCoeffs(kin0=0.02, kin1=0.0, kin2=0.0, kout1=0.0, kout2=0.0),
            dataclasses.replace(resonant, kin0=0.3 * resonant.kin0, kin2=0.3 * resonant.kin2)]
    cfg = InverterConfig(delay_samples=64)
    coef = 1.0 / (cfg.fs_ctrl * cfg.l_filter)
    A = sim._closed_loop_system(legs, 64, coef)[0]
    assert len(A) > 64 and sim._decays(A) and not sim._scan_pays(len(A), 625)
    trace = inverter_closed_loop(cfg, legs)
    _, v_grid, i_ref = sim._drive_signals(cfg)
    i_grid, v_inv = sim._closed_loop_steps(legs, 64, coef, i_ref, v_grid)
    assert np.max(np.abs(trace.i_grid - i_grid)) <= 1e-12 * np.max(np.abs(i_grid))
    assert np.max(np.abs(trace.v_inv - v_inv)) <= 1e-12 * np.max(np.abs(v_inv))


# The block route's one output: the inductor current after each step.


@pytest.mark.parametrize("delay", [0, 1, 3])
def test_closed_loop_output_is_the_inductor_row_of_the_next_state(delay):
    A, B, C, D = sim._closed_loop_system(inverter_legs(TustinPrewarp()), delay, 0.1)
    assert C.shape == (1, len(A)) and D.shape == (1, 2)
    assert np.array_equal(C[0], A[-1]) and np.array_equal(D[0], B[-1])


@pytest.mark.parametrize("legs", [[board_coeffs(TustinPrewarp())], inverter_legs(TustinPrewarp())],
                         ids=["one-leg", "two-legs"])
def test_legs_output_is_the_sum_of_the_legs_y1_rows(legs):
    # the block runner computes one output row; this is that row for the board
    A, B, C, D = sim._legs_system(legs)
    assert len(legs) == len(A) // 2 - 1
    assert C.shape == (1, len(A)) and D.shape == (1, 1)
    rows = np.hstack([A, B])
    want = np.zeros(rows.shape[1])
    for j in range(len(legs)):
        want += rows[2 + 2 * j]
    assert np.array_equal(np.hstack([C, D])[0], want)


def test_block_route_starts_the_grid_current_at_zero():
    cfg = InverterConfig(duration=0.4)
    legs = inverter_legs(Sbt(SbtParams(0.5, 1.0)))
    _, v_grid, i_ref = sim._drive_signals(cfg)
    system = sim._closed_loop_system(legs, cfg.delay_samples, 1.0 / (cfg.fs_ctrl * cfg.l_filter))
    assert sim._block_lti(*system, [i_ref, v_grid]) is not None
    assert inverter_closed_loop(cfg, legs).i_grid[0] == 0.0


def _wide_loop_points():
    from sbtkit import Euler

    rng = np.random.default_rng(18)
    methods = [None, Euler(), TustinPrewarp(), Sbt(SbtParams(0.5, 1.0))]  # None: the PI leg alone
    points = []
    for k in range(16):
        fs = 50.0 * round(rng.uniform(10000.0, 80000.0) / 50.0)
        l_filter = math.exp(rng.uniform(math.log(50e-6), math.log(20e-3)))
        delay = int(rng.integers(0, 6))
        method = methods[k % 4]
        name = "pi" if method is None else type(method).__name__.lower()
        points.append(pytest.param(fs, l_filter, delay, method,
                                   id=f"fs{fs:g}-L{l_filter:.3g}-delay{delay}-{name}"))
    return points


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
@pytest.mark.parametrize("fs, l_filter, delay, method", _wide_loop_points())
def test_block_loop_columns_equal_the_per_step_loop_over_wide_plants(fs, l_filter, delay, method):
    # v_inv follows from two consecutive currents, so its error is theirs times L*fs
    legs = [pi_discretize(PI, 1.0 / fs)] if method is None else pir_discretize(PI, INV, method, 1.0 / fs)
    coef = 1.0 / (fs * l_filter)
    A = sim._closed_loop_system(legs, delay, coef)[0]
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
        pytest.skip("closed loop not stable at this point: only the per-step route runs")
    cfg = InverterConfig(fs_ctrl=fs, l_filter=l_filter, delay_samples=delay, duration=0.4)
    trace = inverter_closed_loop(cfg, legs)
    _, v_grid, i_ref = sim._drive_signals(cfg)
    i_grid, v_inv = sim._closed_loop_steps(legs, delay, coef, i_ref, v_grid)
    assert np.max(np.abs(trace.i_grid - i_grid)) <= 1e-12 * np.max(np.abs(i_grid))
    assert np.max(np.abs(trace.v_inv - v_inv)) <= 1e-12 * np.max(np.abs(v_inv))


@pytest.mark.parametrize("K", [1, 2, 64])
def test_toeplitz_index_equals_the_reversed_sliding_window(K):
    from numpy.lib.stride_tricks import sliding_window_view

    markov = np.random.default_rng(K).normal(size=(2, 3, 2 * K - 1))
    want = sliding_window_view(markov, K, axis=2)[:, :, ::-1]
    got = markov[:, :, sim._toeplitz_index(K)]
    assert got.shape == want.shape == (2, 3, K, K)
    assert np.array_equal(got, want)


def test_configs_that_differ_only_in_the_harmonic_share_one_fundamental():
    sim._drive_signals.cache_clear()
    sim._fundamental.cache_clear()
    _, first_grid, first_ref = sim._drive_signals(InverterConfig(duration=0.4, harmonic_freq=550.0))
    _, other_grid, other_ref = sim._drive_signals(InverterConfig(duration=0.4, harmonic_freq=650.0))
    info = sim._fundamental.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert np.array_equal(other_ref, first_ref) and not np.array_equal(other_grid, first_grid)
