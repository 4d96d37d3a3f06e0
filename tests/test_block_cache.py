"""The block runner's per-system matrices, cached by the system's exact bits.

sim._block_matrices keeps, per (A, B, C, D), the drive weights, the fused
output matrix and A^K, or None when A^K is not shown to decay.  A run with
a warm cache must give the bits of a cold one, on either edge route."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from sbtkit import (
    DiffEqCoeffs,
    Euler,
    NumericOverflow,
    PiParams,
    QrParams,
    Sbt,
    SbtParams,
    Tustin,
    TustinPrewarp,
    cli,
    diff_eq_coeffs,
    pir_discretize,
    qr_discretize,
    run_difference_equation,
    sim,
    sine_steady_state,
)

T = 5e-5
BOARD = QrParams(59.1, 17.907, 5969.0)
BOARD_LEGS = [diff_eq_coeffs(qr_discretize(BOARD, method, T))
              for method in (Euler(), Tustin(), TustinPrewarp(), Sbt(SbtParams(0.5, 1.0)))]
COEF = 1.0 / 40000.0 / 245e-6
LOOP_LEGS = pir_discretize(PiParams(2.955, 8.594e-4), QrParams(44.325, 17.907, 5969.0),
                           TustinPrewarp(), 1.0 / 40000.0)
ROUTES = [
    pytest.param(True, marks=pytest.mark.skipif(not sim.X87_LONG_DOUBLE,
                                                reason="long double is not the x87 format here"),
                 id="scan"),
    pytest.param(False, id="edge-loop"),
]


@pytest.fixture(autouse=True)
def cold_cache():
    sim._block_matrices.cache_clear()
    yield
    sim._block_matrices.cache_clear()


def _key(system):
    return tuple((a.shape, a.tobytes()) for a in system)


def _board_runs(n):
    x = np.sin(2.0 * math.pi * 950.0 * T * np.arange(n))
    return [(sim._legs_system([leg]), [x]) for leg in BOARD_LEGS]


def _loop_run(n):
    t = np.arange(n) / 40000.0
    inputs = [30.0 * np.sin(2.0 * math.pi * 50.0 * t), 311.0 * np.sin(2.0 * math.pi * 50.0 * t)]
    return sim._closed_loop_system(LOOP_LEGS, 1, COEF), inputs


@pytest.mark.parametrize("scan", ROUTES)
def test_a_warm_run_gives_the_bits_of_a_cold_run(monkeypatch, scan):
    monkeypatch.setattr(sim, "_scan_pays", lambda ns, nb: scan)
    for system, inputs in _board_runs(36000) + [_loop_run(40000)]:
        sim._block_matrices.cache_clear()
        cold = sim._block_lti(*system, inputs)[0]
        warm = sim._block_lti(*system, inputs)[0]
        info = sim._block_matrices.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.array_equal(warm, cold)


def test_the_cached_arrays_are_read_only():
    for system, _ in _board_runs(1) + [_loop_run(1)]:
        for a in sim._block_matrices(_key(system)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_a_frequency_sweep_of_one_design_builds_its_matrices_once():
    leg = BOARD_LEGS[3]
    for f in (900.0, 925.0, 950.0, 975.0, 1000.0):
        sine_steady_state(leg, f, 1.0 / T, settle_cycles=1200)
    info = sim._block_matrices.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_a_board_trace_run_reuses_its_sine_probes_matrices(tmp_path):
    out = tmp_path / "out.json"
    code = cli.main(["simulate", "board", "--trace-dir", str(tmp_path / "traces"),
                     "--format", "json", "--output", str(out)])
    assert code == 0
    methods = len(list((tmp_path / "traces").iterdir()))
    assert methods == 4
    info = sim._block_matrices.cache_info()
    assert (info.misses, info.hits) == (methods, methods)


def test_systems_one_ulp_apart_take_separate_entries():
    A, B, C, D = sim._legs_system(BOARD_LEGS[3:])
    near = A.copy()
    near[2, 2] = np.nextafter(near[2, 2], math.inf)
    x = np.sin(0.3 * np.arange(500))
    sim._block_lti(A, B, C, D, [x])
    sim._block_lti(near, B, C, D, [x])
    info = sim._block_matrices.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    assert not np.array_equal(sim._block_matrices(_key((A, B, C, D)))[2],
                              sim._block_matrices(_key((near, B, C, D)))[2])


def test_a_system_that_does_not_decay_steps_per_sample_on_every_repeat():
    runaway = DiffEqCoeffs(kin0=1.0, kin1=0.0, kin2=0.0, kout1=2.0, kout2=0.0)
    for _ in range(3):
        with pytest.raises(NumericOverflow, match="at sample 39 "):
            run_difference_equation(runaway, np.ones(1000))
    info = sim._block_matrices.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert sim._block_matrices(_key(sim._legs_system([runaway]))) is None


def test_threads_running_different_systems_get_the_serial_bits():
    # more threads than cores, a short switch interval, and cold entries
    # made again and again while other threads read theirs
    runs = _board_runs(36000)[2:] + [_loop_run(40000)]
    serial = [sim._block_lti(*system, inputs)[0] for system, inputs in runs]
    workers = min((os.cpu_count() or 2) + 2, 8)
    results = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def work(i):
        system, inputs = runs[i % len(runs)]
        start.wait()
        for k in range(6):
            if k % 2 == 0:
                sim._block_matrices.cache_clear()
            results[i].append(sim._block_lti(*system, inputs)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, got in enumerate(results):
        assert len(got) == 6
        assert all(np.array_equal(y, serial[i % len(runs)]) for y in got)
