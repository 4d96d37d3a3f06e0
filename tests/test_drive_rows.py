"""The inverter drive rows: built on the cached fundamental sine, equal
bit for bit to the direct formulas."""

import math

import numpy as np
import pytest

from sbtkit import InverterConfig, sim


def direct_rows(cfg):
    """(t, v_grid, i_ref) by the formulas, each row computed on its own."""
    t = np.arange(round(cfg.duration * cfg.fs_ctrl)) * (1.0 / cfg.fs_ctrl)
    fundamental = np.sin(2.0 * math.pi * cfg.grid_freq * t)
    harmonic = cfg.harmonic_amp * np.sin(t * (2.0 * math.pi * cfg.harmonic_freq))
    v_grid = fundamental * (math.sqrt(2.0) * cfg.grid_vrms) + harmonic
    return t, v_grid, cfg.i_ref_amplitude * fundamental


CONFIGS = [
    InverterConfig(),
    InverterConfig(harmonic_freq=250.0, delay_samples=0),
    InverterConfig(fs_ctrl=20000.0, duration=0.5, harmonic_freq=1450.0),
    InverterConfig(fs_ctrl=33333.0, grid_freq=60.0, grid_vrms=120.0, duration=0.37,
                   harmonic_freq=420.5, harmonic_amp=7.25, i_ref_amplitude=12.5),
    InverterConfig(harmonic_freq=0.0, harmonic_amp=0.0, grid_vrms=0.0),
]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_drive_rows_equal_the_formulas_bit_for_bit(cfg):
    sim._drive_signals.cache_clear()
    sim._fundamental.cache_clear()
    for got, want in zip(sim._drive_signals(cfg), direct_rows(cfg)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not got.flags.writeable


def test_new_harmonics_reuse_one_fundamental():
    sim._drive_signals.cache_clear()
    sim._fundamental.cache_clear()
    harmonics = [50.0 * k for k in range(3, 30, 2)]
    for f_h in harmonics:
        cfg = InverterConfig(duration=0.4, harmonic_freq=f_h, harmonic_amp=f_h / 10.0)
        assert all(np.array_equal(a, b) for a, b in zip(sim._drive_signals(cfg), direct_rows(cfg)))
    info = sim._fundamental.cache_info()
    assert (info.misses, info.hits) == (1, len(harmonics) - 1)
    assert sim._drive_signals.cache_info().misses == len(harmonics)


def test_new_grid_and_reference_amplitudes_reuse_one_fundamental():
    sim._drive_signals.cache_clear()
    sim._fundamental.cache_clear()
    for cfg in (InverterConfig(duration=0.4), InverterConfig(duration=0.4, grid_vrms=230.0),
                InverterConfig(duration=0.4, grid_vrms=230.0, i_ref_amplitude=20.0)):
        assert all(np.array_equal(a, b) for a, b in zip(sim._drive_signals(cfg), direct_rows(cfg)))
    assert sim._fundamental.cache_info().misses == 1


def test_the_time_row_equals_the_scaled_integer_counts():
    for fs, duration in [(40000.0, 1.0), (33333.0, 0.37), (1.0 / 3.0, 90.0), (40000.0, 104.8576)]:
        n = round(duration * fs)
        assert np.array_equal(sim._time_row(fs, duration), np.arange(n) * (1.0 / fs))
