"""The sine probe's drive rows: built in place, equal bit for bit to the
formulas on the integer sample counts, read-only, and built once per drive."""

import json
import math

import numpy as np
import pytest

from sbtkit import cli, sim


def direct_rows(f, fs, amp, settle, window):
    """(drive, first phasor, second phasor) by the formulas on integer counts."""
    n = np.arange(settle + 2 * window)
    x = amp * np.sin(2.0 * math.pi * f * n / fs)
    ph1 = np.exp(-2j * math.pi * f * n[settle : settle + window] / fs)
    ph2 = np.exp(-2j * math.pi * f * n[settle + window :] / fs)
    return x, ph1, ph2


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def _drives():
    rng = np.random.default_rng(30)
    drives = [
        (950.0, 20000.0, 1.0, 0, 1000),  # settle 0: count 0 opens the first window
        (950.0, 20000.0, 0.0, 300, 400),  # amp 0
        (937.5, 20000.0, -2.5, 6400, 3200),  # negative amp
        (float(np.nextafter(10000.0, 0.0)), 20000.0, 1.0, 12, 4096),  # f just below fs/2
        (20000.0 * 953 / 4096, 20000.0, 1.0, 36000 - 2 * 4096, 4096),  # a 4096-sample window
    ]
    for _ in range(12):
        fs = float(rng.choice([8000.0, 20000.0, 44100.0, rng.uniform(1e3, 1e5)]))
        f = float(rng.uniform(1.0, 0.5 * fs))
        amp = float(rng.choice([0.0, -1.0, rng.normal(scale=10.0), rng.uniform(1e-9, 1e6)]))
        drives.append((f, fs, amp, int(rng.integers(0, 20000)), int(rng.integers(1, 4097))))
    return drives


@pytest.mark.parametrize("drive", _drives())
def test_drive_rows_equal_the_integer_count_formulas_bit_for_bit(drive):
    sim._sine_drive.cache_clear()
    rows = sim._sine_drive(*drive)
    for got, want in zip(rows, direct_rows(*drive)):
        assert same_bits(got, want)
        assert not got.flags.writeable


def test_the_phasors_are_two_views_of_one_row():
    sim._sine_drive.cache_clear()
    _, ph1, ph2 = sim._sine_drive(950.0, 20000.0, 1.0, 300, 400)
    assert ph1.base is not None and ph1.base is ph2.base
    assert ph1.base.size == 800 and not ph1.base.flags.writeable
    with pytest.raises(ValueError):
        ph2[0] = 0.0


def test_each_drive_is_built_once_for_every_method(capsys):
    sim._sine_drive.cache_clear()
    for f in ("937.5", "950", "937.5"):
        assert cli.main(["simulate", "board", "--methods", "euler,tustin,sota,sbt", "--f", f]) == 0
    capsys.readouterr()
    info = sim._sine_drive.cache_info()
    assert (info.misses, info.hits) == (3, 9)


def test_trace_files_hold_the_integer_count_drive(tmp_path, capsys):
    f, fs, amp = 937.5, 20000.0, -0.75
    methods = ("euler", "tustin", "sota", "sbt")
    assert cli.main(["simulate", "board", "--methods", ",".join(methods), "--f", repr(f),
                     "--amp", repr(amp), "--trace-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    n = np.arange(int(round(20 * fs / f)))
    want_t, want_x = n / fs, amp * np.sin(2.0 * math.pi * f * n / fs)
    for method in methods:
        lines = (tmp_path / f"board_{method}.csv").read_text().splitlines()
        assert lines[0] == "t,x,y"
        t, x, _ = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        assert same_bits(t, want_t) and same_bits(x, want_x)


@pytest.mark.parametrize("amp", ["1", "0.25", "3e3"])
def test_a_negative_amplitude_reads_and_predicts_its_magnitude(amp, capsys):
    def rows(a):
        code = cli.main(["simulate", "board", "--methods", "tustin,sbt", f"--amp={a}",
                         "--format", "json"])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    for pos, neg in zip(rows(amp), rows("-" + amp)):
        assert (neg["amplitude"], neg["predicted"]) == (pos["amplitude"], pos["predicted"])
        assert neg["mismatch"] < 1e-6
