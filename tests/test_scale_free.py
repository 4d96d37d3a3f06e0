"""THD and the sine probe do not depend on the scale of their signal.

Both are ratios of a linear system's response: sim.thd reads harmonics
against the fundamental, and the sine probe's settle test, phase and
amplitude follow the drive.  Scaling by a power of two is exact in binary,
so the readings at 2**k must be those at 1 bit for bit (amplitude scaled),
with no numpy warning on the way, where the signal stays finite."""

import math

import numpy as np
import pytest

from sbtkit import (
    Euler,
    NotSettled,
    ParamError,
    QrParams,
    Sbt,
    Tustin,
    TustinPrewarp,
    cli,
    diff_eq_coeffs,
    qr_discretize,
    sbt_params_straightforward,
    sine_steady_state,
    thd,
)
from test_thd_fold import FS, window

T = 5e-5
BOARD = QrParams(59.1, 17.907, 5969.0)
METHODS = {"euler": Euler(), "tustin": Tustin(), "sota": TustinPrewarp(),
           "sbt": Sbt(sbt_params_straightforward(BOARD, T))}
LEGS = {name: diff_eq_coeffs(qr_discretize(BOARD, m, T)) for name, m in METHODS.items()}

# the unfolded and folded (samples, periods) windows of test_thd_fold
WINDOWS = [(1001, 10), (8011, 10), (4003, 17), (8002, 10), (8004, 12), (8000, 10),
           (1200, 12), (1001, 11), (1005, 15), (1005, 12), (8005, 25)]


def ten_percent_window():
    """16,000 samples over 20 periods at 10% THD: a unit fundamental and a
    third harmonic of 0.1; returns (samples, f0)."""
    tt = 2.0 * math.pi * 20 * np.arange(16000) / 16000
    return np.sin(tt) + 0.1 * np.sin(3.0 * tt), FS * 20 / 16000


# every 7th exponent, and every one around the rescaling edges 2**-256 and 2**256
SCALES = sorted(set(range(-1000, 1001, 7)) | set(range(-280, -230)) | set(range(230, 280)))


@pytest.mark.filterwarnings("error")
def test_thd_reads_the_same_at_every_power_of_two_scale():
    x, f0 = ten_percent_window()
    want = thd(x, f0, FS)
    for k in range(-1000, 1001):
        assert thd(np.ldexp(x, k), f0, FS) == want, k


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, p", WINDOWS)
def test_thd_of_a_seeded_window_reads_the_same_at_power_of_two_scales(n, p):
    x, f0 = window(n, p, 0)
    want = thd(x, f0, FS)
    for k in SCALES:
        assert thd(np.ldexp(x, k), f0, FS) == want, k


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1.7e308, 1e-300])
def test_thd_of_a_huge_or_tiny_window_is_that_of_the_unit_window(scale):
    x, f0 = ten_percent_window()
    scaled = x * scale
    assert np.isfinite(scaled).all()
    # not a power of two, so the samples round: the same reading to rounding
    assert thd(scaled, f0, FS) == pytest.approx(thd(x, f0, FS), rel=1e-13)
    assert thd(scaled, f0, FS) == pytest.approx(10.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_thd_names_mixed_infinities_that_fold_onto_one_sample_without_a_warning():
    x, f0 = ten_percent_window()
    x[3], x[803] = math.inf, -math.inf  # one sample apart in the 800-sample fold
    with pytest.raises(ParamError, match="sample 3 is inf, not finite"):
        thd(x, f0, FS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(LEGS))
def test_the_probe_reads_the_same_at_every_power_of_two_drive(name):
    base = sine_steady_state(LEGS[name], 950.0, 20000.0, amp=1.0, settle_cycles=1200)
    for k in range(-1000, 21):
        res = sine_steady_state(LEGS[name], 950.0, 20000.0, amp=2.0**k, settle_cycles=1200)
        assert res.amplitude == math.ldexp(base.amplitude, k), k
        assert res.phase_deg == base.phase_deg, k


@pytest.mark.parametrize("k", [0, -66, -130, -1000])  # 2**-66 ~ 1e-20, 2**-130 ~ 1e-39
@pytest.mark.parametrize("name", ["euler", "sbt"])
def test_a_short_settle_is_not_settled_at_any_drive(name, k):
    with pytest.raises(NotSettled):
        sine_steady_state(LEGS[name], 950.0, 20000.0, amp=2.0**k, settle_cycles=2)


def test_the_board_at_a_tiny_drive_names_its_unsettled_method(capsys):
    code = cli.main(["simulate", "board", "--methods", "euler,sbt", "--settle-cycles", "2",
                     "--amp", "1e-40"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: method euler: window amplitudes ") and err.count("\n") == 1


def test_the_board_at_a_tiny_drive_prints_the_phase_of_the_unit_drive(capsys):
    def phases(amp):
        assert cli.main(["simulate", "board", "--methods", "tustin,sbt", "--amp", amp,
                         "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        return [row[rows[0].index("phase_deg")] for row in rows[1:]]

    unit = phases("1")
    assert float(unit[0]) == pytest.approx(-68.109, abs=5e-4)
    assert phases(repr(2.0**-997)) == unit  # 2**-997 ~ 7e-301
    assert [float(p) for p in phases("1e-300")] == pytest.approx([float(p) for p in unit],
                                                                   rel=1e-12)
