"""Grids, frequency responses, error curves, and the pole landing table."""

import math
import os
import warnings

import numpy as np
import pytest

import sbtkit
from sbtkit import (
    DomainError,
    EmptyInput,
    Euler,
    FrequencyGrid,
    ParamError,
    QrParams,
    Sbt,
    SbtParams,
    TransferFunction,
    Tustin,
    TustinPrewarp,
    alternative_rmse_grids,
    default_bode_grid,
    default_rmse_grid,
    freq_response,
    load_grid_file,
    magnitude_error_curve,
    pole_map_table,
    qr_continuous,
    qr_discretize,
    rmse,
    sbt_params_straightforward,
    source_poles,
)

KR, WC, WN = 59.1, 17.907, 5969.0
T = 5e-5
BOARD = QrParams(KR, WC, WN)

GRIDS_DIR = os.path.join(os.path.dirname(sbtkit.__file__), "grids")


def test_grid_validation():
    with pytest.raises(EmptyInput):
        FrequencyGrid(())
    with pytest.raises(ParamError):
        FrequencyGrid((0.0, 1.0))
    with pytest.raises(ParamError):
        FrequencyGrid((10.0, 10.0))
    with pytest.raises(ParamError):
        FrequencyGrid((10.0, 5.0))
    with pytest.raises(ParamError):
        FrequencyGrid((1.0,), spacing="quadratic")


def test_grid_constructors():
    lin = FrequencyGrid.linear(100.0, 200.0, 11)
    assert len(lin) == 11
    assert lin.points[0] == 100.0 and lin.points[-1] == 200.0
    assert lin.spacing == "linear"
    log = FrequencyGrid.logarithmic(10.0, 1000.0, 3)
    assert log.points[1] == pytest.approx(100.0)
    assert log.spacing == "logarithmic"
    exp = FrequencyGrid.explicit([5.0, 50.0])
    assert exp.spacing == "explicit"


def test_grid_merge_dedupes_and_sorts():
    a = FrequencyGrid.explicit([100.0, 300.0])
    b = FrequencyGrid.explicit([50.0, 100.0, 200.0])
    m = a.merged_with(b)
    assert m.points == (50.0, 100.0, 200.0, 300.0)


def test_default_grids_shape():
    near = default_rmse_grid()
    assert len(near) == 200
    assert near.points[0] == 900.0 and near.points[-1] == 1000.0
    wide = default_bode_grid()
    assert wide.points[0] == pytest.approx(10.0, rel=1e-12)
    assert wide.points[-1] == pytest.approx(9500.0, rel=1e-12)
    assert len(wide) > 2000
    alts = alternative_rmse_grids()
    assert set(alts) == {"zoom-tight", "band-log", "wide-merged"}


def test_packaged_grid_files_match_code():
    pairs = {
        "near_resonance.txt": default_rmse_grid(),
        "zoom_tight.txt": alternative_rmse_grids()["zoom-tight"],
        "band_log.txt": alternative_rmse_grids()["band-log"],
        "wide_merged.txt": alternative_rmse_grids()["wide-merged"],
    }
    for name, grid in pairs.items():
        loaded = load_grid_file(os.path.join(GRIDS_DIR, name))
        assert loaded.points == pytest.approx(grid.points, rel=1e-16)


def test_load_grid_file_comments_and_blanks(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# header\n100\n\n200 # inline\n")
    g = load_grid_file(str(path))
    assert g.points == (100.0, 200.0)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(EmptyInput):
        load_grid_file(str(empty))


def test_analog_response_peak():
    pts = freq_response(qr_continuous(BOARD), FrequencyGrid.explicit([WN / (2 * math.pi)]))
    assert pts[0].mag_db == pytest.approx(20 * math.log10(KR), abs=1e-6)
    assert pts[0].phase_deg == pytest.approx(0.0, abs=1e-3)
    assert not pts[0].pole_hit


def test_analog_response_low_frequency_floor():
    pts = freq_response(qr_continuous(BOARD), FrequencyGrid.explicit([0.01]))
    assert pts[0].mag_db < -40.0


def test_straightforward_discrete_tracks_analog_at_resonance():
    params = sbt_params_straightforward(BOARD, T)
    disc = qr_discretize(BOARD, Sbt(params), T).to_transfer(T)
    grid = FrequencyGrid.explicit([950.0])
    a = freq_response(qr_continuous(BOARD), grid)[0].mag_db
    d = freq_response(disc, grid)[0].mag_db
    assert abs(a - d) < 0.1


def test_discrete_response_rejects_nyquist():
    disc = qr_discretize(BOARD, Tustin(), T).to_transfer(T)
    with pytest.raises(DomainError):
        freq_response(disc, FrequencyGrid.explicit([10000.0]))


def test_pole_hit_points_are_flagged_not_fatal():
    # undamped analog resonator: s^2 + w0^2 vanishes exactly at the grid point
    w0 = 2 * math.pi * 1000.0
    tf = TransferFunction([1.0], [w0 * w0, 0.0, 1.0])
    pts = freq_response(tf, FrequencyGrid.explicit([500.0, 1000.0]))
    assert not pts[0].pole_hit
    assert pts[1].pole_hit
    assert math.isinf(pts[1].mag_db)


def test_phase_wrapping_range():
    disc = qr_discretize(BOARD, Euler(), T).to_transfer(T)
    for p in freq_response(disc, default_bode_grid()):
        assert -180.0 < p.phase_deg <= 180.0


def test_error_curve_sign_convention():
    # the heavily damped method under-responds at resonance: positive error
    disc = qr_discretize(BOARD, Euler(), T).to_transfer(T)
    curve = magnitude_error_curve(qr_continuous(BOARD), disc, FrequencyGrid.explicit([950.0]))
    assert curve[0][1] > 30.0


def test_error_curve_zero_for_identical_magnitudes():
    analog = TransferFunction([2.5], [1.0])
    disc = TransferFunction([2.5], [1.0], dt=T)
    curve = magnitude_error_curve(analog, disc, default_rmse_grid())
    assert len(curve) == 200
    assert max(abs(e) for _, e in curve) < 1e-9


def test_error_curve_domain_checks():
    analog = qr_continuous(BOARD)
    disc = qr_discretize(BOARD, Tustin(), T).to_transfer(T)
    with pytest.raises(DomainError):
        magnitude_error_curve(disc, disc, default_rmse_grid())
    with pytest.raises(DomainError):
        magnitude_error_curve(analog, analog, default_rmse_grid())


def test_error_curve_drops_pole_hits():
    w0 = 2 * math.pi * 950.0
    analog = TransferFunction([1.0], [w0 * w0, 0.0, 1.0])
    disc = qr_discretize(BOARD, Tustin(), T).to_transfer(T)
    grid = FrequencyGrid.explicit([940.0, 950.0, 960.0])
    curve = magnitude_error_curve(analog, disc, grid)
    assert [f for f, _ in curve] == [940.0, 960.0]


def test_tustin_error_has_opposite_lobes_around_warped_resonance():
    disc = qr_discretize(BOARD, Tustin(), T).to_transfer(T)
    grid = FrequencyGrid.linear(935.0, 955.0, 2001)
    curve = magnitude_error_curve(qr_continuous(BOARD), disc, grid)
    signs = [e > 0 for _, e in curve]
    flips = [f for (f, _), s0, s1 in zip(curve[1:], signs, signs[1:]) if s0 != s1]
    # single crossing between the shifted discrete peak and the analog peak
    assert len(flips) == 1
    assert 943.0 < flips[0] < 950.0
    errs = dict(curve)
    assert errs[943.0] < -5.0  # discrete over-responds at its warped peak
    assert min(abs(e) for _, e in curve) < 0.05
    wide = magnitude_error_curve(qr_continuous(BOARD), disc, default_rmse_grid())
    assert max(e for _, e in wide) > 5.0


def test_rmse_basics():
    assert rmse([3.0, -3.0, 3.0]) == pytest.approx(3.0)
    assert rmse([(100.0, 3.0), (200.0, -3.0)]) == pytest.approx(3.0)
    with pytest.raises(EmptyInput):
        rmse([])


def test_rmse_frozen_board_values():
    analog = qr_continuous(BOARD)
    grid = default_rmse_grid()

    def score(method):
        disc = qr_discretize(BOARD, method, T).to_transfer(T)
        return rmse(magnitude_error_curve(analog, disc, grid))

    assert score(Euler()) == pytest.approx(18.463785, rel=1e-5)
    assert score(Tustin()) == pytest.approx(3.938630, rel=1e-5)
    assert score(TustinPrewarp()) == pytest.approx(0.181618, rel=1e-4)
    assert score(Sbt(sbt_params_straightforward(BOARD, T))) == pytest.approx(0.121014, rel=1e-4)


def test_source_poles():
    sp = source_poles(BOARD, T)
    assert sp.original.real == -WC
    assert sp.original.imag == pytest.approx(math.sqrt(WN**2 - WC**2), rel=1e-15)
    assert sp.prewarped.real == -WC
    assert sp.prewarped.imag > sp.original.imag  # pre-warping raises the resonance
    with pytest.raises(DomainError):
        source_poles(QrParams(KR, 100.0, 101.0), 1.0)  # wc ~ wn, radical still fine
        # (the above stays valid; the real failure needs wc >= wn)
    with pytest.raises(ParamError):
        QrParams(KR, 101.0, 100.0)


def test_pole_map_rows_match_published_table():
    rows = {r.label: r for r in pole_map_table(BOARD, T)}
    assert list(rows) == ["exact", "euler", "tustin", "sota", "sbt"]

    def check(label, z_re, z_im, sig, omega, sig_tol=1e-3):
        r = rows[label]
        assert r.mapped_z.real == pytest.approx(z_re, abs=1e-5)
        assert r.mapped_z.imag == pytest.approx(z_im, abs=1e-5)
        assert r.equivalent_s.real == pytest.approx(sig, abs=sig_tol)
        assert r.equivalent_s.imag == pytest.approx(omega, abs=1.0)

    check("exact", 0.95494, 0.29377, -17.907, 5969)
    # the published damping for the backward-difference row carries the
    # display-rounded source frequency; the full-precision value sits 7e-3 away
    check("euler", 0.91753, 0.27359, -869.699, 5796, sig_tol=8e-3)
    check("tustin", 0.95560, 0.29169, -17.517, 5925)
    check("sota", 0.95496, 0.29378, -17.511, 5969)
    check("sbt", 0.95495, 0.29378, -17.642, 5969)


def test_pole_map_exact_row_is_reference():
    rows = pole_map_table(BOARD, T)
    ref = rows[0]
    assert ref.label == "exact"
    assert ref.equivalent_s.real == pytest.approx(-WC, rel=1e-9)
    assert ref.equivalent_s.imag == pytest.approx(math.sqrt(WN**2 - WC**2), rel=1e-9)


def test_pole_map_dual_route_check_fires():
    with pytest.raises(ArithmeticError):
        pole_map_table(BOARD, T, consistency_tol=-1.0)


def test_pole_map_explicit_method_list():
    rows = pole_map_table(BOARD, T, [TustinPrewarp(omega_n=WN)])
    assert [r.label for r in rows] == ["exact", "sota"]


def test_warp_is_always_downward():
    # custom resonance at 2 kHz: trapezoidal equivalent frequency below design
    p = QrParams(KR, WC, 2 * math.pi * 2000.0)
    rows = {r.label: r for r in pole_map_table(p, T)}
    assert rows["tustin"].equivalent_s.imag < p.omega_n
    assert rows["sota"].equivalent_s.imag == pytest.approx(p.omega_n, rel=1e-6)


@pytest.mark.parametrize("x", [2000.0, 5000.0, 6100.0, 2 * math.pi * 1000.0, 15000.0])
def test_pole_map_prewarp_at_other_frequency(x):
    # pre-warping at x != omega_n: the row maps the plant pole with its
    # resonance scaled by the factor at x, matching the coefficient column
    rows = pole_map_table(BOARD, T, [TustinPrewarp(omega_n=x)])
    assert [r.label for r in rows] == ["exact", "sota"]
    k = sbtkit.prewarp_factor(x, T)
    den = qr_discretize(BOARD, TustinPrewarp(omega_n=x), T)
    root_hi, _ = sbtkit.quadratic_roots(sbtkit.Polynomial([den.b0, den.b1, den.b2]))
    assert abs(rows[1].mapped_z - root_hi) < 1e-12
    src = complex(-WC, math.sqrt((k * WN) ** 2 - WC**2))
    assert rows[1].mapped_z == sbtkit.z_from_s(src, SbtParams(0.5, 1.0), T)


def test_pole_map_cross_check_error_type():
    with pytest.raises(sbtkit.CrossCheckError) as exc:
        pole_map_table(BOARD, T, consistency_tol=-1.0)
    assert isinstance(exc.value, sbtkit.SbtkitError)
    assert isinstance(exc.value, ArithmeticError)


def test_complex_response_matches_pointwise_evaluation():
    freqs = np.array([100.0, 950.0, 5000.0])
    disc = qr_discretize(BOARD, Tustin(), T).to_transfer(T)
    for tf, x in ((qr_continuous(BOARD), 2j * math.pi * freqs),
                  (disc, np.exp(2j * math.pi * freqs * T))):
        h, hit = sbtkit.complex_response(tf, freqs)
        assert not hit.any()
        assert h == pytest.approx([tf(complex(v)) for v in x], rel=1e-13)
    with pytest.raises(DomainError):
        sbtkit.complex_response(disc, np.array([10000.0]))


def test_grid_rejects_non_finite_points():
    for pts in ((math.nan,), (100.0, math.inf), (math.inf,)):
        with pytest.raises(ParamError):
            FrequencyGrid.explicit(pts)


@pytest.mark.parametrize("f_lo, f_hi", [(1.0, 0.0), (1.0, -5.0), (0.0, 10.0)])
def test_logarithmic_grid_rejects_non_positive_edge(f_lo, f_hi):
    with pytest.raises(ParamError):
        FrequencyGrid.logarithmic(f_lo, f_hi, 3)


def test_grid_point_cap_is_checked_before_allocating(tmp_path):
    cap = sbtkit.analysis.MAX_GRID_POINTS
    for make in (FrequencyGrid.linear, FrequencyGrid.logarithmic):
        with pytest.raises(ParamError, match="grid of 1000000000000 points"):
            make(10.0, 9000.0, 10**12)
        assert len(make(10.0, 9000.0, cap)) == cap
    with pytest.raises(ParamError, match=f"grid of {cap + 1} points"):
        FrequencyGrid.explicit(range(1, cap + 2))
    path = tmp_path / "big.txt"
    path.write_text("\n".join(str(f) for f in range(1, cap + 2)))
    with pytest.raises(ParamError, match="MAX_GRID_POINTS"):
        load_grid_file(str(path))


def test_source_poles_reject_a_radicand_that_underflows():
    # wc < wn, yet wn^2 - wc^2 underflows to 0: the pole is real
    p = QrParams(KR, 0.5e-170, 1e-170)
    with pytest.raises(DomainError, match="not complex"):
        source_poles(p, T)
    # the pole-map rows take that real pole as it is
    assert [r.mapped_z for r in pole_map_table(p, T)] == [1.0] * 5


@pytest.mark.parametrize("build", [FrequencyGrid.linear, FrequencyGrid.logarithmic])
@pytest.mark.parametrize("f_lo, f_hi", [(1.0, math.inf), (-math.inf, 10.0)])
def test_grid_constructors_reject_non_finite_edges_before_allocating(build, f_lo, f_hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match="finite"):
            build(f_lo, f_hi, 5)


@pytest.mark.parametrize("content", [b"900\nabc\n", b"900\n\xff\n"], ids=["not-a-number", "not-utf8"])
def test_load_grid_file_names_the_file_for_an_unreadable_line(tmp_path, content):
    path = tmp_path / "grid.txt"
    path.write_bytes(content)
    with pytest.raises(ParamError, match="grid file .*grid.txt"):
        load_grid_file(str(path))
