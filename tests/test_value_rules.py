"""Each rule about an incoming value is decided in one place: positive and
finite numbers, the stable alpha range, -0.0 coefficients, colon specs and
the run's constants."""

import json
import math

import numpy as np
import pytest

from sbtkit import (
    BiquadCoeffs,
    DiffEqCoeffs,
    InverterConfig,
    ParamError,
    PiParams,
    Polynomial,
    QrParams,
    Sbt,
    SbtParams,
    SearchConfig,
    StabilityRangeWarning,
    Tustin,
    cli,
    diff_eq_coeffs,
    method_label,
    optimize_alpha_beta,
    qr_continuous,
    qr_discretize,
    sine_steady_state,
    substitute,
    time_factors,
)

KR, WC, WN = 59.1, 17.907, 5969.0
T = 5e-5
BOARD = QrParams(KR, WC, WN)


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "build",
    [lambda: QrParams("1", WC, WN), lambda: PiParams(None, 1e-3), lambda: SbtParams(0.5, 1j)],
    ids=["kr-string", "kp-none", "beta-complex"],
)
def test_a_value_that_is_not_a_real_number_raises_param_error(build):
    with pytest.raises(ParamError, match="must be positive and finite"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QrParams(0.0, WC, WN), "kr must be positive and finite, got 0.0"),
        (lambda: PiParams(math.inf, 1e-3), "kp must be positive and finite, got inf"),
        (lambda: PiParams(2.9, -1e-3), "tau_i must be positive and finite, got -0.001"),
        (lambda: SbtParams(0.5, math.nan), "beta must be positive and finite, got nan"),
    ],
)
def test_positive_finite_messages_name_the_value(build, message):
    with pytest.raises(ParamError) as info:
        build()
    assert str(info.value) == message


def test_numpy_scalars_pass_the_positive_finite_rule():
    assert QrParams(np.float64(KR), WC, WN).kr == KR
    assert PiParams(np.float32(2.955), np.float64(8.594e-4)).tau_i == 8.594e-4
    assert SbtParams(0.5, np.int64(1)).beta == 1


def test_substitute_and_qr_discretize_share_one_stability_warning():
    p = SbtParams(0.3, 1.0)
    with pytest.warns(StabilityRangeWarning) as by_substitution:
        substitute(qr_continuous(BOARD), p, T)
    with pytest.warns(StabilityRangeWarning) as by_column:
        qr_discretize(BOARD, Sbt(p), T)
    text = "alpha=0.3 below 0.5: discretized poles may leave the unit disk"
    assert [str(w.message) for w in by_substitution] == [text]
    assert [str(w.message) for w in by_column] == [text]
    # both point at the line that called the library, not into it
    assert by_substitution[0].filename == by_column[0].filename == __file__


def test_search_box_message_is_unchanged():
    with pytest.raises(ParamError) as info:
        SearchConfig(alpha_range=(0.4, 1.0))
    assert str(info.value) == "alpha_range must satisfy 0.5 <= lo <= hi <= 1, got (0.4, 1.0)"


def test_negative_zero_coefficients_print_as_zero():
    biq = BiquadCoeffs(-0.0, 1.0, -0.0, 1.0, -0.0, 0.5)
    leg = DiffEqCoeffs(-0.0, 1.0, -0.0, -0.0, 0.0)
    for value in (biq.a2, biq.a0, biq.b1, leg.kin0, leg.kin2, leg.kout1):
        assert math.copysign(1.0, value) == 1.0
    assert (biq.a1, biq.b0, leg.kin1) == (1.0, 0.5, 1.0)


def test_polynomial_times_a_number_scales_it():
    assert (Polynomial([1, 2]) * 3.0).coeffs == (3.0, 6.0)


def test_unknown_method_tags_raise_param_error():
    with pytest.raises(ParamError, match="unknown method tag"):
        time_factors(object(), WN, T)
    with pytest.raises(ParamError, match="unknown method tag"):
        method_label(object())


def test_default_search_runs_1842_evaluations():
    res = optimize_alpha_beta(BOARD, T)
    assert len(res.trace) == 1 + 41**2 + 4 * 40 == 1842
    assert res.loss_value <= res.straightforward_loss


def test_board_runs_at_the_sample_rate_given(capsys):
    # 1/(1/fs) != fs for this rate, so a rebuilt rate would move the amplitude
    fs, f = 26309.488837745466, 955.9772386080496
    assert 1.0 / (1.0 / fs) != fs
    code, out, _ = run_err(capsys, "simulate", "board", "--method", "tustin",
                           "--fs", repr(fs), "--f", repr(f), "--format", "json")
    assert code == 0
    coeffs = diff_eq_coeffs(qr_discretize(BOARD, Tustin(), 1.0 / fs))
    expected = sine_steady_state(coeffs, f, fs, settle_cycles=1200, measure_cycles=50)
    assert json.loads(out)[0]["amplitude"] == expected.amplitude


def test_an_overflowing_config_run_reads_the_config_once(tmp_path, capsys, monkeypatch):
    config = tmp_path / "board.json"
    config.write_text(json.dumps({"kr_inv": 1e308}))
    calls = []
    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda path: calls.append(path) or load(path))
    code, _, err = run_err(capsys, "simulate", "inverter", "--config", str(config))
    assert code == 3 and "kr_inv=1e+308" in err
    assert calls == [str(config)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bode", "--grid", "1:2"), "grid spec must be lo:hi:n or lo:hi:n:log, got '1:2'"),
        (("bode", "--grid", "1:2:3:4:5"), "grid spec must be lo:hi:n or lo:hi:n:log, got '1:2:3:4:5'"),
        (("bode", "--grid", "1:2:3:cubic"), "grid spec '1:2:3:cubic': kind must be linear or log"),
        (("bode", "--grid", "10:9500:0"), "grid spec '10:9500:0' needs at least one point"),
        (("rmse", "--grid", "900:1000:1.5"),
         "grid spec '900:1000:1.5': invalid literal for int() with base 10: '1.5'"),
        (("optimize", "--alpha-range", "0.5"), "range must be lo:hi, got '0.5'"),
        (("optimize", "--beta-range", "0.9:1.1:3"), "range must be lo:hi, got '0.9:1.1:3'"),
        (("optimize", "--alpha-range", "a:b"), "range 'a:b': could not convert string to float: 'a'"),
    ],
)
def test_colon_spec_messages_quote_the_spec_as_given(capsys, argv, message):
    code, out, err = run_err(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec", ["940:960:3", "940:960:3:linear", "940:960:3:log"])
def test_grid_spec_kinds(capsys, spec):
    code, out, _ = run_err(capsys, "bode", "--grid", spec, "--format", "csv")
    assert code == 0
    points = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    middle = math.sqrt(940.0 * 960.0) if spec.endswith("log") else 950.0
    assert points == pytest.approx([940.0, middle, 960.0], rel=1e-13)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QrParams(KR, "17.9", WN), "need 0 < omega_c < omega_n < inf, got omega_c='17.9'"),
        (lambda: QrParams(KR, WC, "5969.0"), "got omega_c=17.907 omega_n='5969.0'"),
        (lambda: QrParams(KR, None, WN), "got omega_c=None"),
        (lambda: SbtParams("0.5", 1.0), "alpha must lie in [0, 1], got '0.5'"),
        (lambda: SbtParams(0.5j, 1.0), "alpha must lie in [0, 1], got 0.5j"),
    ],
    ids=["omega-c-string", "omega-n-string", "omega-c-none", "alpha-string", "alpha-complex"],
)
def test_a_frequency_or_alpha_that_is_not_a_real_number_raises_param_error(build, message):
    with pytest.raises(ParamError) as info:
        build()
    assert message in str(info.value)


def test_numpy_scalar_frequencies_and_alpha_pass_the_real_number_rule():
    assert QrParams(KR, np.float64(WC), np.int64(5969)).omega_n == 5969
    assert SbtParams(np.float64(0.5), 1.0).alpha == 0.5


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("l_filter", 0.0, "l_filter must be positive and finite, got 0.0"),
        ("fs_ctrl", -40000.0, "fs_ctrl must be positive and finite, got -40000.0"),
        ("grid_freq", 0, "grid_freq must be positive and finite, got 0"),
    ],
)
def test_inverter_constants_take_the_positive_finite_rule(field, value, message):
    with pytest.raises(ParamError) as info:
        InverterConfig(**{field: value})
    assert str(info.value) == message


def test_non_finite_inverter_constants_keep_their_message():
    with pytest.raises(ParamError, match="^inverter constants must be finite$"):
        InverterConfig(fs_ctrl=math.inf)
