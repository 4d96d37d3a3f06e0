"""Closed-form discretization of the resonant current controller."""

import cmath
import math

import numpy as np
import pytest

from sbtkit import (
    BiquadCoeffs,
    Euler,
    NormalizationError,
    ParamError,
    PiParams,
    QrParams,
    Sbt,
    SbtParams,
    StabilityRangeWarning,
    TransferFunction,
    Tustin,
    TustinPrewarp,
    diff_eq_coeffs,
    method_params,
    parallel,
    pi_continuous,
    pi_discretize,
    pir_continuous,
    pir_discretize,
    prewarp_factor,
    q_loss,
    qr_continuous,
    qr_discretize,
    sbt_params_straightforward,
    substitute,
)

KR, WC, WN = 59.1, 17.907, 5969.0
T = 5e-5
BOARD = QrParams(KR, WC, WN)
PI = PiParams(2.955, 8.594e-4)

ALL_METHODS = (Euler(), Tustin(), TustinPrewarp(), Sbt(SbtParams(0.65, 1.003)))


def test_qr_params_validation():
    with pytest.raises(ParamError):
        QrParams(0.0, WC, WN)
    with pytest.raises(ParamError):
        QrParams(KR, -1.0, WN)
    with pytest.raises(ParamError):
        QrParams(KR, WN, WC)  # bandwidth above resonance


def test_pi_params_validation():
    with pytest.raises(ParamError):
        PiParams(0.0, 1e-3)
    with pytest.raises(ParamError):
        PiParams(1.0, 0.0)


def test_qr_continuous_peak_gain_is_kr():
    g = qr_continuous(BOARD)
    assert abs(g(1j * WN)) == pytest.approx(KR, rel=1e-12)


def test_qr_continuous_kills_dc_and_rolls_off():
    g = qr_continuous(BOARD)
    assert g(0j) == 0.0
    assert abs(g(1j * 0.0628)) < 0.01  # 0.01 Hz
    assert abs(g(1j * 10 * WN)) < KR / 10


def test_closed_form_matches_substitution():
    rng = np.random.RandomState(101)
    for _ in range(100):
        p = QrParams(rng.uniform(1, 100), rng.uniform(1, 100), rng.uniform(500, 20000))
        Ts = rng.uniform(1e-5, 2e-4)
        params = SbtParams(rng.uniform(0.5, 1.0), rng.uniform(0.9, 1.1))
        biq = qr_discretize(p, Sbt(params), Ts)
        sub = substitute(qr_continuous(p), params, Ts)
        got = [biq.a0, biq.a1, biq.a2]
        assert got == pytest.approx(list(sub.num.coeffs) + [0.0] * (3 - len(sub.num.coeffs)), rel=1e-12)
        assert [biq.b0, biq.b1, biq.b2] == pytest.approx(list(sub.den.coeffs), rel=1e-12)


def test_backward_difference_column_recovered_exactly():
    a = qr_discretize(BOARD, Euler(), T)
    b = qr_discretize(BOARD, Sbt(SbtParams(1.0, 1.0)), T)
    assert (a.a2, a.a1, a.a0, a.b2, a.b1, a.b0) == (b.a2, b.a1, b.a0, b.b2, b.b1, b.b0)


def test_trapezoidal_column_recovered_exactly():
    a = qr_discretize(BOARD, Tustin(), T)
    b = qr_discretize(BOARD, Sbt(SbtParams(0.5, 1.0)), T)
    assert (a.a2, a.a1, a.a0, a.b2, a.b1, a.b0) == (b.a2, b.a1, b.a0, b.b2, b.b1, b.b0)


def test_backward_difference_column_values():
    c = qr_discretize(BOARD, Euler(), T)
    assert c.a2 == pytest.approx(2 * KR * WC * T, rel=1e-15)
    assert c.a1 == pytest.approx(-2 * KR * WC * T, rel=1e-15)
    assert c.a0 == 0.0
    assert c.b2 == pytest.approx(1 + 2 * WC * T + (WN * T) ** 2, rel=1e-15)
    assert c.b1 == pytest.approx(-2 - 2 * WC * T, rel=1e-15)
    assert c.b0 == 1.0


def test_trapezoidal_column_values():
    c = qr_discretize(BOARD, Tustin(), T)
    assert c.a2 == pytest.approx(KR * WC * T, rel=1e-15)
    assert c.a1 == 0.0
    assert c.a0 == pytest.approx(-KR * WC * T, rel=1e-15)
    assert c.b2 == pytest.approx(1 + WC * T + (0.5 * WN * T) ** 2, rel=1e-15)
    assert c.b1 == pytest.approx((0.5 * WN * T) ** 2 * 2 - 2, rel=1e-12)
    assert c.b0 == pytest.approx(1 - WC * T + (0.5 * WN * T) ** 2, rel=1e-15)


def test_prewarped_column_scales_resonance_only():
    c = qr_discretize(BOARD, TustinPrewarp(), T)
    t = qr_discretize(BOARD, Tustin(), T)
    k = prewarp_factor(WN, T)
    # numerator untouched, bandwidth terms untouched, resonance term scaled
    assert (c.a2, c.a1, c.a0) == (t.a2, t.a1, t.a0)
    assert c.b2 - t.b2 == pytest.approx((k**2 - 1) * (0.5 * WN * T) ** 2, rel=1e-9)
    assert c.b0 - t.b0 == pytest.approx((k**2 - 1) * (0.5 * WN * T) ** 2, rel=1e-9)
    assert c.b2 == pytest.approx(1 + WC * T + (0.5 * k * WN * T) ** 2, rel=1e-15)


def test_prewarped_column_equals_substituted_prewarped_plant():
    k = prewarp_factor(WN, T)
    warped = QrParams(KR, WC, k * WN)
    sub = substitute(qr_continuous(warped), SbtParams(0.5, 1.0), T)
    c = qr_discretize(BOARD, TustinPrewarp(), T)
    assert [c.b0, c.b1, c.b2] == pytest.approx(list(sub.den.coeffs), rel=1e-14)


def test_numerator_sum_zero_for_all_columns():
    for m in ALL_METHODS:
        c = qr_discretize(BOARD, m, T)
        assert c.a2 + c.a1 + c.a0 == pytest.approx(0.0, abs=1e-15)


def test_denominator_at_one_is_scaled_resonance_squared():
    for m in ALL_METHODS:
        c = qr_discretize(BOARD, m, T)
        params = method_params(m, WN, T)
        assert c.b2 + c.b1 + c.b0 == pytest.approx((params.beta * WN * T) ** 2, rel=1e-9)


def test_straightforward_params():
    sp = sbt_params_straightforward(BOARD, T)
    assert sp.alpha == 0.5
    assert sp.beta == pytest.approx(prewarp_factor(WN, T), rel=1e-15)


def test_straightforward_biquad_frozen_values():
    biq = qr_discretize(BOARD, Sbt(sbt_params_straightforward(BOARD, T)), T)
    assert biq.a2 == pytest.approx(0.053311488903488156, rel=1e-14)
    assert biq.a1 == 0.0
    assert biq.a0 == pytest.approx(-0.053311488903488156, rel=1e-14)
    assert biq.b2 == pytest.approx(1.0235049555205138, rel=1e-14)
    assert biq.b1 == pytest.approx(-1.954794200258583, rel=1e-14)
    assert biq.b0 == pytest.approx(1.0217008442209035, rel=1e-14)
    # published rounded magnitude of the leading numerator coefficient
    assert biq.a2 == pytest.approx(5.3307e-2, rel=1e-3)


def test_discretize_warns_below_stable_alpha():
    with pytest.warns(StabilityRangeWarning):
        qr_discretize(BOARD, Sbt(SbtParams(0.4, 1.0)), T)


def test_biquad_validation_and_transfer():
    with pytest.raises(ParamError):
        BiquadCoeffs(1.0, 0.0, -1.0, 0.0, 1.0, 1.0)  # b2 = 0
    c = qr_discretize(BOARD, Tustin(), T)
    tf = c.to_transfer(T)
    assert tf.is_discrete and tf.dt == T
    z = cmath.exp(1j * WN * T)
    manual = (c.a2 * z**2 + c.a1 * z + c.a0) / (c.b2 * z**2 + c.b1 * z + c.b0)
    assert tf(z) == pytest.approx(manual, rel=1e-12)


def test_diff_eq_normalization():
    c = qr_discretize(BOARD, Sbt(sbt_params_straightforward(BOARD, T)), T)
    d = diff_eq_coeffs(c)
    assert d.kin0 == pytest.approx(c.a2 / c.b2, rel=1e-15)
    assert d.kin1 == pytest.approx(c.a1 / c.b2, rel=1e-15)
    assert d.kin2 == pytest.approx(c.a0 / c.b2, rel=1e-15)
    assert d.kout1 == pytest.approx(-c.b1 / c.b2, rel=1e-15)
    assert d.kout2 == pytest.approx(-c.b0 / c.b2, rel=1e-15)
    # frozen regression values
    assert d.kin0 == pytest.approx(0.052087182007219554, rel=1e-14)
    assert d.kout1 == pytest.approx(1.9099020378112899, rel=1e-14)
    assert d.kout2 == pytest.approx(-0.9982373204058471, rel=1e-14)


def test_diff_eq_rejects_tiny_leading_coefficient():
    c = BiquadCoeffs(1.0, 0.0, -1.0, 1e-310, 1.0, 1.0)
    with pytest.raises(NormalizationError):
        diff_eq_coeffs(c)


def test_pi_continuous_shape():
    g = pi_continuous(PI)
    # kp + kp/(tau_i*s): proportional floor plus integral rise
    s = 1j * 2 * math.pi * 5000.0
    assert abs(g(s)) == pytest.approx(abs(PI.kp + PI.kp / (PI.tau_i * s)), rel=1e-12)
    assert abs(g(1j * 0.01)) > 1e4


def test_pir_continuous_is_parallel_sum():
    g = pir_continuous(PI, BOARD)
    ref = parallel(pi_continuous(PI), qr_continuous(BOARD))
    for w in (100.0, 314.159, WN, 2 * WN):
        assert g(1j * w) == pytest.approx(ref(1j * w), rel=1e-10)


def test_pir_gain_jumps_at_resonance():
    g = pir_continuous(PI, BOARD)
    pi_only = pi_continuous(PI)
    lift_db = 20 * math.log10(abs(g(1j * WN)) / abs(pi_only(1j * WN)))
    assert lift_db > 20.0


def test_pi_discretize_trapezoidal_values():
    Ts = 1.0 / 40000.0
    d = pi_discretize(PI, Ts)
    assert d.kin0 == pytest.approx(PI.kp * (1 + Ts / (2 * PI.tau_i)), rel=1e-14)
    assert d.kin1 == pytest.approx(PI.kp * (Ts / (2 * PI.tau_i) - 1), rel=1e-14)
    assert d.kin2 == 0.0
    assert d.kout1 == 1.0
    assert d.kout2 == 0.0
    assert d.kin0 == pytest.approx(2.997980567838027, rel=1e-14)
    assert d.kin1 == pytest.approx(-2.9120194321619737, rel=1e-14)


def test_pi_discretize_integrates_constant_error():
    Ts = 1.0 / 40000.0
    d = pi_discretize(PI, Ts)
    y1 = d.kin0  # first output for unit step
    y2 = d.kin0 + d.kin1 + d.kout1 * y1
    # per-step increase equals kp*Ts/tau_i from then on
    assert y2 - y1 == pytest.approx(PI.kp * Ts / PI.tau_i, rel=1e-10)


def test_pir_discretize_returns_both_legs():
    Ts = 1.0 / 40000.0
    inv = QrParams(44.325, WC, WN)
    legs = pir_discretize(PI, inv, TustinPrewarp(), Ts)
    assert len(legs) == 2
    assert legs[0] == pi_discretize(PI, Ts)
    assert legs[1] == diff_eq_coeffs(qr_discretize(inv, TustinPrewarp(), Ts))


PERIOD_TAKERS = {
    "qr_discretize": lambda period: qr_discretize(BOARD, Euler(), period),
    "pi_discretize": lambda period: pi_discretize(PI, period),
    "method_params euler": lambda period: method_params(Euler(), WN, period),
    "method_params sbt": lambda period: method_params(Sbt(SbtParams(0.6, 1.0)), WN, period),
    "TransferFunction": lambda period: TransferFunction([1.0], [1.0, 1.0], dt=period),
    "q_loss": lambda period: q_loss(0.6, 1.0, BOARD, period),
}


@pytest.mark.parametrize("period", [-5e-5, 0.0, math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(PERIOD_TAKERS))
def test_every_function_that_takes_a_period_rejects_an_invalid_one(name, period):
    with pytest.raises(ParamError, match="sample period must be positive and finite"):
        PERIOD_TAKERS[name](period)


@pytest.mark.parametrize("period", [np.float32(5e-5), np.float64(5e-5), 1])
def test_a_period_of_any_real_type_is_accepted(period):
    assert qr_discretize(BOARD, Euler(), period).to_transfer(period).dt == period
    assert pi_discretize(PI, period).kout1 == 1.0
