"""Polynomial and transfer-function building blocks."""

import numpy as np
import pytest

from sbtkit import (
    DegreeError,
    DomainMismatch,
    EmptyInput,
    ParamError,
    PoleHit,
    Polynomial,
    TransferFunction,
    complex_response,
    parallel,
    quadratic_roots,
)


def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1


def test_polynomial_keeps_single_zero():
    p = Polynomial([0.0, 0.0])
    assert p.coeffs == (0.0,)
    assert p.is_zero()


def test_polynomial_empty_rejected():
    with pytest.raises(EmptyInput):
        Polynomial([])


def test_polynomial_eval_matches_numpy():
    rng = np.random.RandomState(11)
    for _ in range(50):
        coeffs = rng.uniform(-3, 3, size=rng.randint(1, 6))
        p = Polynomial(coeffs)
        x = rng.uniform(-2, 2)
        expected = np.polyval(list(reversed(p.coeffs)), x)
        assert p(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_polynomial_eval_complex_and_array():
    p = Polynomial([1.0, 0.0, 1.0])  # 1 + x^2
    assert p(1j) == pytest.approx(0.0)
    out = p(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


def test_constant_polynomial_broadcasts_over_arrays():
    p = Polynomial([3.0])
    out = p(np.array([1.0, 2.0]))
    assert np.allclose(out, [3.0, 3.0])
    assert p(2j) == 3.0


def test_polynomial_add_mul_scale_power():
    rng = np.random.RandomState(7)
    for _ in range(30):
        a = Polynomial(rng.uniform(-2, 2, size=rng.randint(1, 4)))
        b = Polynomial(rng.uniform(-2, 2, size=rng.randint(1, 4)))
        x = rng.uniform(-1.5, 1.5)
        assert (a + b)(x) == pytest.approx(a(x) + b(x), rel=1e-12, abs=1e-12)
        assert (a * b)(x) == pytest.approx(a(x) * b(x), rel=1e-11, abs=1e-11)
        assert (2.5 * a)(x) == pytest.approx(2.5 * a(x), rel=1e-12, abs=1e-12)
        assert a.power(3)(x) == pytest.approx(a(x) ** 3, rel=1e-10, abs=1e-10)


def test_polynomial_power_zero_is_one():
    p = Polynomial([4.0, 5.0])
    assert p.power(0).coeffs == (1.0,)
    with pytest.raises(ParamError):
        p.power(-1)


def test_transfer_function_rejects_zero_denominator():
    with pytest.raises(ParamError):
        TransferFunction(Polynomial([1.0]), Polynomial([0.0]))


def test_transfer_function_rejects_bad_dt():
    with pytest.raises(ParamError):
        TransferFunction(Polynomial([1.0]), Polynomial([1.0]), dt=0.0)
    with pytest.raises(ParamError):
        TransferFunction(Polynomial([1.0]), Polynomial([1.0]), dt=-1e-3)


def test_transfer_function_coerces_sequences():
    tf = TransferFunction([0.0, 1.0], [1.0, 1.0])
    assert isinstance(tf.num, Polynomial)
    assert not tf.is_discrete
    assert tf(1j) == pytest.approx(1j / (1 + 1j))


def test_transfer_function_domain_flag():
    disc = TransferFunction([1.0], [1.0], dt=1e-4)
    assert disc.is_discrete
    assert disc.dt == 1e-4


def test_pole_hit():
    tf = TransferFunction([1.0], [-1.0, 1.0])  # 1/(x-1)
    with pytest.raises(PoleHit):
        tf(1.0)
    assert tf(2.0) == pytest.approx(1.0)


def test_parallel_sums_responses():
    rng = np.random.RandomState(23)
    for _ in range(20):
        a = TransferFunction(rng.uniform(-1, 1, 2), np.append(rng.uniform(0.5, 2, 1), 1.0))
        b = TransferFunction(rng.uniform(-1, 1, 2), np.append(rng.uniform(0.5, 2, 1), 1.0))
        s = parallel(a, b)
        x = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
        assert s(x) == pytest.approx(a(x) + b(x), rel=1e-12)


def test_parallel_rejects_domain_mix():
    cont = TransferFunction([1.0], [1.0, 1.0])
    disc = TransferFunction([1.0], [1.0, 1.0], dt=1e-4)
    other = TransferFunction([1.0], [1.0, 1.0], dt=2e-4)
    with pytest.raises(DomainMismatch):
        parallel(cont, disc)
    with pytest.raises(DomainMismatch):
        parallel(disc, other)


def test_quadratic_roots_complex_pair_ordering():
    # x^2 + 2x + 5 has roots -1 +/- 2j
    hi, lo = quadratic_roots(Polynomial([5.0, 2.0, 1.0]))
    assert hi == pytest.approx(-1 + 2j)
    assert lo == pytest.approx(-1 - 2j)
    assert hi.imag > 0 > lo.imag


def test_quadratic_roots_real_pair_ordering():
    # (x-1)(x+3)
    hi, lo = quadratic_roots(Polynomial([-3.0, 2.0, 1.0]))
    assert hi == pytest.approx(1.0)
    assert lo == pytest.approx(-3.0)


def test_quadratic_roots_avoids_cancellation():
    # (x - 1e8)(x - 1e-8): the naive formula loses the small root entirely
    hi, lo = quadratic_roots(Polynomial([1.0, -(1e8 + 1e-8), 1.0]))
    assert hi.real == pytest.approx(1e8, rel=1e-12)
    assert lo.real == pytest.approx(1e-8, rel=1e-12)


def test_quadratic_roots_degree_check():
    with pytest.raises(DegreeError):
        quadratic_roots(Polynomial([1.0, 1.0]))
    with pytest.raises(DegreeError):
        quadratic_roots(Polynomial([1.0, 1.0, 1.0, 1.0]))


def test_quadratic_roots_random_reconstruction():
    rng = np.random.RandomState(3)
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-4, 4)
        c = rng.uniform(-4, 4)
        r1, r2 = quadratic_roots(Polynomial([c, b, a]))
        # Vieta: sum and product of the roots recover the coefficients
        assert (r1 + r2) == pytest.approx(-b / a, rel=1e-9, abs=1e-9)
        assert (r1 * r2) == pytest.approx(c / a, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d, hit", [(0.9e-300, True), (1.1e-300, False)])
def test_point_and_sweep_share_the_pole_hit_threshold(d, hit):
    tf = TransferFunction(Polynomial([1.0]), Polynomial([d]))
    _, flags = complex_response(tf, np.array([50.0]))
    assert bool(flags[0]) is hit
    if hit:
        with pytest.raises(PoleHit):
            tf(1j)
    else:
        assert tf(1j) == 1.0 / d
