"""Property tests: the one coefficient column against direct substitution
and the pole map, the map against its inverse and its stability circle,
and fuzzed CLI flags against the exit-code contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbtkit import (
    METHODS,
    MapSingularity,
    Polynomial,
    QrParams,
    Sbt,
    SbtParams,
    TustinPrewarp,
    cli,
    pole_map_table,
    qr_continuous,
    qr_discretize,
    quadratic_roots,
    s_from_z,
    stability_circle,
    substitute,
    time_factors,
    z_from_s,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def designs(draw):
    """A method from the registry on a random board, with a period that
    keeps every pre-warp frequency below the angular Nyquist rate."""
    p = QrParams(draw(st.floats(1.0, 100.0)), draw(st.floats(1.0, 100.0)),
                 draw(st.floats(500.0, 20000.0)))
    T = draw(st.floats(1e-5, 1e-4))
    tag = METHODS[draw(st.sampled_from(sorted(METHODS)))]
    if tag is Sbt:
        method = Sbt(SbtParams(draw(st.floats(0.5, 1.0)), draw(st.floats(0.9, 1.1))))
    elif tag is TustinPrewarp:
        method = TustinPrewarp(draw(st.none() | st.floats(100.0, 0.9 * math.pi / T)))
    else:
        method = tag()
    return p, T, method


def _close(got, want):
    # relative to the largest coefficient: single coefficients may cancel
    want = np.asarray(want + [0.0] * (3 - len(want)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@PROPERTY
@given(designs())
def test_one_column_equals_substitution_and_pole_image(design):
    p, T, method = design
    alpha, beta_c, beta_n = time_factors(method, p.omega_n, T)
    biq = qr_discretize(p, method, T)
    plant = QrParams(p.kr, p.omega_c, p.omega_n * beta_n / beta_c)
    sub = substitute(qr_continuous(plant), SbtParams(alpha, beta_c), T)
    _close([biq.a0, biq.a1, biq.a2], list(sub.num.coeffs))
    _close([biq.b0, biq.b1, biq.b2], list(sub.den.coeffs))
    root_hi, _ = quadratic_roots(Polynomial([biq.b0, biq.b1, biq.b2]))
    mapped = pole_map_table(p, T, [method])[1].mapped_z
    assert abs(root_hi - mapped) <= 1e-10


def _s_plane(bound, sigma_max):
    return st.builds(complex, st.floats(-bound, sigma_max), st.floats(-bound, bound))


@PROPERTY
@given(st.floats(0.0, 1.0), st.floats(0.5, 2.0), st.floats(1e-5, 1e-3), _s_plane(100.0, 100.0))
def test_inverse_map_undoes_the_map(alpha, beta, T, s_unit):
    # s in units of 1/(beta*T): far out, z nears the inverse-map singularity
    # and the round trip loses about beta*T*|s| ulps, the map's own conditioning
    s = s_unit / (beta * T)
    p = SbtParams(alpha, beta)
    try:
        back = s_from_z(z_from_s(s, p, T), p, T)
    except MapSingularity:
        return
    assert abs(back - s) <= 1e-12 * max(abs(s), 1.0 / (beta * T))


@PROPERTY
@given(st.floats(0.5, 1.0), st.floats(0.5, 2.0), st.floats(1e-5, 1e-3), _s_plane(1e7, 0.0))
def test_left_half_plane_lands_in_the_stability_circle(alpha, beta, T, s):
    z = z_from_s(s, SbtParams(alpha, beta), T)
    assert stability_circle(alpha).contains(z, tol=1e-12)
    assert abs(z) <= 1.0 + 1e-12


def _number():
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "x", ""]),
        st.floats(0.1, 1e5).map(repr),
    )


def _grid():
    spec = st.tuples(_number(), _number(), st.integers(-2, 40).map(str),
                     st.sampled_from([None, "log", "linear", "cubic"]))
    joined = spec.map(lambda t: ":".join(v for v in t if v is not None))
    return joined | st.sampled_from(["900", "1:2", "900:1000:5:log:x", "a:b:c"])


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from([
        ("discretize",), ("discretize", "--diffeq"), ("bode",), ("error",), ("rmse",),
        ("pole-map",), ("optimize", "--coarse", "3", "--iters", "1"),
    ]),
    flags=st.dictionaries(
        st.sampled_from(["--fs", "--kr", "--wc", "--wn", "--alpha", "--beta"]), _number()
    ),
    grid=st.none() | _grid(),
    method=st.none() | st.sampled_from(["euler", "sota", "sbt", "analog", "exact,sbt", "pi", ""]),
    fmt=st.sampled_from(["table", "csv", "json"]),
)
def test_fuzzed_flags_keep_the_exit_code_contract(command, flags, grid, method, fmt):
    argv = list(command) + [f"{k}={v}" for k, v in flags.items()] + [f"--format={fmt}"]
    if grid is not None and command[0] not in ("discretize", "pole-map"):
        argv.append(f"--grid={grid}")
    if method is not None:
        argv.append(f"--method={method}")
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unparsable value
        code = exc.code
    assert code in (0, 2, 3, 4), argv
