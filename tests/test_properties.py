"""Property tests: the one coefficient column against direct substitution
and the pole map, the map against its inverse and its stability circle,
and fuzzed CLI flags against the exit-code contract."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbtkit import (
    METHODS,
    MapSingularity,
    Polynomial,
    QrParams,
    Sbt,
    SbtParams,
    StabilityRangeWarning,
    TustinPrewarp,
    UnstableWarning,
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


def _bounded(lo, hi):
    """Invalid values, or a finite value in [lo, hi]."""
    return st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "x"]) | st.floats(
        lo, hi).map(repr)


# a board run reads at most (settle + 2*measure)*fs/f + 2*4096 samples and an
# inverter run duration*fs_ctrl steps, so neither passes about 40,000 per method
SIMULATE = {
    "board": st.fixed_dictionaries({
        "--settle-cycles": st.integers(-2, 60).map(str),
        "--measure-cycles": st.integers(-2, 10).map(str),
    }, optional={
        "--f": _bounded(100.0, 5000.0),
        "--fs": st.sampled_from(["20000"]) | _bounded(5000.0, 40000.0),
        "--amp": _number(),
        "--kr": _number(), "--wc": _number(), "--wn": _number(),
        "--alpha": _number(), "--beta": _number(),
    }),
    "inverter": st.fixed_dictionaries({}, optional={
        "--fs-ctrl": st.sampled_from(["10000", "20000", "40000"]) | _bounded(2000.0, 40000.0),
        "--duration": _bounded(0.4, 1.0),
        "--harmonic-freq": _number(),
        "--harmonic-amp": _number(),
        "--i-ref": _number(),
        "--delay-samples": st.integers(-2, 10**6).map(str) | st.just("1.5"),
        "--periods": st.integers(-2, 40).map(str),
        "--wc": _number(), "--wn": _number(), "--alpha": _number(), "--beta": _number(),
    }),
}


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(sorted(SIMULATE)),
    data=st.data(),
    method=st.sampled_from(["euler", "tustin", "sota", "sbt", "pi", "sbt,pi", "simpson"]),
    fmt=st.sampled_from(["table", "csv", "json"]),
)
def test_fuzzed_simulate_flags_keep_the_exit_code_contract(scenario, data, method, fmt):
    flags = data.draw(SIMULATE[scenario])
    argv = ["simulate", scenario] + [f"{k}={v}" for k, v in flags.items()]
    argv += [f"--method={method}", f"--format={fmt}"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4), argv


EXTREMES = ["inf", "-inf", "nan", "1e308", "-1e308", "1e-320", "0", "-1"]


def _value(lo, hi):
    """A finite value in [lo, hi] three times in four, else an extreme of a double."""
    return st.integers(0, 3).flatmap(
        lambda i: st.floats(lo, hi).map(repr) if i else st.sampled_from(EXTREMES))


def _joined(*parts):
    return st.tuples(*parts).map(lambda t: ":".join(v for v in t if v is not None))


def _flags(**special):
    return st.fixed_dictionaries({}, optional=special)


# a finite value of each constant lies in the range the reference board sits in
CONSTANTS = {
    "--kr": _value(1.0, 100.0), "--wc": _value(1.0, 100.0), "--wn": _value(500.0, 20000.0),
    "--fs": _value(5000.0, 40000.0), "--alpha": _value(0.5, 1.0), "--beta": _value(0.9, 1.1),
}
ANY = st.floats().map(repr)
GRID = {"--grid": _joined(_value(1.0, 9000.0) | ANY, _value(1.0, 9000.0) | ANY,
                          st.integers(1, 5).map(str), st.sampled_from([None, "log"]))}
RANGES = {
    "--alpha-range": _joined(_value(0.5, 1.0) | ANY, _value(0.5, 1.0) | ANY),
    "--beta-range": _joined(_value(0.9, 1.1) | ANY, _value(0.9, 1.1) | ANY),
}
OPTIMIZE = ("optimize", "--coarse", "3", "--iters", "1")
BOARD = ("simulate", "board", "--settle-cycles", "20", "--measure-cycles", "4")

# an optimize run makes at most 14 loss evaluations; a board run reads at
# most about 20,000 samples per method, since a finite --f/--fs is >= 1/400
WARNING_FUZZ = {
    ("discretize", "--diffeq"): _flags(**CONSTANTS),
    ("pole-map",): _flags(**CONSTANTS),
    ("bode",): _flags(**CONSTANTS, **GRID),
    ("error",): _flags(**CONSTANTS, **GRID),
    ("rmse",): _flags(**CONSTANTS, **GRID),
    OPTIMIZE: _flags(**{k: CONSTANTS[k] for k in ("--kr", "--wc", "--wn", "--fs")}, **GRID, **RANGES),
    BOARD: _flags(**CONSTANTS, **{"--amp": _value(0.1, 10.0), "--f": _value(100.0, 5000.0)}),
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(sorted(WARNING_FUZZ)).flatmap(
        lambda command: st.tuples(st.just(command), WARNING_FUZZ[command])),
    fmt=st.sampled_from(["table", "csv", "json"]),
)
@example(case=(BOARD, {"--amp": "inf"}), fmt="table")
@example(case=(OPTIMIZE, {"--beta-range": "0.9:inf"}), fmt="table")
@example(case=(("bode",), {"--grid": "1:inf:5"}), fmt="csv")
@example(case=(OPTIMIZE, {"--grid": "1:inf:5"}), fmt="table")
@example(case=(("bode",), {"--grid": "1:1e308:5:log"}), fmt="json")
def test_fuzzed_float_flags_raise_no_numpy_warning(case, fmt):
    command, flags = case
    argv = list(command) + [f"{k}={v}" for k, v in flags.items()] + [f"--format={fmt}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the run
        warnings.simplefilter("ignore", StabilityRangeWarning)
        warnings.simplefilter("ignore", UnstableWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
