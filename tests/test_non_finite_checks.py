"""Checks that fail closed on NaN, and the trace tables the CLI stages.

The two-route checks (a root's residual, and the analytic pole image
against the denominator root) are written as not (x <= bound), so a NaN on
either side fails them.  A magnitude error that is not finite raises
DomainError, which the CLI reports as exit 3 with one line.  Every file a
command stages is a (path, columns, rows) table rendered by cli._emit.
"""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbtkit import (
    CrossCheckError,
    DomainError,
    Polynomial,
    QrParams,
    TustinPrewarp,
    analysis,
    cli,
    controllers,
    qr_continuous,
    qr_discretize,
    quadratic_roots,
    sim,
)
from test_properties import BOARD, OPTIMIZE, WARNING_FUZZ

P = QrParams(59.1, 17.907, 5969.0)
T = 1.0 / 20000.0


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_root_residual_check_rejects_nan_roots():
    with pytest.raises(CrossCheckError, match=r"\|p\(r\)\|=nan"):
        quadratic_roots(Polynomial([math.nan, 1.0, 1.0]))


def test_pole_image_check_rejects_a_nan_image(monkeypatch):
    # the roots are finite here; only the analytic route gives nan
    monkeypatch.setattr(analysis, "z_from_s", lambda *args: complex(math.nan, math.nan))
    with pytest.raises(CrossCheckError, match="analytic pole image"):
        analysis.pole_map_table(P, T, [TustinPrewarp()])


def test_pole_map_of_an_overflowed_beta_exits_3(capsys):
    code, out, err = run_err(capsys, "pole-map", "--methods", "sbt", "--alpha", "0.5",
                             "--beta", "1.7e308", "--format", "csv")
    assert (code, out) == (3, "")
    assert err == "error: root residual check failed at (nan+nanj): |p(r)|=nan\n"


@pytest.mark.parametrize("grid, first", [
    (analysis.FrequencyGrid.explicit([5e-324]), 5e-324),
    (analysis.FrequencyGrid.linear(5e-324, 1e-320, 3), 5e-324),
])
def test_magnitude_error_that_is_not_finite_raises(grid, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the subtraction raises no numpy warning
        with pytest.raises(DomainError) as info:
            analysis.magnitude_error_curve(
                qr_continuous(P), qr_discretize(P, TustinPrewarp(), T).to_transfer(T), grid)
    assert str(info.value) == f"magnitude error is not finite at {first!r} Hz"


@pytest.mark.parametrize("argv, first", [
    (("rmse", "--methods", "tustin,sbt", "--kr", "6e306"), "900.0"),
    (("rmse", "--grid", "5e-324:5e-324:1"), "5e-324"),
    (("rmse", "--grid", "5e-324:5e-324:1", "--format", "json"), "5e-324"),
    (("error", "--grid", "5e-324:1e-320:3", "--method", "sota"), "5e-324"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_non_finite_magnitude_errors_exit_3(capsys, argv, first):
    code, out, err = run_err(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: magnitude error is not finite at {first} Hz\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(sorted(WARNING_FUZZ)).flatmap(
        lambda command: st.tuples(st.just(command), WARNING_FUZZ[command])),
    fmt=st.sampled_from(["table", "csv", "json"]),
)
@example(case=(("rmse",), {"--methods": "tustin,sbt", "--kr": "6e306"}), fmt="table")
@example(case=(("rmse",), {"--grid": "5e-324:5e-324:1"}), fmt="table")
@example(case=(("error",), {"--grid": "5e-324:1e-320:3", "--method": "sota"}), fmt="csv")
@example(case=(("pole-map",), {"--methods": "sbt", "--alpha": "0.5", "--beta": "1.7e308"}),
         fmt="csv")
@example(case=(BOARD, {"--amp": "inf"}), fmt="table")
@example(case=(OPTIMIZE, {"--grid": "1:inf:5"}), fmt="table")
def test_fuzzed_float_flags_print_no_numpy_warning(case, fmt):
    # read stderr, not the warnings: cli.main's own catch_warnings hides a
    # warning from an outer record=True, and one raised as an error ends
    # in exit 2; "always" prints every warning as a "warning: " line
    command, flags = case
    argv = list(command) + [f"{k}={v}" for k, v in flags.items()] + [f"--format={fmt}"]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "encountered in" not in err.getvalue(), (argv, err.getvalue())


def test_inverter_trace_file_is_the_trace_table(tmp_path):
    # the CLI stages the trace's fields as columns; write_trace_csv renders the same table
    assert cli.main(["simulate", "inverter", "--method", "pi", "--duration", "0.5",
                     "--trace-dir", str(tmp_path)]) == 0
    c = cli.DEFAULTS
    cfg = sim.InverterConfig(duration=0.5)
    pi_leg = controllers.pi_discretize(controllers.PiParams(c["kp"], c["tau_i"]), 1.0 / cfg.fs_ctrl)
    sim.write_trace_csv(sim.inverter_closed_loop(cfg, (pi_leg,)), str(tmp_path / "lib.csv"))
    staged = (tmp_path / "inverter_pi.csv").read_bytes()
    assert staged.startswith(b"t,i_grid,v_grid,v_inv\n")
    assert staged == (tmp_path / "lib.csv").read_bytes()
