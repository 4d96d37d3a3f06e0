"""The CLI's exit-code contract, one class at a time.

cli.main turns every error a command raises into one ``error: ...`` line on
stderr and an exit code: 2 for a ParamError, an OSError or a warning the
caller's filters raise, 4 for a NumericOverflow, 3 for any other toolkit
error and for a double-precision OverflowError, whose line lists the
resolved constants.  The first step of discretize (cli._qr, looked up when
the command runs; the parser is built once and keeps its handlers) is
replaced by one that raises, so every class is checked, also those that no
CLI case reaches today."""

import warnings

import pytest

from sbtkit import cli, errors

# each toolkit error class and the code the README gives it
CODES = {
    errors.SbtkitError: 3,
    errors.ParamError: 2,
    errors.DomainError: 3,
    errors.DomainMismatch: 3,
    errors.DegreeError: 3,
    errors.PoleHit: 3,
    errors.MapSingularity: 3,
    errors.OriginError: 3,
    errors.CrossCheckError: 3,
    errors.NormalizationError: 3,
    errors.EmptyInput: 3,
    errors.NumericOverflow: 4,
    errors.NotSettled: 3,
    errors.WindowError: 3,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def run_raising(monkeypatch, capsys, exc, *argv):
    """cli.main on discretize (or argv) with its first step replaced by one
    that raises exc: (exit code, stderr lines, stdout)."""
    def first_step(args):
        raise exc

    monkeypatch.setattr(cli, "_qr", first_step)
    code = cli.main(list(argv) or ["discretize"])
    out, err = capsys.readouterr()
    return code, err.splitlines(), out


def test_the_table_names_every_toolkit_error():
    assert set(_subclasses(errors.SbtkitError)) | {errors.SbtkitError} == set(CODES)


@pytest.mark.parametrize("cls", list(CODES), ids=lambda cls: cls.__name__)
def test_each_toolkit_error_exits_with_its_code_and_one_line(monkeypatch, capsys, cls):
    code, err, out = run_raising(monkeypatch, capsys, cls("the message"))
    assert (code, err, out) == (CODES[cls], ["error: the message"], "")


@pytest.mark.parametrize("exc", [
    OSError("disk gone"),
    FileNotFoundError(2, "No such file or directory", "missing.txt"),
    PermissionError(13, "Permission denied", "out.txt"),
], ids=lambda exc: type(exc).__name__)
def test_an_os_error_exits_2_with_one_line(monkeypatch, capsys, exc):
    code, err, out = run_raising(monkeypatch, capsys, exc)
    assert (code, err, out) == (2, [f"error: {exc}"], "")


@pytest.mark.parametrize("category", [
    errors.StabilityRangeWarning, errors.UnstableWarning, RuntimeWarning, UserWarning,
])
def test_a_warning_raised_by_the_callers_filters_exits_2_with_one_line(monkeypatch, capsys,
                                                                       category):
    def first_step(args):
        warnings.warn("the warning", category)
        raise AssertionError("the filters did not raise the warning")

    monkeypatch.setattr(cli, "_qr", first_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["discretize"])
    out, err = capsys.readouterr()
    assert (code, err.splitlines(), out) == (2, ["error: the warning"], "")


def test_a_double_precision_overflow_exits_3_and_lists_the_constants(monkeypatch, capsys):
    code, err, out = run_raising(monkeypatch, capsys, OverflowError("math range error"),
                                 "discretize", "--kr", "2.5", "--alpha", "0.7")
    values = ", ".join(f"{k}={v!r}" for k, v in {**cli.DEFAULTS, "kr": 2.5, "alpha": 0.7}.items())
    assert (code, err, out) == (3, [f"error: double-precision overflow with {values}"], "")


def test_an_exception_outside_the_contract_is_not_turned_into_a_code(monkeypatch, capsys):
    with pytest.raises(KeyError):
        run_raising(monkeypatch, capsys, KeyError("bug"))
