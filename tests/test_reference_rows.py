"""Reference rows, help text and the overflow message of the command line.

Three commands each have one reference row that is not a map method:
`analog` in bode, `exact` in pole-map and `pi` in simulate inverter.  Each
name is accepted by its own command only.  Every parser prints its help,
and the exit-3 overflow message names --alpha and --beta when given.
"""

import argparse

import pytest

from sbtkit import cli

REFERENCE_ROWS = {
    "analog": ("bode",),
    "exact": ("pole-map",),
    "pi": ("simulate", "inverter"),
}

METHOD_COMMANDS = [
    ("discretize",), ("bode",), ("error",), ("rmse",), ("pole-map",),
    ("simulate", "board"), ("simulate", "inverter"),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_paths(parser, path=()):
    """The argv prefix of every parser in the tree, the top level first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_paths(sub, path + (name,))


def test_each_reference_row_is_accepted_by_its_own_command(capsys):
    code, out, _ = run(capsys, "bode", "--method", "analog", "--grid", "900:1000:3",
                       "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "pole-map", "--methods", "exact,sbt", "--format", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["exact", "sbt"]
    code, out, _ = run(capsys, "simulate", "inverter", "--methods", "sbt,pi",
                       "--duration", "0.4", "--format", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["sbt", "pi"]


@pytest.mark.parametrize("name, command", [
    (name, command)
    for name, own in REFERENCE_ROWS.items()
    for command in METHOD_COMMANDS if command != own
])
def test_a_reference_row_is_unknown_in_every_other_command(capsys, name, command):
    code, out, err = run(capsys, *command, "--method", name)
    assert code == 2
    assert out == ""
    assert err == f"error: unknown method {name!r}\n"


def test_every_parser_prints_its_help(capsys):
    helps = {}
    for path in parser_paths(cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, "--help"])
        assert exc.value.code == 0
        helps[path] = capsys.readouterr().out
        assert helps[path].startswith("usage: sbtkit")
    assert len(helps) == 10  # the top level, 7 leaf commands, simulate and its 2 scenarios
    for name, own in REFERENCE_ROWS.items():  # each --method help names its reference row
        assert name in helps[own].split("--method", 1)[1]


@pytest.mark.parametrize("flags, tail", [
    (("--alpha", "0.5", "--beta", "1.7e308"), "kr_inv=44.325, alpha=0.5, beta=1.7e+308\n"),
    (("--beta", "1.7e308"), "kr_inv=44.325, beta=1.7e+308\n"),
])
def test_overflow_message_names_the_alpha_and_beta_given(capsys, flags, tail):
    code, out, err = run(capsys, "discretize", "--method", "sbt", *flags)
    assert code == 3
    assert out == ""
    assert err.startswith("error: double-precision overflow with kr=59.1, ")
    assert err.endswith(tail)


def test_overflow_message_without_alpha_or_beta_lists_the_constants_only(capsys):
    code, _, err = run(capsys, "discretize", "--method", "sbt", "--kr", "1e308")
    assert code == 3
    assert err.endswith("kr_inv=44.325\n")
