"""cli.main looks each command's handler up when the command runs.

build_parser is cached for the life of the process.  Each command stores
its handler's name, so a cmd_<name> patched after the first parse is the
one main calls, and the original is called again once the patch is gone.
"""

import pytest

from sbtkit import cli

COMMANDS = [
    (["discretize"], "cmd_discretize"),
    (["bode"], "cmd_bode"),
    (["error"], "cmd_error"),
    (["rmse"], "cmd_rmse"),
    (["pole-map"], "cmd_pole_map"),
    (["simulate", "board"], "cmd_simulate_board"),
    (["simulate", "inverter"], "cmd_simulate_inverter"),
    (["optimize"], "cmd_optimize"),
]


@pytest.mark.parametrize("argv, name", COMMANDS, ids=[name for _, name in COMMANDS])
def test_a_handler_patched_after_the_first_parse_is_the_one_called(argv, name, monkeypatch):
    assert cli.build_parser().parse_args(argv).handler == name
    calls = []

    def handler(args):
        calls.append(args.command)
        return 7

    monkeypatch.setattr(cli, name, handler)
    assert cli.main(argv) == 7
    assert calls == [argv[0]]


def test_the_original_handler_runs_again_once_the_patch_is_undone(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_discretize", lambda args: 7)
    assert cli.main(["discretize"]) == 7
    monkeypatch.undo()
    assert cli.main(["discretize", "--method", "tustin", "--format", "csv"]) == 0
    assert "tustin" in capsys.readouterr().out
