"""Golden output of the sbtkit CLI: one line per case, for diffing two trees.

Runs every subcommand in table, csv and json at the reference board and at
six seeded boards, plus cases that must end in exit 2, 3 or 4 and edge
cases that must end in exit 0, all in process through ``sbtkit.cli.main``.  Each case prints its exit code, a
sha256 over stdout, stderr, the warnings raised and every file the case
wrote, and its argv.  Temporary paths print as ``{tmp}`` (the case's
directory) and ``{config}`` (the config and grid files), also inside the
hashed output.

    python3 tools/golden.py > golden.txt

The package is imported from the ``src`` directory next to this script, so
running the script of one checkout always measures that checkout.  Compare
two checkouts with ``diff`` on their outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from sbtkit import cli  # noqa: E402

FORMATS = ("table", "csv", "json")
SEEDS = range(1, 7)
REFERENCE = {"kr": 59.1, "wc": 17.907, "wn": 5969.0, "fs": 20000.0,
             "kp": 2.955, "tau_i": 8.594e-4, "kr_inv": 44.325}

ERROR_CASES = [
    # exit 2: a bad argument the command reads
    ("discretize", "--method", "simpson"),
    ("discretize", "--fs", "0"),
    ("discretize", "--kr", "inf", "--format", "json"),
    ("discretize", "--method", "sbt", "--beta", "inf"),
    ("bode", "--grid", "10:9500:0"),
    ("rmse", "--grid", "900:1000:1.5"),
    ("optimize", "--alpha-range", "a:b"),
    ("simulate", "board", "--f", "0.1"),
    ("simulate", "inverter", "--duration", "nan"),
    ("simulate", "inverter", "--method", "pi,simpson", "--trace-dir", "{tmp}"),
    ("simulate", "inverter", "--duration", "1e6"),
    # exit 2: a grid file with a line that is not a number or not UTF-8, a config not UTF-8
    ("rmse", "--grid-file", "{config}/grid_abc.txt"),
    ("rmse", "--grid-file", "{config}/grid_bytes.txt"),
    ("discretize", "--config", "{config}/bytes.json"),
    ("simulate", "board", "--settle-cycles", "1000000000"),
    ("bode", "--grid", "10:9000:1000000000000"),
    ("optimize", "--coarse", "100000", "--iters", "1"),
    ("simulate", "inverter", "--delay-samples", "100000"),
    ("bode", "--method", "sbt,euler"),
    # exit 2 without a raw numpy warning: a non-finite drive, search bound or grid edge
    ("simulate", "board", "--amp", "inf"),
    ("optimize", "--beta-range", "0.9:inf"),
    ("bode", "--grid", "1:inf:5"),
    ("optimize", "--grid", "1:inf:5"),
    # exit 3: a domain error of the math
    ("discretize", "--method", "sota", "--fs", "1000"),
    ("discretize", "--method", "euler", "--wn", "1e200"),
    ("bode", "--method", "sbt", "--grid", "9000:12000:5"),
    ("pole-map", "--fs", "1000"),
    ("optimize", "--kr", "1e308", "--coarse", "3", "--iters", "1"),
    ("bode", "--method", "sbt", "--kr", "1e308"),
    ("simulate", "inverter", "--config", "{config}/kr_inv.json"),
    # exit 4: a diverging closed loop
    ("simulate", "inverter", "--method", "sbt", "--alpha", "0.05"),
    ("simulate", "inverter", "--method", "sbt", "--alpha", "0.0", "--duration", "0.5",
     "--trace-dir", "{tmp}"),
    ("simulate", "inverter", "--method", "sota", "--i-ref", "2e12"),
    # exit 0: a method name in capitals, a grid whose top points overflow to null
    ("error", "--method", "SBT"),
    ("bode", "--grid", "1:1e308:5:log", "--format", "json"),
    # exit 0: json rows on the default 2201-point grid, nulls inside rows, a single row
    ("error", "--format", "json"),
    ("bode", "--kr", "1e308", "--grid", "940:960:3", "--format", "json"),
    ("discretize", "--method", "sbt", "--format", "json"),
]


def seeded_board(seed: int) -> dict:
    """Constants within the ranges every command accepts at the defaults."""
    rng = random.Random(seed)
    return {
        "kr": REFERENCE["kr"] * rng.uniform(0.8, 1.2),
        "wc": REFERENCE["wc"] * rng.uniform(0.8, 1.2),
        "wn": REFERENCE["wn"] * rng.uniform(0.9, 1.1),
        "fs": rng.uniform(19500.0, 21000.0),
        "kp": REFERENCE["kp"] * rng.uniform(0.9, 1.1),
        "tau_i": REFERENCE["tau_i"] * rng.uniform(0.9, 1.1),
        "kr_inv": REFERENCE["kr_inv"] * rng.uniform(0.9, 1.1),
        "f": rng.uniform(900.0, 1000.0),
        "harmonic_freq": 50.0 * rng.randrange(5, 30, 2),
    }


def board_cases(board: dict | None, config: str | None) -> list[tuple[str, ...]]:
    """Every subcommand at one board, before the --format flag.

    Odd seeds pass the constants as flags, even seeds through --config.
    """
    if board is None:
        flags, inv_flags, sim_flags = (), (), ()
    elif config is not None:
        flags = inv_flags = ("--config", config)
        sim_flags = ("--f", repr(board["f"]))
    else:
        flags = tuple(a for k in ("kr", "wc", "wn", "fs") for a in (f"--{k}", repr(board[k])))
        inv_flags = ("--wc", repr(board["wc"]), "--wn", repr(board["wn"]))
        sim_flags = ("--f", repr(board["f"]))
    inverter = ("--harmonic-freq", repr(board["harmonic_freq"])) if board else ()
    return [
        ("discretize",) + flags,
        ("discretize", "--diffeq", "--method", "sbt", "--alpha", "0.7", "--beta", "1.02") + flags,
        ("bode",) + flags,
        ("bode", "--method", "sbt") + flags,
        ("error", "--method", "tustin", "--grid", "900:1000:21") + flags,
        ("rmse",) + flags,
        ("pole-map",) + flags,
        ("pole-map", "--methods", "exact,sbt", "--alpha", "0.8") + flags,
        ("simulate", "board", "--trace-dir", "{tmp}") + sim_flags + flags,
        ("simulate", "inverter", "--methods", "pi,euler,tustin,sota,sbt", "--trace-dir", "{tmp}")
        + inverter + inv_flags,
        ("optimize", "--trace", "{tmp}/trace.csv") + flags,
        ("optimize", "--loss", "pole-distance", "--coarse", "9", "--iters", "6") + flags,
        ("rmse", "--output", "{tmp}/rmse.out") + flags,
    ]


def all_cases(config_dir: str) -> list[tuple[str, ...]]:
    cases = []
    boards = [(None, None)]
    for seed in SEEDS:
        board = seeded_board(seed)
        config = None
        if seed % 2 == 0:
            config = os.path.join(config_dir, f"board{seed}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({k: board[k] for k in REFERENCE}, fh)
        boards.append((board, config))
    for board, config in boards:
        for argv in board_cases(board, config):
            cases += [argv + ("--format", fmt) for fmt in FORMATS]
    with open(os.path.join(config_dir, "kr_inv.json"), "w", encoding="utf-8") as fh:
        json.dump({"kr_inv": 1e308}, fh)
    for name, content in (("grid_abc.txt", b"900\nabc\n"), ("grid_bytes.txt", b"900\n\xff\n"),
                          ("bytes.json", b"\xff")):
        with open(os.path.join(config_dir, name), "wb") as fh:
            fh.write(content)
    return cases + [tuple(a.replace("{config}", config_dir) for a in argv) for argv in ERROR_CASES]


def run_case(argv: tuple[str, ...], tmp: str, config_dir: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main([a.replace("{tmp}", tmp) for a in argv])
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue()):
        digest.update(part.replace(tmp, "{tmp}").replace(config_dir, "{config}").encode() + b"\0")
    for w in caught:
        digest.update(f"{w.category.__name__}: {w.message}".encode() + b"\0")
    for name in sorted(os.listdir(tmp)):
        with open(os.path.join(tmp, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return code, digest.hexdigest()


def main() -> int:
    os.environ.pop(cli.GRID_ENV, None)
    with tempfile.TemporaryDirectory() as root:
        config_dir = os.path.join(root, "config")
        os.mkdir(config_dir)
        for i, argv in enumerate(all_cases(config_dir)):
            tmp = os.path.join(root, f"case{i}")
            os.mkdir(tmp)
            code, digest = run_case(argv, tmp, config_dir)
            label = " ".join(a.replace(config_dir, "{config}") for a in argv)
            print(f"{code} {digest} {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
