"""Golden output of the sbtkit CLI: one line per case, for diffing two trees.

Runs every subcommand in table, csv and json at the reference board and at
six seeded boards, one inverter run at a high rate behind a long delay,
plus cases that must end in exit 2, 3 or 4 and edge cases that must end in
exit 0, all in process through ``sbtkit.cli.main``.  Each case prints its
exit code, a sha256 over stdout, stderr, the warnings raised and every
file and directory the case left in its directory, and its argv.
Temporary paths print as ``{tmp}`` (the case's directory) and
``{config}`` (the config and grid files), also inside the hashed output.
A case whose argv starts with ``-W error`` runs with every warning raised
as an exception, as ``python -W error`` would run it.

    python3 tools/golden.py > golden.txt

The package is imported from the ``src`` directory next to this script, so
running the script of one checkout always measures that checkout.  Compare
two checkouts with ``diff`` on their outputs.

With ``--values``, a json case that printed json prints the numbers (and
strings and nulls) it parsed to, in document order, in place of its hash;
every other case prints its hash as before.  ``--max-rel A B`` reads two
such outputs and reports, per subcommand, how many lines changed and the
largest relative change |a - b| / max(|a|, |b|) over the parsed finite
numbers, with the case where it occurs, and the largest absolute change.
A changed exit code, shape, string or null is counted apart, and so is a
changed hash, whose size is unknown.

    python3 tools/golden.py --values > values.txt
    python3 tools/golden.py --max-rel parent_values.txt values.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
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
    ("simulate", "inverter", "--fs-ctrl", "0"),
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
    # exit 3 before any run or trace file: a later method cannot be discretized
    ("simulate", "board", "--methods", "euler,sota", "--fs", "1000", "--f", "100",
     "--trace-dir", "{tmp}"),
    ("simulate", "inverter", "--methods", "pi,sota", "--wn", "130000", "--trace-dir", "{tmp}"),
    ("simulate", "inverter", "--methods", "pi,euler,sota", "--fs-ctrl", "1000",
     "--harmonic-freq", "250"),
    # exit 4: a diverging closed loop
    ("simulate", "inverter", "--method", "sbt", "--alpha", "0.05"),
    ("simulate", "inverter", "--method", "sbt", "--alpha", "0.0", "--duration", "0.5",
     "--trace-dir", "{tmp}"),
    ("simulate", "inverter", "--method", "sota", "--i-ref", "2e12"),
    ("simulate", "board", "--methods", "euler,sbt", "--alpha", "0.05"),
    # exit 4 and no trace file: a later method diverges after the first one ran
    ("simulate", "board", "--methods", "euler,sbt", "--alpha", "0.05", "--trace-dir", "{tmp}"),
    ("simulate", "inverter", "--methods", "pi,sbt", "--alpha", "0.05", "--trace-dir", "{tmp}"),
    # exit 2 and no trace file: the result cannot be written
    ("simulate", "board", "--methods", "euler,sbt", "--trace-dir", "{tmp}",
     "--output", "{tmp}/missing/out.txt"),
    ("simulate", "board", "--methods", "euler,sbt", "--trace-dir", "{tmp}/traces",
     "--output", "{tmp}/missing/out.txt"),
    # exit 3: a run that has not settled names its method
    ("simulate", "board", "--methods", "euler,sbt", "--settle-cycles", "2"),
    # exit 0 with a library warning as one line on stderr
    ("discretize", "--method", "sbt", "--alpha", "0.3"),
    # exit 2: the same warning raised as an error, as under python -W error
    ("-W", "error", "discretize", "--method", "sbt", "--alpha", "0.3"),
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
        ("optimize", "--loss", "mag-rmse-linear", "--trace", "{tmp}/trace_linear.csv") + flags,
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
    # a high control rate behind a long bridge delay, so v_inv comes from a steep current
    cases += [("simulate", "inverter", "--fs-ctrl", "80000", "--delay-samples", "5",
               "--trace-dir", "{tmp}", "--format", fmt) for fmt in FORMATS]
    with open(os.path.join(config_dir, "kr_inv.json"), "w", encoding="utf-8") as fh:
        json.dump({"kr_inv": 1e308}, fh)
    for name, content in (("grid_abc.txt", b"900\nabc\n"), ("grid_bytes.txt", b"900\n\xff\n"),
                          ("bytes.json", b"\xff")):
        with open(os.path.join(config_dir, name), "wb") as fh:
            fh.write(content)
    return cases + [tuple(a.replace("{config}", config_dir) for a in argv) for argv in ERROR_CASES]


def run_case(argv: tuple[str, ...], tmp: str, config_dir: str) -> tuple[int, str, str]:
    """Run one case: its exit code, digest and stdout.  A case that starts
    with -W error runs with every warning raised as an exception, as under
    python -W error."""
    strict = argv[:2] == ("-W", "error")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error" if strict else "always")
        try:
            code = cli.main([a.replace("{tmp}", tmp) for a in (argv[2:] if strict else argv)])
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue()):
        digest.update(part.replace(tmp, "{tmp}").replace(config_dir, "{config}").encode() + b"\0")
    for w in caught:
        digest.update(f"{w.category.__name__}: {w.message}".encode() + b"\0")
    for root, dirs, names in os.walk(tmp):  # top-down: a case's own files first, as named before
        dirs.sort()
        rel = os.path.relpath(root, tmp).replace(os.sep, "/")
        prefix = "" if rel == "." else rel + "/"
        if prefix:  # a directory left behind shows even when it is empty
            digest.update(prefix.encode() + b"\0")
        for name in sorted(names):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update((prefix + name).encode() + b"\0" + fh.read() + b"\0")
    return code, digest.hexdigest(), out.getvalue()


def leaves(doc) -> list:
    """The scalars of a parsed json document in document order."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in leaves(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in leaves(v)]
    return [doc]


def values_of(argv: tuple[str, ...], out: str) -> list | None:
    """The leaves of a json case's stdout, or None for any other case."""
    if argv[-2:] != ("--format", "json") or not out:
        return None
    return leaves(json.loads(out))


def subcommand(label: str) -> str:
    words = label.split()
    if words[:2] == ["-W", "error"]:
        words = words[2:]
    return " ".join(words[:2]) if words[0] == "simulate" else words[0]


def read_lines(path: str) -> list[tuple[str, object, str]]:
    """(exit code, hash or parsed values, label) for each line of a golden output."""
    decoder = json.JSONDecoder()
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            code, rest = line.rstrip("\n").split(" ", 1)
            if rest.startswith("["):
                payload, end = decoder.raw_decode(rest)
            else:
                end = rest.index(" ")
                payload = rest[:end]
            lines.append((code, payload, rest[end + 1:]))
    return lines


def changes(a: list, b: list) -> tuple[float, float, bool]:
    """Largest relative and absolute change over the pairs of finite numbers
    that differ, and whether anything else (shape, string, null) changed."""
    if len(a) != len(b):
        return 0.0, 0.0, True
    rel = dif = 0.0
    other = False
    for x, y in zip(a, b):
        if x == y:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                      for v in (x, y))
        if not numbers:
            other = True
            continue
        rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
        dif = max(dif, abs(x - y))
    return rel, dif, other


def max_rel(path_a: str, path_b: str) -> int:
    """Print, per subcommand: the cases, the lines that changed, how many of
    those are hashes (changed by an unknown amount) and how many changed in
    exit code, shape, a string or a null, then the largest relative and
    absolute change of a number and the case with the largest relative one."""
    lines_a, lines_b = read_lines(path_a), read_lines(path_b)
    if [x[2] for x in lines_a] != [x[2] for x in lines_b]:
        print("error: the two outputs do not list the same cases", file=sys.stderr)
        return 2
    report: dict[str, list] = {}
    for (code_a, got_a, label), (code_b, got_b, _) in zip(lines_a, lines_b):
        row = report.setdefault(subcommand(label), [0, 0, 0, 0, 0.0, 0.0, ""])
        row[0] += 1
        if (code_a, got_a) == (code_b, got_b):
            continue
        row[1] += 1
        if code_a != code_b or isinstance(got_a, list) != isinstance(got_b, list):
            row[3] += 1
        elif not isinstance(got_a, list):
            row[2] += 1
        else:
            rel, dif, other = changes(got_a, got_b)
            row[3] += other
            if rel > row[4]:
                row[4], row[6] = rel, label
            row[5] = max(row[5], dif)
    print("subcommand         cases  changed  hashed  other  max_rel  max_abs  at")
    for name, (cases, changed, hashed, other, rel, dif, at) in report.items():
        print(f"{name:18s} {cases:5d} {changed:8d} {hashed:7d} {other:6d} {rel:8.2g} {dif:8.2g}  {at}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Golden output of the sbtkit CLI.")
    parser.add_argument("--values", action="store_true",
                        help="print a json case's parsed values in place of its hash")
    parser.add_argument("--max-rel", nargs=2, metavar=("A", "B"),
                        help="compare two --values outputs per subcommand")
    args = parser.parse_args()
    if args.max_rel:
        return max_rel(*args.max_rel)
    os.environ.pop(cli.GRID_ENV, None)
    with tempfile.TemporaryDirectory() as root:
        config_dir = os.path.join(root, "config")
        os.mkdir(config_dir)
        for i, argv in enumerate(all_cases(config_dir)):
            tmp = os.path.join(root, f"case{i}")
            os.mkdir(tmp)
            code, digest, out = run_case(argv, tmp, config_dir)
            values = values_of(argv, out) if args.values else None
            if values is not None:
                digest = json.dumps(values, separators=(",", ":"))
            label = " ".join(a.replace(config_dir, "{config}") for a in argv)
            print(f"{code} {digest} {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
