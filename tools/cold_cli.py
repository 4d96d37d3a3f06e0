"""Cold end-to-end timings of the sbtkit CLI: every subcommand as a fresh process.

Runs each subcommand ``--runs`` times as ``python -m sbtkit <argv> --format
json --output <tmp file>`` in a new interpreter, the way a user runs it, and
prints per subcommand the median wall time of a run (start of the process
to its exit) and the largest peak RSS of the child process (``ru_maxrss``
from ``os.wait4``).  The ``import`` row is a process that only imports
``sbtkit.cli``: the start-up share of every other row.  The rounds are
interleaved, one run of each subcommand per round, so that drift in host
speed spreads over all rows, and one round before them, which warms the
page cache, is discarded.  ``{tmp}`` in a row's argv is the run's temporary
directory.  The header line says whether the children write
bytecode.  With PYTHONDONTWRITEBYTECODE set (it is inherited) and no
``__pycache__`` left by an earlier run, every child compiles sbtkit's
modules again, about half of sbtkit's own import time.

    python3 tools/cold_cli.py
    OPENBLAS_NUM_THREADS=1 python3 tools/cold_cli.py --runs 15

The children inherit this process's environment, BLAS thread variables
included, except for SBT_DEFAULT_GRID, which is cleared.  The package is imported from the ``src`` directory
next to this script, so running the script of one checkout always measures
that checkout.  Exit 1 when a child exits with a code other than 0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

COMMANDS = {
    "discretize": ("discretize", "--diffeq"),
    "bode": ("bode",),
    "bode sbt": ("bode", "--method", "sbt"),
    "error": ("error",),
    "rmse": ("rmse",),
    "pole-map": ("pole-map",),
    "optimize": ("optimize",),
    "simulate board": ("simulate", "board"),
    # each method's 20-cycle trace run reuses its sine probe's block matrices
    "simulate board --trace-dir": ("simulate", "board", "--trace-dir", "{tmp}/traces"),
    "simulate inverter": ("simulate", "inverter"),
}


def run_once(argv: list[str], env: dict) -> tuple[float, float, int, str]:
    """One child process: (wall seconds, peak RSS in MB, exit code, stderr)."""
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, err.read()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=7, help="timed runs per subcommand (default 7)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(SRC), env.get("PYTHONPATH")]))
    env.pop("SBT_DEFAULT_GRID", None)

    walls = {name: [] for name in ["import", *COMMANDS]}
    rss = {name: [] for name in walls}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        children = {"import": [sys.executable, "-c", "import sbtkit.cli"]}
        children.update({name: [sys.executable, "-m", "sbtkit", *(a.replace("{tmp}", tmp) for a in cmd),
                                "--format", "json", "--output", out] for name, cmd in COMMANDS.items()})
        for round_ in range(args.runs + 1):
            for name, child in children.items():
                wall, peak, code, err = run_once(child, env)
                if code != 0:
                    failed += 1
                    sys.stderr.write(f"{name}: exit {code}: {err}")
                elif round_ > 0:
                    walls[name].append(wall)
                    rss[name].append(peak)

    threads = env.get("OPENBLAS_NUM_THREADS", "unset")
    bytecode = "not written" if env.get("PYTHONDONTWRITEBYTECODE") else "written"
    print(f"# {args.runs} runs per row, OPENBLAS_NUM_THREADS {threads}, bytecode {bytecode}, "
          f"python {sys.version.split()[0]}")
    print(f"{'subcommand':<28}{'median ms':>12}{'max RSS MB':>12}")
    for name in walls:
        if walls[name]:
            print(f"{name:<28}{1e3 * statistics.median(walls[name]):>12.1f}{max(rss[name]):>12.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
