"""sbtkit benchmark: one run of one workload.

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop with one client, in this process,
through ``sbtkit.cli.main``, for ``--seconds`` seconds, checks every op's
output, and prints one JSON object as the last line of standard output:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run in which every other op is traced.  Every timing is
normalized by host-speed samples taken around and during it, so that host
speed drift cancels (see hostspeed.py and README.md).  A copy of the result
with run metadata and the raw samples is written to ``bench/results/``.
The exit code is 0 when the run completed, whether or not every op passed
its checks; it is 2 when the sbtkit sources are missing.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: one BLAS/OpenMP thread, so that
# np.dot in the THD projection cannot fan out over the cores, and no
# default-grid override.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SBT_DEFAULT_GRID", None)

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

if not os.path.isfile(os.path.join(SRC, "sbtkit", "cli.py")):
    sys.stderr.write(f"error: no sbtkit sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy as np

import sbtkit
from sbtkit import cli

import hostspeed
import workloads
from tracing import SpanTotals, Tracer

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60

# Exact per-op counts a traced op must report, where the workload fixes them.
EXPECTED_COUNTS = {
    "design-sweep": {"tuning.q_loss_calls_per_op": workloads.OPTIMIZE_EVALUATIONS},
    "inverter-thd": {"sim.closed_loop_steps_per_op": 5 * 40000},
    "board-sine": {"sim.runner_samples_per_op": 4 * workloads.BOARD_SAMPLES},
}

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_op(commands, outdir: str, sampler=None) -> tuple[float, str | None]:
    """Run one op's CLI calls; return (wall seconds, failure message or None).

    Only the CLI calls are timed, inside the sampler if one is given; the
    outputs are checked afterwards.
    """
    codes = []
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            for cmd in commands:
                path = os.path.join(outdir, cmd.name + ".json")
                codes.append(cli.main(list(cmd.argv) + ["--format", "json", "--output", path]))
        except SystemExit as exc:
            return time.perf_counter() - start, f"argument error {exc.code}"
        except Exception as exc:  # an escaped exception is a failed op, not a failed run
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    for cmd, code in zip(commands, codes):
        if code != 0:
            return wall, f"{cmd.name} exited {code}"
        try:
            cmd.check(workloads.load_output(os.path.join(outdir, cmd.name + ".json")))
        except (workloads.CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            return wall, f"{cmd.name}: {type(exc).__name__}: {exc}"
    return wall, None


def measure_setup(workload: str, seed: int, outdir: str) -> tuple[list[float], int]:
    """Normalized seconds for SETUP_PROBES fresh interpreters to import
    sbtkit, build the workload's first op and run it (setup_probe.py), and
    the number of probes that failed.  One extra probe first fills the
    bytecode and page caches and is discarded.

    Each probe samples host speed from its first line to its end; the
    samples are subtracted from its wall time and set its scale.
    """
    argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed), outdir]
    seconds, failed = [], 0
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        if i == 0:
            continue
        if proc is None or proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr if proc is not None else "setup probe timed out\n")
            continue
        samples = json.loads(proc.stdout.strip().splitlines()[-1])["samples_ms"]
        seconds.append((wall - sum(samples) / 1e3) * hostspeed.scale(samples))
    return seconds, failed


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it;
    100 (the maximum) when there are too few samples for one."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 100


def nearest_rank(sorted_values, pct: int) -> float:
    return sorted_values[max(math.ceil(pct / 100 * len(sorted_values)), 1) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(workload: str, traced, failures: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from [(scale, span totals)] of the traced ops.

    Counts must be equal on every traced op (and equal EXPECTED_COUNTS);
    times are normalized with the op's scale and reported as medians.
    """
    zero = SpanTotals()

    def get(t, name):
        return t.get(name, zero)

    def layer_self(t, layer):
        return sum(s.self for n, s in t.items() if n.startswith(layer + "."))

    def per_unit(s, seconds):
        n = s.units or s.calls
        return seconds / n if n else 0.0

    counts = {
        "tuning.q_loss_calls_per_op": lambda t: get(t, "tuning.q_loss").calls,
        "controllers.qr_discretize_calls_per_op": lambda t: get(t, "controllers.qr_discretize").calls,
        "lti.quadratic_roots_calls_per_op": lambda t: get(t, "lti.quadratic_roots").calls,
        "analysis.points_per_op": lambda t: (get(t, "analysis.freq_response").units
                                             + get(t, "analysis.magnitude_error_curve").units),
        "sim.closed_loop_steps_per_op": lambda t: get(t, "sim.inverter_closed_loop").units,
        "sim.runner_samples_per_op": lambda t: get(t, "sim.run_difference_equation").units,
    }
    expected = EXPECTED_COUNTS[workload]
    out = {}
    for name, fn in counts.items():
        vals = sorted({fn(t) for _, t in traced})
        if len(vals) > 1:
            failures.append(f"{name} differs between ops: {vals}")
        if name in expected and vals != [expected[name]]:
            failures.append(f"{name} is {vals}, expected {expected[name]}")
        out[name] = (vals[0] if vals else 0, "count")

    loop = "sim.inverter_closed_loop"
    runner = "sim.run_difference_equation"
    times = {  # seconds per op (or per unit of work) from one op's totals
        "cli.self_ms_per_op": (lambda t: layer_self(t, "cli"), "ms"),
        "tuning.optimize_ms": (lambda t: get(t, "tuning.optimize_alpha_beta").incl, "ms"),
        "tuning.q_loss_self_us": (lambda t: per_unit(get(t, "tuning.q_loss"), get(t, "tuning.q_loss").self), "us"),
        "controllers.self_ms_per_op": (lambda t: layer_self(t, "controllers"), "ms"),
        "lti.self_ms_per_op": (lambda t: layer_self(t, "lti"), "ms"),
        "transforms.self_ms_per_op": (lambda t: layer_self(t, "transforms"), "ms"),
        "analysis.freq_response_ms": (lambda t: get(t, "analysis.freq_response").incl, "ms"),
        "analysis.error_curve_ms": (lambda t: get(t, "analysis.magnitude_error_curve").incl, "ms"),
        "analysis.pole_map_ms": (lambda t: get(t, "analysis.pole_map_table").incl, "ms"),
        "sim.closed_loop_us_per_step": (lambda t: per_unit(get(t, loop), get(t, loop).incl), "us"),
        "sim.closed_loop_ms": (lambda t: get(t, loop).incl, "ms"),
        "sim.trace_thd_ms": (lambda t: get(t, "sim.trace_thd").incl, "ms"),
        "sim.runner_us_per_sample": (lambda t: per_unit(get(t, runner), get(t, runner).incl), "us"),
        "sim.sine_probe_self_ms": (lambda t: get(t, "sim.sine_steady_state").self, "ms"),
    }
    for name, (fn, unit) in times.items():
        mult = 1e3 if unit == "ms" else 1e6
        out[name] = (_median([fn(t) * scale * mult for scale, t in traced]), unit)
    return out


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def run(workload: str, seed: int, seconds: float, traced_run: bool, outdir: str) -> dict:
    failures: list[str] = []

    setup_s, failed = measure_setup(workload, seed, outdir)
    attempted = SETUP_PROBES
    if failed:
        failures.append(f"{failed} setup probes failed")

    # The canonical op checks frozen results and warms the process up.
    attempted += 1
    _, failure = run_op(workloads.canonical_op(workload), outdir)
    if failure:
        failed += 1
        failures.append(f"canonical op: {failure}")

    stream = workloads.OpStream(workload, seed)
    tracer = Tracer() if traced_run else None
    sampler = hostspeed.HostSampler()
    walls, norm_ms, samples, traced = [], [], [], {}
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:  # one untraced, one traced op
        op = stream.next_op()
        trace_this = tracer is not None and len(walls) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            wall, failure = run_op(op, outdir, sampler)
        finally:
            if trace_this:
                tracer.uninstall()
        attempted += 1
        if failure:
            failed += 1
            failures.append(f"op {len(walls)}: {failure}")
        scale = hostspeed.scale(sampler.samples)
        if trace_this:
            traced[len(walls)] = (scale, tracer.take_op())
        net = wall - sampler.inside_ms / 1e3
        walls.append(net * 1e3)
        norm_ms.append(net * scale * 1e3)
        samples.append(sampler.samples)

    plain = sorted(v for i, v in enumerate(norm_ms) if i not in traced)
    with_trace = [norm_ms[i] for i in traced]
    pct = tail_percentile(len(plain))
    e2e = {
        "latency_p50_ms": statistics.median(plain),
        "latency_tail_ms": nearest_rank(plain, pct),
        "ops_per_s": len(plain) / (sum(plain) / 1e3),
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    host = {
        "host.ref_ms": (statistics.median(m for op in samples for m in op), "ms"),
        "host.wall_p50_ms": (statistics.median(w for i, w in enumerate(walls) if i not in traced), "ms"),
    }
    if traced_run:
        metrics = _layer_metrics(workload, list(traced.values()), failures)
        metrics.update(host)
        metrics["host.trace_overhead_pct"] = (
            100.0 * (_median(with_trace) / e2e["latency_p50_ms"] - 1.0), "%")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}

    return {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "untraced_ops": len(plain),
            "traced_ops": len(with_trace),
            "tail_percentile": pct,
            "end_to_end": e2e,
            "host": {k: v for k, (v, _) in host.items()},
            "op_net_wall_ms": walls,
            "op_normalized_ms": norm_ms,
            "op_traced": sorted(traced),
            "host_samples_ms": samples,
            "setup_s": setup_s,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=RESULTS_DIR)
    os.environ["TMPDIR"] = outdir
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sbtkit": getattr(sbtkit, "__version__", None),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "ref_nominal_ms": hostspeed.SAMPLE_NOMINAL_MS,
    }
    result = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result, "failures": res["failures"], "detail": res["detail"]},
                  fh, indent=1)

    for failure in res["failures"]:
        print(f"FAILED {failure}")
    d = res["detail"]
    print(f"# {args.workload} seed {args.seed}: {d['untraced_ops']} untraced and"
          f" {d['traced_ops']} traced ops; tail = p{d['tail_percentile']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
