"""Seeded inputs and output checks for the three benchmark workloads.

A workload is a closed loop with one client: each op is a short list of
``sbtkit`` command lines, run in process through ``sbtkit.cli.main`` with
``--format json --output <file>``, and checked once it has finished.
Every op of a workload does the same amount of work; only the numbers in
its argv change from op to op, so no result cache inside the program can
serve one op from another.

Each workload also has a canonical op at the reference board and the
950 Hz harmonic whose results are compared with frozen values.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Reference board, as the CLI defaults give it.
KR, WC, WN, FS = 59.1, 17.907, 5969.0, 20000.0

# Frozen results of the canonical ops (see README.md).
CANON_RMSE_SBT = 0.12101442329244282
CANON_RMSE_RATIO = 0.6663125756587005
CANON_THD = {
    "pi": 17.735160,
    "euler": 11.063429,
    "tustin": 1.241170,
    "sota": 1.043986,
    "sbt": 1.043986,
}
OPTIMIZE_EVALUATIONS = 1842

INVERTER_METHODS = "pi,euler,tustin,sota,sbt"
BOARD_METHODS = "euler,tustin,sota,sbt"

# board-sine: every op runs BOARD_SAMPLES samples per method through the
# difference-equation runner (settle + two measurement windows).
BOARD_SAMPLES = 36000
_BOARD_F_LO, _BOARD_F_HI = 900.0, 1000.0
# sbtkit.sim._cycle_fraction reduces f/fs to a fraction with this bound
_CYCLE_DENOMINATOR_MAX = 4096


class CheckFailed(Exception):
    """An op's output does not hold what the workload requires."""


@dataclass(frozen=True)
class Command:
    """One CLI call of an op: argv without the output flags, and the
    check applied to its parsed JSON output."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[object], None]


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite number {token} in JSON output")


def load_output(path: str):
    """Parse one op output; NaN and Infinity fail the check."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_any(_out) -> None:
    """Finite JSON is all that is required (enforced by load_output)."""


def _check_optimize(out) -> None:
    _require(out["evaluations"] == OPTIMIZE_EVALUATIONS,
             f"optimize ran {out['evaluations']} evaluations, expected {OPTIMIZE_EVALUATIONS}")
    _require(out["straightforward_loss"] is not None, "straightforward pair outside the box")
    _require(out["loss_value"] <= out["straightforward_loss"],
             "optimized loss exceeds the straightforward loss")


def _check_rmse_canonical(out) -> None:
    sbt, ratio = out["rmse_db"]["sbt"], out["ratio_sbt_over_sota"]
    _require(math.isclose(sbt, CANON_RMSE_SBT, rel_tol=1e-12, abs_tol=0.0),
             f"canonical sbt rmse {sbt!r} != {CANON_RMSE_SBT!r}")
    _require(math.isclose(ratio, CANON_RMSE_RATIO, rel_tol=1e-12, abs_tol=0.0),
             f"canonical sbt/sota ratio {ratio!r} != {CANON_RMSE_RATIO!r}")


def _thd_by_method(out) -> dict[str, float]:
    thd = {row["method"]: row["thd_pct"] for row in out}
    _require(list(thd) == INVERTER_METHODS.split(","), f"methods {list(thd)} in output")
    return thd


def _check_inverter(out) -> None:
    thd = _thd_by_method(out)
    _require(thd["pi"] > thd["euler"] > thd["sbt"], f"THD ordering broken: {thd}")
    _require(thd["sbt"] <= thd["sota"] + 1e-6, f"sbt THD above sota: {thd}")


def _check_inverter_canonical(out) -> None:
    thd = _thd_by_method(out)
    for method, frozen in CANON_THD.items():
        _require(round(thd[method], 6) == frozen,
                 f"canonical THD {method} {thd[method]!r} != {frozen}")


def _check_board(out) -> None:
    _require([r["method"] for r in out] == BOARD_METHODS.split(","), "methods in output")
    for row in out:
        _require(row["mismatch"] < 1e-6,
                 f"{row['method']}: simulated and predicted amplitude differ by {row['mismatch']!r}")


def _board_flags(kr: float, wc: float, wn: float, fs: float) -> tuple[str, ...]:
    return ("--kr", repr(kr), "--wc", repr(wc), "--wn", repr(wn), "--fs", repr(fs))


def _design_op(flags: tuple[str, ...], canonical: bool) -> list[Command]:
    return [
        Command("optimize", ("optimize",) + flags, _check_optimize),
        Command("rmse", ("rmse",) + flags, _check_rmse_canonical if canonical else _check_any),
        Command("pole-map", ("pole-map",) + flags, _check_any),
        Command("bode", ("bode", "--method", "sbt") + flags, _check_any),
        Command("discretize", ("discretize", "--diffeq") + flags, _check_any),
    ]


def _design_sweep(rng: random.Random) -> list[Command]:
    # fs stays above 19 kHz so the default Bode grid (to 9.5 kHz) is below
    # Nyquist; wn within 10% keeps the straightforward beta inside 0.9..1.1.
    return _design_op(
        _board_flags(
            KR * rng.uniform(0.8, 1.2),
            WC * rng.uniform(0.8, 1.2),
            WN * rng.uniform(0.9, 1.1),
            rng.uniform(19500.0, 21000.0),
        ),
        canonical=False,
    )


def _inverter_thd(rng: random.Random) -> list[Command]:
    f_h = 50.0 * rng.randrange(5, 30, 2)  # odd harmonics, 250..1450 Hz
    argv = ("simulate", "inverter", "--methods", INVERTER_METHODS,
            "--harmonic-freq", repr(f_h), "--wn", repr(2.0 * math.pi * f_h))
    return [Command("simulate-inverter", argv, _check_inverter)]


def _board_drive(rng: random.Random) -> tuple[float, int]:
    """A drive frequency in 900..1000 Hz and a --settle-cycles value that
    give exactly BOARD_SAMPLES samples per method.

    ``sine_steady_state`` measures over a window of whole samples and whole
    cycles, found by reducing f/fs to p/q (q <= 4096); with p >= 50 the
    window is q samples.  An arbitrary frequency makes q, and so the work,
    vary from op to op.  Drawing f = fs*p/q directly, and a settle length
    that fills the rest, fixes the work.  The settle is never shorter than
    the CLI default of 1200 cycles.
    """
    fs = 1.0 / (1.0 / FS)  # as the CLI derives it from --fs
    while True:
        q = rng.randint(3000, _CYCLE_DENOMINATOR_MAX)
        p = rng.randint(math.ceil(q * _BOARD_F_LO / fs), math.floor(q * _BOARD_F_HI / fs))
        if math.gcd(p, q) != 1:
            continue
        f = fs * p / q
        frac = Fraction(f / fs).limit_denominator(_CYCLE_DENOMINATOR_MAX)
        if (frac.numerator, frac.denominator) != (p, q):
            continue
        settle = BOARD_SAMPLES - 2 * q
        for cycles in (math.floor(settle * f / fs), math.ceil(settle * f / fs)):
            if cycles >= 1200 and math.ceil(cycles * fs / f) == settle:
                return f, cycles


def _board_sine(rng: random.Random) -> list[Command]:
    f, cycles = _board_drive(rng)
    argv = ("simulate", "board", "--methods", BOARD_METHODS,
            "--f", repr(f), "--settle-cycles", str(cycles))
    return [Command("simulate-board", argv, _check_board)]


_GENERATORS = {
    "design-sweep": _design_sweep,
    "inverter-thd": _inverter_thd,
    "board-sine": _board_sine,
}

WORKLOADS = tuple(_GENERATORS)


def canonical_op(workload: str) -> list[Command]:
    """The workload's op at the reference board and the 950 Hz harmonic."""
    if workload == "design-sweep":
        return _design_op((), canonical=True)
    if workload == "inverter-thd":
        argv = ("simulate", "inverter", "--methods", INVERTER_METHODS)
        return [Command("simulate-inverter", argv, _check_inverter_canonical)]
    argv = ("simulate", "board", "--methods", BOARD_METHODS)
    return [Command("simulate-board", argv, _check_board)]


class OpStream:
    """The seeded sequence of ops of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in _GENERATORS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self._gen = _GENERATORS[workload]
        self._rng = random.Random(f"{workload}:{seed}")

    def next_op(self) -> list[Command]:
        return self._gen(self._rng)
