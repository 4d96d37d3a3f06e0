"""Command-line front end.

Exit codes: 0 success, 2 invalid arguments (also a warning the caller's
filters raise as an error), 3 domain errors raised by the math, 4 numeric
divergence during simulation.  Machine output (csv/json)
carries 17 significant digits, and json writes non-finite numbers as
null; the human tables round for reading.  Frequencies on the command
line are plain Hz; the -wc/-wn controller constants are angular (rad/s),
matching how such controllers are quoted.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import analysis, controllers, sim, transforms, tuning
from .errors import NotSettled, NumericOverflow, ParamError, SbtkitError
from .lti import _check_positive

DEFAULTS = {
    "kr": 59.1,
    "wc": 17.907,
    "wn": 5969.0,
    "fs": 20000.0,
    "kp": 2.955,
    "tau_i": 8.594e-4,
    "kr_inv": 44.325,
}

GRID_ENV = "SBT_DEFAULT_GRID"

METHOD_NAMES = ",".join(transforms.METHODS)


def _json_safe(value):
    """The payload with every non-finite float replaced by None (null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


# Rows per pass in _rows_json: each pass, and each rewrite of its text,
# holds one chunk of the output rather than the whole of it.
JSON_CHUNK_ROWS = 256

_ROW_BOUNDARY = "\n  },\n  {\n    "


def _chunk_json(chunk: list) -> str:
    """The rows of chunk as _rows_json writes them, from the first row's first
    key to the last row's last value.

    When every row has the first row's string keys in its order and every
    value is a finite float of exact type float, one %r template of the
    rows renders them: json writes such a value as its repr.  Any other
    chunk goes through the C encoder in one pass, with the indented item
    separator between fields and between rows, and only the row boundaries
    are rewritten.  A raw newline never occurs inside an encoded string, so
    "},\\n    {" is always a row boundary.  A chunk holding a non-finite
    number fails allow_nan and takes the _json_safe walk.
    """
    keys = list(chunk[0])
    values = tuple(itertools.chain.from_iterable(map(dict.values, chunk)))
    # equal key sequences need len(keys) distinct keys per row, in order;
    # a non-finite value makes the sum non-finite (an overflowing sum only
    # sends finite rows to the encoder)
    if ({*map(type, values)} == {float} and math.isfinite(sum(values))
            and all(type(k) is str for k in keys)
            and list(itertools.chain.from_iterable(chunk)) == keys * len(chunk)):
        row = ",\n    ".join(json.dumps(k).replace("%", "%%") + ": %r" for k in keys)
        return _ROW_BOUNDARY.join([row] * len(chunk)) % values
    try:
        flat = json.dumps(chunk, separators=(",\n    ", ": "), allow_nan=False)
    except ValueError:
        flat = json.dumps(_json_safe(chunk), separators=(",\n    ", ": "))
    return flat[2:-2].replace("},\n    {", _ROW_BOUNDARY)


def _rows_json(rows: list) -> str:
    """json.dumps(_json_safe(rows), indent=2) for a list of flat, non-empty dicts.

    An indent forces the pure-Python encoder, so the rows are rendered in
    chunks of JSON_CHUNK_ROWS by _chunk_json, and the chunks are joined
    once, with the row boundary between them.
    """
    if not rows:
        return "[]"
    parts = [_chunk_json(rows[start:start + JSON_CHUNK_ROWS])
             for start in range(0, len(rows), JSON_CHUNK_ROWS)]
    parts[0] = "[\n  {\n    " + parts[0]
    parts[-1] += "\n  }\n]"
    return _ROW_BOUNDARY.join(parts)


def _emit(args, rows, keys, table=None, payload=None, writes=()) -> int:
    """The one place a command writes: each (path, columns, rows) table in
    writes makes one csv file, in --trace-dir once it is made, and the
    result goes to --output or stdout.  Every file, --output too, is staged
    before any is renamed into place (sim.write_atomic), so a failure to
    write one leaves none.  json is the rows, or payload when given; csv is
    a header of keys and a line per row; table is the given lines, csv
    when there are none.  The result is written as pieces (its text, then
    its final newline), so the newline does not copy the text."""
    if args.format == "json":
        pieces = (_rows_json(rows) if payload is None
                  else json.dumps(_json_safe(payload), indent=2), "\n")
    elif args.format == "table" and table is not None:
        pieces = ("\n".join(table), "\n")
    else:
        pieces = (sim.csv_text(keys, ([r[k] for k in keys] for r in rows)),)
    if getattr(args, "trace_dir", None):
        os.makedirs(args.trace_dir, exist_ok=True)

    def files():  # each text is made just before it is staged, so one is held at a time
        for path, columns, table_rows in writes:
            yield path, (sim.csv_text(columns, table_rows),)
        if args.output is not None:
            yield args.output, pieces

    sim.write_atomic(files())
    if args.output is None:
        sys.stdout.writelines(pieces)
    return 0


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ParamError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParamError("config file must hold a JSON object")
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ParamError(f"unknown config keys: {sorted(unknown)}")
    if not all(type(v) in (int, float) for v in cfg.values()):
        raise ParamError("config values must be numbers")
    return cfg


def _constants(args) -> dict:
    """DEFAULTS, then --config, then the flags: resolved once per run by main."""
    merged = dict(DEFAULTS)
    merged.update(_load_config(getattr(args, "config", None)))
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _qr(args) -> tuple[controllers.QrParams, float]:
    c = args.constants
    _check_positive("fs", c["fs"])
    return controllers.QrParams(c["kr"], c["wc"], c["wn"]), 1.0 / c["fs"]


def _discretize(p: controllers.QrParams, m, T: float) -> controllers.BiquadCoeffs:
    """qr_discretize for a command: a coefficient that overflowed to inf or
    nan raises OverflowError, which main reports as exit 3."""
    biq = controllers.qr_discretize(p, m, T)
    if not all(math.isfinite(v) for v in vars(biq).values()):
        raise OverflowError("a discretized coefficient is not finite")
    return biq


def _methods(args, p: controllers.QrParams, T: float, reference=None, one: bool = False) -> list:
    """(name, method tag) per --method name in order, stripped and case-insensitive;
    the command's reference row gives (reference, None).  one: take exactly one name."""
    names = [name.strip().lower() for name in args.method.split(",") if name.strip()]
    if not names:
        raise ParamError("no methods requested")
    if one and len(names) > 1:
        raise ParamError(f"--method takes one name here, got {args.method!r}")
    out = []
    for name in names:
        tag = transforms.METHODS.get(name)
        if name == reference:
            out.append((name, None))
        elif tag is None:
            raise ParamError(f"unknown method {name!r}")
        elif tag is transforms.Sbt:
            alpha = 0.5 if args.alpha is None else args.alpha
            beta = transforms.prewarp_factor(p.omega_n, T) if args.beta is None else args.beta
            out.append((name, transforms.Sbt(transforms.SbtParams(alpha, beta))))
        else:
            out.append((name, tag()))
    return out


def _designs(args, p: controllers.QrParams, T: float, reference=None, one: bool = False) -> list:
    """(name, checked biquad) per --method name in order, each resolved and discretized
    before a command runs or writes anything; the reference row stays (reference, None)."""
    return [(name, m if m is None else _discretize(p, m, T))
            for name, m in _methods(args, p, T, reference, one)]


def _per_method(name: str, run, *args):
    """run(*args), with a NumericOverflow or NotSettled it raises re-raised as method name's."""
    try:
        return run(*args)
    except (NumericOverflow, NotSettled) as exc:
        raise type(exc)(f"method {name}: {exc}") from exc


def _grid_from_args(args, fallback) -> analysis.FrequencyGrid:
    if getattr(args, "grid_file", None):
        return analysis.load_grid_file(args.grid_file)
    if getattr(args, "grid", None):
        lo, hi, n, *kind = _colon_spec(
            args.grid, "grid spec", "lo:hi:n or lo:hi:n:log", float, float, int, str)
        if n < 1:
            raise ParamError(f"grid spec {args.grid!r} needs at least one point")
        if kind not in ([], ["linear"], ["log"]):
            raise ParamError(f"grid spec {args.grid!r}: kind must be linear or log")
        grid = analysis.FrequencyGrid.logarithmic if kind == ["log"] else analysis.FrequencyGrid.linear
        return grid(lo, hi, n)
    env = os.environ.get(GRID_ENV)
    if env:
        return analysis.load_grid_file(env)
    return fallback()


def _colon_spec(spec: str, name: str, form: str, *types) -> tuple:
    """The fields of a colon spec such as lo:hi, each converted by its type;
    a last field of type str may be left out.  Messages quote spec as given."""
    parts = spec.split(":")
    if not len(types) - (types[-1] is str) <= len(parts) <= len(types):
        raise ParamError(f"{name} must be {form}, got {spec!r}")
    try:
        return tuple(t(x) for t, x in zip(types, parts))
    except ValueError as exc:
        raise ParamError(f"{name} {spec!r}: {exc}") from exc


def cmd_discretize(args) -> int:
    p, T = _qr(args)
    rows = []
    for label, biq in _designs(args, p, T):
        row = {"method": label, **vars(biq)}  # the fields in order, not deep-copied
        if args.diffeq:
            row.update(vars(controllers.diff_eq_coeffs(biq)))
        rows.append(row)
    keys = list(rows[0])
    table = [
        line for r in rows for line in [r["method"]] + [f"  {k} = {r[k]:.12g}" for k in keys[1:]]
    ]
    return _emit(args, rows, keys, table)


def cmd_bode(args) -> int:
    p, T = _qr(args)
    grid = _grid_from_args(args, analysis.default_bode_grid)
    ((_, biq),) = _designs(args, p, T, "analog", one=True)
    tf = controllers.qr_continuous(p) if biq is None else biq.to_transfer(T)
    mag_db, phase, _ = analysis._response_arrays(tf, grid.as_array())
    rows = [{"f_hz": f, "mag_db": m, "phase_deg": ph}
            for f, m, ph in zip(grid.points, mag_db.tolist(), phase.tolist())]
    return _emit(args, rows, ["f_hz", "mag_db", "phase_deg"])


def cmd_error(args) -> int:
    p, T = _qr(args)
    grid = _grid_from_args(args, analysis.default_bode_grid)
    ((_, biq),) = _designs(args, p, T, one=True)
    curve = analysis.magnitude_error_curve(controllers.qr_continuous(p), biq.to_transfer(T), grid)
    return _emit(args, [{"f_hz": f, "err_db": e} for f, e in curve], ["f_hz", "err_db"])


def cmd_rmse(args) -> int:
    p, T = _qr(args)
    grid = _grid_from_args(args, analysis.default_rmse_grid)
    analog = controllers.qr_continuous(p)
    values = {
        label: analysis.rmse(analysis.magnitude_error_curve(analog, biq.to_transfer(T), grid))
        for label, biq in _designs(args, p, T)
    }
    rows = [{"method": k, "rmse_db": v} for k, v in values.items()]
    table = [f"{k:8s} rmse = {v:.6f} dB" for k, v in values.items()]
    ratio = None
    if "sbt" in values and "sota" in values:
        ratio = values["sbt"] / values["sota"]
        rows.append({"method": "ratio_sbt_over_sota", "rmse_db": ratio})
        table.append(f"ratio sbt/sota = {ratio:.4f}")
    payload = {"rmse_db": values, "ratio_sbt_over_sota": ratio}
    return _emit(args, rows, ["method", "rmse_db"], table, payload)


def cmd_pole_map(args) -> int:
    p, T = _qr(args)
    requested = _methods(args, p, T, "exact")
    records = analysis.pole_map_table(p, T, [m for _, m in requested if m is not None])
    if all(m is not None for _, m in requested):  # no reference row was asked for
        records = records[1:]
    rows = [
        {
            "method": r.label,
            "z_re": r.mapped_z.real, "z_im": r.mapped_z.imag,
            "sigma": r.equivalent_s.real, "omega": r.equivalent_s.imag,
        }
        for r in records
    ]
    table = ["method   mapped z               equivalent s"] + [
        f"{r['method']:8s} ({r['z_re']:.5f}, {r['z_im']:.5f})    "
        f"({r['sigma']:.3f}, {r['omega']:.0f})"
        for r in rows
    ]
    return _emit(args, rows, ["method", "z_re", "z_im", "sigma", "omega"], table)


def cmd_simulate_board(args) -> int:
    p, T = _qr(args)
    fs = args.constants["fs"]
    rows, writes = [], []
    for label, biq in _designs(args, p, T):
        coeffs = controllers.diff_eq_coeffs(biq)
        res = _per_method(label, sim.sine_steady_state, coeffs, args.f, fs, args.amp,
                          args.settle_cycles, args.measure_cycles)
        h, _ = analysis.complex_response(biq.to_transfer(T), np.array([args.f]))
        # the measured amplitude is |amp|*|H|, whatever the drive's sign
        predicted = float(abs(h[0])) * abs(args.amp)
        rows.append(
            {
                "method": label,
                "amplitude": res.amplitude,
                "phase_deg": res.phase_deg,
                "residual": res.residual,
                "predicted": predicted,
                "mismatch": abs(res.amplitude - predicted) / predicted if predicted else 0.0,
            }
        )
        if args.trace_dir:
            if not writes:  # one drive of 20 cycles, built once the probe has checked f and amp
                n = round(20 * fs / args.f)
                x = sim._sine_row(args.f, fs, args.amp, n)
                t, xs = (np.arange(float(n)) / fs).tolist(), x.tolist()
            y = _per_method(label, sim.run_difference_equation, coeffs, x)
            writes.append((os.path.join(args.trace_dir, f"board_{label}.csv"), ("t", "x", "y"),
                           zip(t, xs, y.tolist())))
    table = [
        f"{r['method']:8s} amp = {r['amplitude']:.4f}  phase = {r['phase_deg']:8.3f} deg  "
        f"predicted = {r['predicted']:.4f}  mismatch = {100 * r['mismatch']:.4f}%"
        for r in rows
    ]
    return _emit(args, rows, list(rows[0]), table, writes=writes)


def cmd_simulate_inverter(args) -> int:
    c = args.constants
    cfg = sim.InverterConfig(**{field: getattr(args, field) for _, field, _ in INVERTER_FLAGS})
    sim._thd_window(cfg, args.periods, round(cfg.duration * cfg.fs_ctrl))  # before any run
    T = 1.0 / cfg.fs_ctrl
    p = controllers.QrParams(c["kr_inv"], c["wc"], c["wn"])
    pi_leg = controllers.pi_discretize(controllers.PiParams(c["kp"], c["tau_i"]), T)
    rows, writes = [], []
    for name, biq in _designs(args, p, T, "pi"):
        legs = (pi_leg,) if biq is None else (pi_leg, controllers.diff_eq_coeffs(biq))
        trace = _per_method(name, sim.inverter_closed_loop, cfg, legs)
        rows.append({"method": name, "thd_pct": sim.trace_thd(trace, cfg, periods=args.periods)})
        if args.trace_dir:
            writes.append((os.path.join(args.trace_dir, f"inverter_{name}.csv"),
                           list(vars(trace)), zip(*vars(trace).values())))
    table = [f"{r['method']:8s} THDi = {r['thd_pct']:.4f} %" for r in rows]
    return _emit(args, rows, ["method", "thd_pct"], table, writes=writes)


def cmd_optimize(args) -> int:
    p, T = _qr(args)
    grid = _grid_from_args(args, analysis.default_rmse_grid)
    loss_cfg = tuning.LossConfig(grid=grid, loss_kind=args.loss.replace("-", "_"))
    search = tuning.SearchConfig(
        alpha_range=_colon_spec(args.alpha_range, "range", "lo:hi", float, float),
        beta_range=_colon_spec(args.beta_range, "range", "lo:hi", float, float),
        coarse_points=args.coarse,
        refine_iters=args.iters,
    )
    res = tuning.optimize_alpha_beta(p, T, loss_cfg, search)
    writes = [(args.trace, tuning.TraceEntry._fields, res.trace)] if args.trace else []
    summary = {
        "alpha": res.alpha,
        "beta": res.beta,
        "loss_value": res.loss_value,
        "straightforward_alpha": res.straightforward.alpha,
        "straightforward_beta": res.straightforward.beta,
        "straightforward_loss": res.straightforward_loss,
        "evaluations": len(res.trace),
    }
    table = [
        f"alpha = {res.alpha:.10f}",
        f"beta = {res.beta:.10f}",
        f"loss = {res.loss_value:.10g}",
        f"straightforward (0.5, {res.straightforward.beta:.10f}) "
        f"loss = {res.straightforward_loss!r}",
        f"evaluations = {len(res.trace)}",
    ]
    return _emit(args, [summary], list(summary), table, summary, writes=writes)


CONSTANT_HELP = {
    "--kr": "resonant gain", "--wc": "bandwidth, rad/s", "--wn": "resonant frequency, rad/s",
    "--fs": "sample rate, Hz", "--alpha": "shape factor for sbt", "--beta": "time factor for sbt",
}

# simulate inverter flag, the InverterConfig field that gives its default, help
INVERTER_FLAGS = (
    ("--fs-ctrl", "fs_ctrl", "control rate, Hz"),
    ("--harmonic-amp", "harmonic_amp", "injected grid harmonic amplitude, V"),
    ("--harmonic-freq", "harmonic_freq", "injected grid harmonic, Hz"),
    ("--i-ref", "i_ref_amplitude", "reference amplitude, A"),
    ("--delay-samples", "delay_samples", "bridge command delay, control samples"),
    ("--duration", "duration", "seconds"),
)


def _add_common(sp, constants=tuple(CONSTANT_HELP), with_grid: bool = False) -> None:
    for flag in constants:
        sp.add_argument(flag, type=float, default=None, help=CONSTANT_HELP[flag])
    sp.add_argument("--config", default=None, help="JSON file with constants")
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sp.add_argument("--output", default=None, help="write here instead of stdout")
    if with_grid:
        sp.add_argument("--grid", default=None, help="lo:hi:n or lo:hi:n:log, Hz")
        sp.add_argument(
            "--grid-file", default=None,
            help=f"explicit grid file, one Hz per line (or set ${GRID_ENV})",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once: it costs about 40 parses, and parse_args keeps no state.
    A command stores its handler's name, not the function, so main calls
    whatever cmd_<name> is bound to when the command runs."""
    ap = argparse.ArgumentParser(
        prog="sbtkit",
        description="Discretize, compare and simulate resonant current controllers.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(parent, name, text, func=None, **common):
        """A sub-parser; a leaf command also gets its handler's name and _add_common flags."""
        # a prefix must not stand for a flag: --fs is not --fs-ctrl
        sp = parent.add_parser(name, help=text, allow_abbrev=False)
        if func is not None:
            _add_common(sp, **common)
            sp.set_defaults(handler=func.__name__)
        return sp

    sp = command(sub, "discretize", "closed-form biquad coefficients", cmd_discretize)
    sp.add_argument("--method", "--methods", default=METHOD_NAMES)
    sp.add_argument("--diffeq", action="store_true", help="also print normalized update coefficients")

    sp = command(sub, "bode", "magnitude and phase over a grid", cmd_bode, with_grid=True)
    sp.add_argument("--method", default="analog", help="analog, euler, tustin, sota or sbt")

    sp = command(sub, "error", "analog minus discrete magnitude error", cmd_error, with_grid=True)
    sp.add_argument("--method", default="sbt")

    sp = command(sub, "rmse", "magnitude error RMSE per method", cmd_rmse, with_grid=True)
    sp.add_argument("--method", "--methods", default=METHOD_NAMES)

    sp = command(sub, "pole-map", "pole landing table", cmd_pole_map)
    sp.add_argument("--method", "--methods", default="exact," + METHOD_NAMES,
                    help="exact, euler, tustin, sota or sbt")

    scenario = command(sub, "simulate", "steady-state sine test or inverter loop")
    scenarios = scenario.add_subparsers(dest="scenario", required=True)

    sp = command(scenarios, "board", "steady-state sine response of each method", cmd_simulate_board)
    sp.add_argument("--method", "--methods", default=METHOD_NAMES)
    sp.add_argument("--f", type=float, default=950.0, help="drive frequency, Hz")
    sp.add_argument("--amp", type=float, default=1.0, help="drive amplitude")
    sp.add_argument("--settle-cycles", type=int, default=1200,
                    help="high-Q discrete resonators ring for hundreds of cycles")
    sp.add_argument("--measure-cycles", type=int, default=50)
    sp.add_argument("--trace-dir", default=None, help="write per-method trace CSVs here")

    # the loop runs at 1/--fs-ctrl with the gain kr_inv, set only through --config
    sp = command(scenarios, "inverter", "closed current loop with a grid harmonic, THD",
                 cmd_simulate_inverter, constants=("--wc", "--wn", "--alpha", "--beta"))
    sp.add_argument("--method", "--methods", default=METHOD_NAMES, help="also accepts pi")
    defaults = sim.InverterConfig()
    for flag, field, text in INVERTER_FLAGS:
        value = getattr(defaults, field)
        sp.add_argument(flag, dest=field, type=type(value), default=value, help=text)
    sp.add_argument("--periods", type=int, default=10, help="grid periods measured for THD")
    sp.add_argument("--trace-dir", default=None, help="write per-method trace CSVs here")

    sp = command(sub, "optimize", "search (alpha, beta) minimizing a loss", cmd_optimize,
                 constants=("--kr", "--wc", "--wn", "--fs"), with_grid=True)
    sp.add_argument("--loss", choices=[k.replace("_", "-") for k in tuning.LOSS_KINDS],
                    default="mag-rmse-db")
    sp.add_argument("--alpha-range", default="0.5:1.0")
    sp.add_argument("--beta-range", default="0.9:1.1")
    sp.add_argument("--coarse", type=int, default=41)
    sp.add_argument("--iters", type=int, default=40)
    sp.add_argument("--trace", default=None, help="write the evaluation trace CSV here")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # the caller's filters hold; a shown warning is one line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args.constants = _constants(args)
            return globals()[args.handler](args)
        except (SbtkitError, OSError, Warning) as exc:  # a Warning the caller's filters raise
            print(f"error: {exc}", file=sys.stderr)
            # the exit codes of the README: 2 for a bad input, 4 for a diverging run, 3 for the math
            return (2 if isinstance(exc, (ParamError, OSError, Warning))
                    else 4 if isinstance(exc, NumericOverflow) else 3)
        except OverflowError:  # the constants, then --alpha and --beta where given
            given = {k: v for k in ("alpha", "beta") if (v := getattr(args, k, None)) is not None}
            values = ", ".join(f"{k}={v!r}" for k, v in {**args.constants, **given}.items())
            print(f"error: double-precision overflow with {values}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
