"""Command-line interface: output formats, precedence, exit codes."""

import json
import math
import warnings

import pytest

from sbtkit import analysis, cli, load_grid_file, prewarp_factor, sim

KPW = prewarp_factor(5969.0, 5e-5)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({k: cells[i] for i, k in enumerate(header)})
    return rows


def test_discretize_default_table(capsys):
    code, out = run(capsys, "discretize")
    assert code == 0
    for name in ("euler", "tustin", "sota", "sbt"):
        assert name in out


def test_discretize_euler_column_csv(capsys):
    code, out = run(capsys, "discretize", "--method", "euler", "--format", "csv")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["b0"]) == 1.0
    assert float(row["a0"]) == 0.0
    assert float(row["a2"]) == pytest.approx(2 * 59.1 * 17.907 * 5e-5, rel=1e-15)


def test_discretize_sbt_at_tustin_pair_is_identical(capsys):
    _, sbt_out = run(capsys, "discretize", "--method", "sbt",
                     "--alpha", "0.5", "--beta", "1", "--format", "csv")
    _, tus_out = run(capsys, "discretize", "--method", "tustin", "--format", "csv")
    assert sbt_out.split("\n", 1)[1].replace("sbt,", "") == \
        tus_out.split("\n", 1)[1].replace("tustin,", "")


def test_discretize_sota_prewarped_resonance_term(capsys):
    _, out = run(capsys, "discretize", "--method", "sota,tustin", "--format", "csv")
    rows = {r["method"]: r for r in parse_csv(out)}
    gap = float(rows["sota"]["b2"]) - float(rows["tustin"]["b2"])
    assert gap == pytest.approx((KPW**2 - 1) * (0.5 * 5969.0 * 5e-5) ** 2, rel=1e-9)
    assert KPW == pytest.approx(1.00749, abs=1e-5)


def test_discretize_diffeq_and_json(capsys):
    code, out = run(capsys, "discretize", "--method", "sbt", "--diffeq", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["method"] == "sbt"
    for key in ("a2", "b0", "kin0", "kout2"):
        assert key in rows[0]


def test_bode_analog_at_resonance(capsys):
    code, out = run(capsys, "bode", "--method", "analog", "--grid", "950:960:2")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["mag_db"]) == pytest.approx(35.43, abs=0.01)


def test_bode_is_deterministic(capsys):
    _, a = run(capsys, "bode", "--method", "sbt")
    _, b = run(capsys, "bode", "--method", "sbt")
    assert a == b


def test_error_curve_small_for_sbt(capsys):
    code, out = run(capsys, "error", "--method", "sbt", "--grid", "945:955:11")
    assert code == 0
    errs = [abs(float(r["err_db"])) for r in parse_csv(out)]
    assert max(errs) < 0.1


def test_rmse_ratio_band(capsys):
    code, out = run(capsys, "rmse", "--format", "csv")
    assert code == 0
    rows = {r["method"]: float(r["rmse_db"]) for r in parse_csv(out) if r["method"] != "ratio_sbt_over_sota"}
    ratio = [float(r["rmse_db"]) for r in parse_csv(out) if r["method"] == "ratio_sbt_over_sota"][0]
    assert ratio == pytest.approx(rows["sbt"] / rows["sota"], rel=1e-12)
    assert 0.5 <= ratio <= 0.85


def test_pole_map_human_table(capsys):
    code, out = run(capsys, "pole-map")
    assert code == 0
    assert "(0.95494, 0.29377)" in out  # reference row, z to 5 decimals
    assert "(-17.907, 5969)" in out
    assert "(-869.692, 5796)" in out  # damping to 3 decimals, frequency integer
    assert "(0.95495, 0.29378)" in out


def test_pole_map_exact_only(capsys):
    code, out = run(capsys, "pole-map", "--methods", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + reference row
    assert lines[1].startswith("exact")


def test_pole_map_csv_full_precision(capsys):
    _, out = run(capsys, "pole-map", "--format", "csv")
    rows = {r["method"]: r for r in parse_csv(out)}
    assert float(rows["sbt"]["z_re"]) == pytest.approx(0.95495101890564504, rel=1e-15)
    assert len(rows["sbt"]["z_re"]) >= 17


def test_output_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out = run(capsys, "rmse", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.exists()
    assert "ratio_sbt_over_sota" in target.read_text()
    assert not list(tmp_path.glob("*.tmp"))


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kr": 10.0}))
    _, out = run(capsys, "discretize", "--method", "euler", "--format", "csv",
                 "--config", str(cfg))
    assert float(parse_csv(out)[0]["a2"]) == pytest.approx(2 * 10.0 * 17.907 * 5e-5, rel=1e-12)
    # an explicit flag beats the config file
    _, out = run(capsys, "discretize", "--method", "euler", "--format", "csv",
                 "--config", str(cfg), "--kr", "20")
    assert float(parse_csv(out)[0]["a2"]) == pytest.approx(2 * 20.0 * 17.907 * 5e-5, rel=1e-12)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gain": 1.0}))
    code, _ = run(capsys, "discretize", "--config", str(cfg))
    assert code == 2


def test_default_grid_env_var(tmp_path, capsys, monkeypatch):
    gfile = tmp_path / "grid.txt"
    gfile.write_text("940\n950\n960\n")
    monkeypatch.setenv(cli.GRID_ENV, str(gfile))
    code, out = run(capsys, "bode", "--method", "analog")
    assert code == 0
    assert [float(r["f_hz"]) for r in parse_csv(out)] == [940.0, 950.0, 960.0]
    # an explicit grid flag still wins over the environment
    code, out = run(capsys, "bode", "--method", "analog", "--grid", "100:200:2")
    assert [float(r["f_hz"]) for r in parse_csv(out)] == [100.0, 200.0]


def test_grid_file_flag(tmp_path, capsys):
    gfile = tmp_path / "grid.txt"
    gfile.write_text("# zoom\n949\n951\n")
    code, out = run(capsys, "error", "--method", "sota", "--grid-file", str(gfile))
    assert code == 0
    assert len(parse_csv(out)) == 2
    loaded = load_grid_file(str(gfile))
    assert loaded.points == (949.0, 951.0)


def test_simulate_board_summary_and_trace(tmp_path, capsys):
    code, out = run(capsys, "simulate", "board", "--method", "euler",
                    "--settle-cycles", "300", "--format", "csv",
                    "--trace-dir", str(tmp_path))
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["amplitude"]) == pytest.approx(1.168617, rel=1e-3)
    assert float(row["mismatch"]) < 0.005
    trace = (tmp_path / "board_euler.csv").read_text().splitlines()
    assert trace[0] == "t,x,y"
    assert len(trace) > 400


def test_simulate_board_zero_amplitude(tmp_path, capsys):
    code, out = run(capsys, "simulate", "board", "--method", "tustin", "--amp", "0",
                    "--settle-cycles", "50", "--format", "csv",
                    "--trace-dir", str(tmp_path))
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["amplitude"]) == 0.0
    body = (tmp_path / "board_tustin.csv").read_text().splitlines()[1:]
    assert all(float(line.split(",")[2]) == 0.0 for line in body)


def test_simulate_inverter_ordering(tmp_path, capsys):
    code, out = run(capsys, "simulate", "inverter", "--method", "pi,sota,sbt",
                    "--duration", "0.5", "--format", "csv",
                    "--trace-dir", str(tmp_path))
    assert code == 0
    rows = {r["method"]: float(r["thd_pct"]) for r in parse_csv(out)}
    assert rows["pi"] > rows["sota"] >= rows["sbt"]
    assert (tmp_path / "inverter_pi.csv").exists()


def test_optimize_summary_and_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out = run(capsys, "optimize", "--coarse", "7", "--iters", "5",
                    "--format", "json", "--trace", str(trace_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["loss_value"] <= summary["straightforward_loss"]
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "stage,alpha,beta,loss,best_loss"
    assert len(lines) == summary["evaluations"] + 1


def test_optimize_collapsed_box(capsys):
    code, out = run(capsys, "optimize", "--alpha-range", "0.8:0.8",
                    "--beta-range", "1.01:1.01", "--coarse", "3", "--iters", "2",
                    "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["alpha"] == 0.8
    assert summary["beta"] == 1.01


def test_exit_code_bad_method(capsys):
    code, _ = run(capsys, "discretize", "--method", "simpson")
    assert code == 2


def test_exit_code_bad_grid_spec(capsys):
    code, _ = run(capsys, "bode", "--grid", "900")
    assert code == 2


def test_exit_code_missing_config(capsys):
    code, _ = run(capsys, "discretize", "--config", "/nonexistent/c.json")
    assert code == 2


def test_exit_code_domain_error(capsys):
    # resonance above the angular Nyquist rate: pre-warp factor undefined
    code, _ = run(capsys, "discretize", "--method", "sota", "--fs", "1000")
    assert code == 3


def test_exit_code_nyquist_grid(capsys):
    code, _ = run(capsys, "bode", "--method", "sbt", "--grid", "9000:12000:5")
    assert code == 3


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
@pytest.mark.filterwarnings("ignore::sbtkit.UnstableWarning")
def test_exit_code_divergence(capsys):
    code, _ = run(capsys, "simulate", "inverter", "--method", "sbt",
                  "--alpha", "0.0", "--duration", "0.5")
    assert code == 4


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def test_seventeen_digit_serialization(capsys):
    _, out = run(capsys, "bode", "--method", "analog", "--grid", "950:960:2")
    mag = parse_csv(out)[0]["mag_db"]
    assert len(mag.replace("-", "").replace(".", "")) >= 16
    assert float(mag) == pytest.approx(20 * math.log10(abs(
        complex(0, 2 * 59.1 * 17.907 * 2 * math.pi * 950)
        / complex(5969.0**2 - (2 * math.pi * 950) ** 2, 2 * 17.907 * 2 * math.pi * 950)
    )), rel=1e-12)


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_code_zero_sample_rate(capsys):
    code, out, err = run_err(capsys, "discretize", "--fs", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: fs must be positive")


@pytest.mark.parametrize("flag", ["--kr", "--wn"])
def test_exit_code_non_finite_constant(capsys, flag):
    code, out, _ = run_err(capsys, "discretize", flag, "inf", "--format", "json")
    assert code == 2
    assert out == ""


def test_exit_code_non_finite_beta(capsys):
    code, _, _ = run_err(capsys, "discretize", "--method", "sbt", "--beta", "inf")
    assert code == 2


def test_exit_code_empty_grid_spec(capsys):
    code, _, err = run_err(capsys, "bode", "--grid", "10:9500:0")
    assert code == 2
    assert "at least one point" in err


@pytest.mark.parametrize("argv", [
    ("rmse", "--grid", "900:1000:1.5"),
    ("bode", "--grid", "a:1000:5"),
    ("optimize", "--alpha-range", "a:b"),
    ("simulate", "inverter", "--duration", "nan"),
])
def test_exit_code_unparsable_or_non_finite_argument(capsys, argv):
    code, _, err = run_err(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_exit_code_config_value_not_a_number(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kr": "59.1"}))
    code, _, _ = run_err(capsys, "discretize", "--config", str(cfg))
    assert code == 2


def test_exit_code_float_range_error(capsys):
    # (wn*T)**2 overflows a double: a math error, not a traceback
    code, _, err = run_err(capsys, "discretize", "--method", "euler", "--wn", "1e200")
    assert code == 3
    assert err.startswith("error: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_json_writes_non_finite_as_null(capsys):
    code, out, _ = run_err(capsys, "bode", "--kr", "1e308", "--grid", "940:960:3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=lambda tok: pytest.fail(f"{tok} in JSON"))
    assert rows[0]["f_hz"] == 940.0
    assert rows[0]["mag_db"] is None


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
def test_overflow_message_prints_plain_float(capsys):
    code, _, err = run_err(capsys, "simulate", "inverter", "--method", "sbt",
                           "--alpha", "0.05")
    assert code == 4
    assert "np.float64" not in err
    assert "inductor current 1004106346892.7085 at step 8213" in err


def test_optimize_csv_is_one_row(capsys):
    code, out = run(capsys, "optimize", "--coarse", "3", "--iters", "1",
                    "--beta-range", "0.9:0.95", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["straightforward_loss"] == ""
    assert int(rows[0]["evaluations"]) == 13  # 3x3 coarse cells, one 4-point refine
    assert float(rows[0]["loss_value"]) > 0


def test_inverter_unknown_method_rejected_before_running(tmp_path, capsys):
    code, _, err = run_err(capsys, "simulate", "inverter", "--method", "pi,simpson",
                           "--trace-dir", str(tmp_path))
    assert code == 2
    assert "simpson" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_exit_code_optimize_without_finite_loss(capsys, fmt):
    code, out, err = run_err(capsys, "optimize", "--kr", "1e308", "--coarse", "3",
                             "--iters", "1", "--format", fmt)
    assert code == 3
    assert out == ""
    assert "finite loss" in err


@pytest.mark.parametrize("f", ["0.1", "2"])
def test_exit_code_board_drive_too_slow_for_window(capsys, f):
    # f/fs rounds to 0 cycles per sample: a bad argument, not a division error
    code, out, err = run_err(capsys, "simulate", "board", "--f", f)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: f={float(f)!r} is too low")


def test_pole_map_without_prewarp_row_ignores_prewarp_domain(capsys):
    # omega_n*T/2 is beyond pi/2 at 1 kHz, but no requested row pre-warps
    code, out = run(capsys, "pole-map", "--methods", "exact,euler,tustin", "--fs", "1000",
                    "--format", "csv")
    assert code == 0
    assert [r["method"] for r in parse_csv(out)] == ["exact", "euler", "tustin"]
    code, _, err = run_err(capsys, "pole-map", "--fs", "1000")
    assert code == 3
    assert "outside (0, pi/2)" in err


IGNORED_BEFORE = [
    ("simulate", "board", flag) for flag in (
        "--fs-ctrl", "--harmonic-amp", "--harmonic-freq", "--i-ref", "--delay-samples",
        "--duration", "--periods",
    )
] + [
    ("simulate", "inverter", flag) for flag in (
        "--kr", "--fs", "--f", "--amp", "--settle-cycles", "--measure-cycles",
    )
] + [("optimize", flag) for flag in ("--alpha", "--beta")]


@pytest.mark.parametrize("argv", IGNORED_BEFORE, ids=" ".join)
def test_flag_the_command_does_not_read_is_rejected(capsys, argv):
    # these used to parse and leave the printed result at its default
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-1]} 5" in captured.err


def test_removed_flag_is_not_taken_as_a_prefix(tmp_path, capsys):
    # without prefix matching off, --fs would run the loop at --fs-ctrl 1000
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "inverter", "--fs", "1000", "--trace-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --fs 1000" in captured.err
    assert "harmonic_freq" not in captured.err
    assert not list(tmp_path.iterdir())


def test_float_range_error_names_the_resolved_constants(capsys):
    code, out, err = run_err(capsys, "discretize", "--method", "euler", "--wn", "1e200")
    assert code == 3
    assert out == ""
    assert err.startswith("error: double-precision overflow")
    assert "wn=1e+200" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stable_loop_crossing_the_guard_reports_the_exact_step(capsys):
    # a stable loop tracking a huge reference: the block run crosses the
    # guard, and the per-step rerun names the step the current crossed it
    code, out, err = run_err(capsys, "simulate", "inverter", "--method", "sota",
                             "--i-ref", "2e12")
    assert code == 4
    assert out == ""
    assert "inductor current 1000519201477.8395 at step 66" in err


@pytest.mark.parametrize("argv, count", [
    (("simulate", "inverter", "--duration", "1e6"), "40000000000 steps"),
    (("simulate", "board", "--settle-cycles", "1000000000"), "21052633979 samples"),
])
def test_sample_cap_exits_2_before_running(tmp_path, capsys, argv, count):
    code, out, err = run_err(capsys, *argv, "--trace-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert count in err and "MAX_SAMPLES" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("discretize", "--method", "sbt"),
    ("bode", "--method", "sbt"),
    ("error",),
    ("rmse",),
    ("simulate", "board"),
], ids=" ".join)
def test_non_finite_coefficients_exit_3(capsys, argv):
    # kr*wc*T overflows a double: no rows of nulls, no raw warning
    code, out, err = run_err(capsys, *argv, "--kr", "1e308", "--format", "json")
    assert code == 3
    assert out == ""
    assert err.startswith("error: double-precision overflow with kr=1e+308, ")


@pytest.mark.parametrize("argv, count", [
    (("bode", "--grid", "10:9000:1000000000000"), "grid of 1000000000000 points"),
    (("optimize", "--coarse", "100000", "--iters", "1"), "search of 10000000005 evaluations"),
    (("simulate", "inverter", "--delay-samples", "100000"), "delay_samples=100000"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_work_caps_exit_2_before_running(capsys, argv, count):
    code, out, err = run_err(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert count in err


def test_grid_cap_holds_for_grid_files_and_the_environment(tmp_path, capsys, monkeypatch):
    n = analysis.MAX_GRID_POINTS + 1
    path = tmp_path / "big.txt"
    path.write_text("\n".join(str(f) for f in range(1, n + 1)))
    code, _, err = run_err(capsys, "rmse", "--grid-file", str(path))
    assert code == 2 and f"grid of {n} points" in err
    monkeypatch.setenv(cli.GRID_ENV, str(path))
    code, _, err = run_err(capsys, "optimize", "--coarse", "3", "--iters", "1")
    assert code == 2 and f"grid of {n} points" in err


@pytest.mark.filterwarnings("error")
def test_inverter_gain_overflow_exits_3_without_warnings(tmp_path, capsys):
    config = tmp_path / "board.json"
    config.write_text(json.dumps({"kr_inv": 1e308}))
    code, out, err = run_err(capsys, "simulate", "inverter", "--config", str(config))
    assert code == 3
    assert out == ""
    assert err.startswith("error: double-precision overflow with ")
    assert "kr_inv=1e+308" in err
    # the PI leg alone does not read kr_inv
    code, out, _ = run_err(capsys, "simulate", "inverter", "--config", str(config),
                           "--methods", "pi", "--duration", "0.4")
    assert code == 0
    assert out.startswith("pi ")


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert parser.parse_args(["bode", "--method", "sbt"]).method == "sbt"
    assert parser.parse_args(["bode"]).method == "analog"


@pytest.mark.parametrize("periods", ["0", "-3"])
def test_inverter_rejects_fewer_than_one_thd_period(capsys, periods):
    code, out, err = run_err(capsys, "simulate", "inverter", "--method", "sbt",
                             "--duration", "0.4", "--periods", periods)
    assert code == 2
    assert out == ""
    assert err == f"error: periods must be at least 1, got {periods}\n"


@pytest.mark.filterwarnings("error")
def test_analog_bode_overflow_raises_no_numpy_warning(capsys):
    code, out, _ = run_err(capsys, "bode", "--kr", "1e308", "--grid", "940:960:3",
                           "--format", "json")
    assert code == 0
    assert [r["mag_db"] for r in json.loads(out)] == [None, None, None]


def test_error_method_name_is_case_insensitive(capsys):
    _, lower = run(capsys, "error", "--method", "sbt", "--grid", "900:1000:21", "--format", "csv")
    code, upper = run(capsys, "error", "--method", "SBT", "--grid", "900:1000:21", "--format", "csv")
    assert code == 0
    assert upper == lower


@pytest.mark.parametrize("command", ["bode", "error"])
def test_single_method_commands_reject_a_list(capsys, command):
    code, out, err = run_err(capsys, command, "--method", "sbt,euler")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--method" in err


@pytest.mark.parametrize("content", [b"900\nabc\n", b"900\n\xff\n"], ids=["not-a-number", "not-utf8"])
def test_unreadable_grid_file_exits_2(tmp_path, capsys, monkeypatch, content):
    path = tmp_path / "grid.txt"
    path.write_bytes(content)
    code, out, err = run_err(capsys, "rmse", "--grid-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: grid file {str(path)!r}: ") and err.count("\n") == 1
    monkeypatch.setenv(cli.GRID_ENV, str(path))
    code, out, err = run_err(capsys, "optimize", "--coarse", "3", "--iters", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: grid file {str(path)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff", "is not valid JSON"), (b"[1, 2", "is not valid JSON"),
     (b"[1, 2]", "config file must hold a JSON object")],
    ids=["not-utf8", "invalid-json", "json-list"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "board.json"
    path.write_bytes(content)
    code, out, err = run_err(capsys, "discretize", "--config", str(path))
    assert code == 2 and out == ""
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("discretize", "--method", ","), 2, "no methods requested"),
        (("bode", "--grid", "1:2:3:cubic"), 2, "kind must be linear or log"),
        (("optimize", "--alpha-range", "0.5"), 2, "range must be lo:hi"),
        (("simulate", "inverter", "--methods", "pi", "--harmonic-amp", "-1"), 2, "non-negative"),
        (("simulate", "inverter", "--methods", "pi", "--fs-ctrl", "40001"), 3,
         "does not give whole samples per period"),
    ],
)
def test_rejected_arguments_end_in_one_error_line(capsys, argv, code, message):
    got, out, err = run_err(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_output_onto_a_directory_exits_2_and_leaves_no_temporary(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run_err(capsys, "discretize", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(target.iterdir()) == []


def test_an_unwritable_output_names_only_the_target(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    target = tmp_path / "out"
    target.mkdir()
    for path in (target, tmp_path / "missing" / "out.json"):
        code, out, err = run_err(capsys, "discretize", "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(path)!r}\n")
        assert ".tmp" not in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_linear_loss_overflow_exits_3_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "optimize", "--kr", "1e300", "--loss", "mag-rmse-linear",
                                 "--coarse", "3", "--iters", "1")
    assert code == 3 and out == ""
    assert err == "error: no (alpha, beta) in the box gives a finite loss\n"


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
def test_board_overflow_names_its_method(capsys):
    code, out, err = run_err(capsys, "simulate", "board", "--methods", "euler,sbt",
                             "--alpha", "0.05")
    assert code == 4 and out == ""
    assert err == "error: method sbt: output -1119025234619.8271 at sample 721 exceeds guard 1e+12\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "board", "--methods", "euler,sota", "--fs", "1000", "--f", "100"),
    ("simulate", "inverter", "--methods", "pi,sota", "--wn", "130000"),
], ids=["board", "inverter"])
def test_a_method_that_cannot_be_discretized_leaves_no_trace_file(tmp_path, capsys, argv):
    code, out, err = run_err(capsys, *argv, "--trace-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: omega_n*T/2 = ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_every_method_is_discretized_before_the_first_run(capsys):
    # pi diverges at this rate, but sota's pre-warp fails first, before any run
    code, out, err = run_err(capsys, "simulate", "inverter", "--methods", "pi,euler,sota",
                             "--fs-ctrl", "1000", "--harmonic-freq", "250")
    assert code == 3 and out == ""
    assert err == "error: omega_n*T/2 = 2.9845 outside (0, pi/2)\n"


def test_inverter_rate_takes_the_one_positive_finite_rule(capsys):
    code, out, err = run_err(capsys, "simulate", "inverter", "--fs-ctrl", "0")
    assert code == 2 and out == ""
    assert err == "error: fs_ctrl must be positive and finite, got 0.0\n"


@pytest.mark.filterwarnings("ignore::sbtkit.StabilityRangeWarning")
@pytest.mark.parametrize("argv", [
    ("simulate", "board", "--methods", "euler,sbt", "--alpha", "0.05"),
    ("simulate", "inverter", "--methods", "pi,sbt", "--alpha", "0.05"),
], ids=["board", "inverter"])
def test_a_later_method_that_diverges_leaves_no_trace_file(tmp_path, capsys, argv):
    # the first method runs to the end; its trace must not outlive the failed command
    code, out, err = run_err(capsys, *argv, "--trace-dir", str(tmp_path / "D"))
    assert code == 4 and out == ""
    assert err.startswith("error: method sbt: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_board_not_settled_names_its_method(capsys):
    code, out, err = run_err(capsys, "simulate", "board", "--methods", "euler,sbt",
                             "--settle-cycles", "2")
    assert code == 3 and out == ""
    assert err == ("error: method euler: window amplitudes 1.1657680117987348 and "
                   "1.1686168705855131 differ by more than 0.1%; increase settle_cycles\n")


def test_the_methods_of_one_board_run_reduce_the_drive_frequency_once(capsys):
    sim._cycle_fraction.cache_clear()
    code, _ = run(capsys, "simulate", "board", "--methods", "euler,tustin,sota,sbt", "--f", "937.5")
    assert code == 0
    info = sim._cycle_fraction.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_a_library_warning_is_one_line_on_stderr(capsys):
    code, out, err = run_err(capsys, "discretize", "--method", "sbt", "--alpha", "0.3")
    assert code == 0 and out.startswith("sbt\n")
    assert err == "warning: alpha=0.3 below 0.5: discretized poles may leave the unit disk\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "board", "--methods", "euler,sbt"),
    ("simulate", "inverter", "--methods", "pi,sbt", "--duration", "0.4"),
])
def test_an_output_that_cannot_be_written_leaves_no_trace_file(tmp_path, capsys, argv):
    # every file is staged before any is renamed into place, so the traces go too
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_err(capsys, *argv, "--trace-dir", str(tmp_path / "D"),
                             "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and err.count("\n") == 1
    assert not list((tmp_path / "D").iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_trace_and_an_output_are_written_together(tmp_path, capsys):
    code, out = run(capsys, "simulate", "board", "--methods", "euler,sbt",
                    "--trace-dir", str(tmp_path / "D"), "--output", str(tmp_path / "out.txt"))
    assert code == 0 and out == ""
    assert sorted(p.name for p in (tmp_path / "D").iterdir()) == ["board_euler.csv", "board_sbt.csv"]
    assert (tmp_path / "out.txt").read_text().startswith("euler ")
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_warning_raised_as_an_error_exits_2(capsys):
    # python -W error: the flag asked for an alpha below the stable range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(capsys, "discretize", "--method", "sbt", "--alpha", "0.3")
    assert code == 2 and out == ""
    assert err == "error: alpha=0.3 below 0.5: discretized poles may leave the unit disk\n"
