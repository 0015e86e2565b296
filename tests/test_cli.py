"""Command-line interface: outputs, golden regressions, exit codes."""

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

from zoo import example1, huge_switchover, swamped_queue, time_scaled_probe
from priopoll import (Analyzer, Exponential, PollingModel, Uniform, UnsupportedEvaluation, cli,
                      load_model, model_to_config)

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "priopoll" / "data"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_stdout(capsys):
    code, out = _run(["analyze", "--model", str(DATA / "example1.json")], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("queue,class,discipline")
    row_1l = lines[2].split(",")
    assert row_1l[:3] == ["1", "L", "mixed_ge"]
    assert float(row_1l[3]) == pytest.approx(14.575, abs=1e-3)
    assert float(row_1l[4]) == pytest.approx(118.217, rel=1e-3)


@pytest.mark.parametrize("model,golden", [
    ("example1.json", "example1_analyze.csv"),
    ("example1_det.json", "example1_det_analyze.csv"),
    ("example2.json", "example2_analyze.csv"),
    ("vacation.json", "vacation_analyze.csv"),
])
def test_analyze_golden(model, golden, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code = cli.main(["analyze", "--model", str(DATA / model),
                     "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("model,cycles", [
    ("example1", "2000"),   # about 4 customers per visit
    ("example2", "300"),    # rho 0.9: tens per visit, overtaking highs
], ids=["example1", "example2"])
def test_simulate_golden(model, cycles, capsys):
    # the CI console-script step diffs the installed entry point against the same files
    code, out = _run(["simulate", "--model", str(DATA / f"{model}.json"),
                      "--cycles", cycles, "--reps", "2"], capsys)
    assert code == 0
    assert out == (GOLDEN / f"{model}_simulate.csv").read_text()


@pytest.mark.parametrize("argv,golden", [
    (["sweep", "--model", str(DATA / "example1.json"),
      "--sweep", "lambda_high:Q1:0:0.5:6", "--hold-total"], "example1_sweep.csv"),
    (["vacation", "--rho", "0.8", "--s", "10", "--points", "10"], "vacation_sweep.csv"),
], ids=["sweep", "vacation"])
def test_sweep_golden(argv, golden, tmp_path):
    # the CI console-script step diffs the installed entry point against the same files
    out_path = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_text() == (GOLDEN / golden).read_text()


def test_compare_golden_and_leftover_column(tmp_path):
    # the CI console-script step diffs the installed entry point against the
    # same files; example2 runs all nine discipline pairs, both classes at
    # both queues
    out_path = tmp_path / "cmp.csv"
    for argv, golden in ((["--model", str(DATA / "example1.json"), "--queues", "1"],
                          "example1_compare.csv"),
                         (["--model", str(DATA / "example2.json")], "example2_compare.csv")):
        assert cli.main(["compare", *argv, "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert text == (GOLDEN / golden).read_text()
        # an exhaustive queue leaves no work behind at itself
        exh_rows = [row for row in (line.split(",") for line in text.splitlines())
                    if row[3] == "exhaustive"]
        assert exh_rows and all(row[6] == "0" for row in exh_rows)


def test_compare_full_grid_row_count(capsys):
    code, out = _run(["compare", "--model", str(DATA / "example2.json")], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    # 9 combos x (4 class rows + 1 system row) + header
    assert len(lines) == 9 * 5 + 1


def test_compare_rejects_duplicate_queue_indices(capsys):
    code = cli.main(["compare", "--model", str(DATA / "example2.json"),
                     "--queues", "1,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: duplicate queue index")


@pytest.mark.parametrize("queues", ["3", "0"])
def test_compare_rejects_queue_indices_out_of_range(queues, capsys):
    code = cli.main(["compare", "--model", str(DATA / "example2.json"),
                     "--queues", queues])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: queue index {queues} out of range")


def test_compare_no_high_class_gated_equals_mixed(tmp_path, capsys):
    # a queue without high-priority traffic: gated and mixed variants coincide
    cfg = {"queues": [{"lambda_low": 0.4, "discipline": "mixed_ge",
                       "service_low": {"family": "exponential",
                                       "params": {"mean": 1.0}}}],
           "switchovers": [{"family": "exponential", "params": {"mean": 1.0}}]}
    path = tmp_path / "single.json"
    path.write_text(json.dumps(cfg))
    code, out = _run(["compare", "--model", str(path)], capsys)
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        if cells[1] == "1":
            rows[cells[0]] = (float(cells[4]), float(cells[5]))
    assert rows["gated"][0] == pytest.approx(rows["mixed_ge"][0], rel=1e-6)
    assert rows["gated"][1] == pytest.approx(rows["mixed_ge"][1], rel=1e-6)


def test_byte_identical_reruns(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        assert cli.main(["analyze", "--model", str(DATA / "example1.json"),
                         "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_table_format(capsys):
    code, out = _run(["analyze", "--model", str(DATA / "example1.json"),
                      "--format", "table"], capsys)
    assert code == 0
    assert "14.575" in out and "," not in out.splitlines()[1]


def test_table_format_keeps_nonfinite_cells(capsys):
    # one replication: every confidence half-width is nan
    code, out = _run(["simulate", "--model", str(DATA / "example1.json"),
                      "--reps", "1", "--cycles", "200", "--format", "table"], capsys)
    assert code == 0
    assert out.splitlines()[1].split()[6] == "nan"
    assert cli._csv_to_table("a,b\ninf,-inf\n").splitlines()[1].split() == ["inf", "-inf"]


def test_check_passes(capsys):
    code, out = _run(["check", "--model", str(DATA / "example2.json")], capsys)
    assert code == 0
    assert out.splitlines()[0] == "pcl_lhs,pcl_rhs,pcl_residual"
    assert float(out.splitlines()[1].split(",")[2]) < 1e-6


def test_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "pcl_check", lambda m: (1.0, 2.0, 0.5))
    code, _ = _run(["check", "--model", str(DATA / "example1.json")], capsys)
    assert code == 4


def test_unstable_model_exit_code(tmp_path, capsys):
    cfg = json.loads((DATA / "example1.json").read_text())
    cfg["queues"][0]["lambda_low"] = 5.0
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["analyze", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "unstable" in err


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"queues": [{"lambda_low": 0.1, "bogus": 1}], "switchovers": []}')
    code = cli.main(["analyze", "--model", str(path)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["NaN", "-0.1"])
def test_bad_rate_exit_code(rate, tmp_path):
    cfg = json.loads((DATA / "example1.json").read_text())
    cfg["queues"][0]["lambda_low"] = "RATE"
    path = tmp_path / "bad_rate.json"
    path.write_text(json.dumps(cfg).replace('"RATE"', rate))
    proc = subprocess.run(
        [sys.executable, "-m", "priopoll.cli", "analyze", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field,text", [
    ("lambda_high", "[0.2]"),
    ("lambda_high", "true"),
    ("service_low", '{"family": "erlang", "params": {"shape": 2.7, "mean": 1.0}}'),
    ("service_low", '{"family": "erlang", "params": {"shape": "3", "mean": 1.0}}'),
    ("service_low", '{"family": "erlang", "params": {"shape": true, "mean": 1.0}}'),
    ("service_low", '{"family": "erlang", "params": {"shape": Infinity, "mean": 1.0}}'),
    ("service_low", '{"family": "hyperexponential", "params": {"probs": 0.5, "means": [1.0]}}'),
    ("service_low", '{"family": "deterministic", "params": {"value": [1.0]}}'),
    ("service_low", '{"family": ["exponential"], "params": {"mean": 1.0}}'),
    ("service_low", '"exponential"'),
    ("service_low", '{"family": "exponential", "params": [1.0]}'),
    ("service_low", '{"family": "exponential", "params": {}}'),
    ("service_low", "null"),
    ("discipline", '"fifo"'),
], ids=["rate-list", "rate-bool", "shape-2.7", "shape-str", "shape-bool", "shape-inf",
        "probs-scalar", "value-list", "family-list", "service-str", "params-list",
        "params-missing", "service-null", "discipline-unknown"])
def test_malformed_model_exit_code(field, text, tmp_path):
    cfg = json.loads((DATA / "example1.json").read_text())
    cfg["queues"][0][field] = "VALUE"
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg).replace('"VALUE"', text))
    proc = subprocess.run(
        [sys.executable, "-m", "priopoll.cli", "analyze", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


_EXP = {"family": "exponential", "params": {"mean": 1.0}}
_QUEUE = {"lambda_low": 0.2, "service_low": _EXP}


@pytest.mark.parametrize("cfg", [
    [_QUEUE],
    {"switchovers": [_EXP]},
    {"queues": [], "switchovers": []},
    {"queues": [_QUEUE], "switchovers": _EXP},
    {"queues": [0.2], "switchovers": [_EXP]},
    {"queues": [_QUEUE], "switchovers": [_EXP, _EXP]},
], ids=["not-an-object", "no-queues-key", "empty-queues", "switchovers-object",
        "queue-number", "switchover-count"])
def test_malformed_model_document_exit_code(cfg, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "priopoll.cli", "analyze", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["analyze"], ["check"], ["compare", "--queues", "1"]])
def test_zero_mean_service_exit_code(command, tmp_path, capsys):
    # a zero-length service is a legal distribution but not for a class
    # with arrivals: a typed error, not a ZeroDivisionError traceback
    cfg = json.loads((DATA / "example1.json").read_text())
    cfg["queues"][0]["service_high"] = {"family": "deterministic", "params": {"value": 0.0}}
    path = tmp_path / "zero_service.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command[0], "--model", str(path), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: class H has arrivals but a zero-mean")


def test_mixed_queue_without_low_class_exit_code(tmp_path):
    cfg = {"queues": [{"lambda_high": 0.3, "discipline": "mixed_ge",
                       "service_high": {"family": "exponential",
                                        "params": {"mean": 1.0}}}],
           "switchovers": [{"family": "deterministic", "params": {"value": 10.0}}]}
    path = tmp_path / "high_only.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "priopoll.cli", "analyze", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("1,H,mixed_ge,5.42857,")
    assert proc.stderr == ""


def test_missing_file_exit_code(capsys):
    assert cli.main(["analyze", "--model", "/nonexistent.json"]) == 1


def test_convergence_failure_exit_code(tmp_path, capsys):
    cfg = json.loads((DATA / "example1.json").read_text())
    cfg["queues"][0]["lambda_low"] = 0.5999999999  # rho = 0.9999999999
    path = tmp_path / "critical.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["analyze", "--model", str(path)])
    assert code == 3
    assert "convergence" in capsys.readouterr().err


def test_simulate_horizon_past_the_clock_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(model_to_config(huge_switchover())))
    assert cli.main(["simulate", "--model", str(path), "--cycles", "200", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the simulator's clock")


def test_error_without_an_exit_code_of_its_own(monkeypatch, capsys):
    # every PriopollError is caught: one without a code of its own exits 1
    def fail(args):
        raise UnsupportedEvaluation("outside the evaluable domain")

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    assert cli.main(["analyze", "--model", str(DATA / "example1.json")]) == 1
    assert capsys.readouterr().err == "error: outside the evaluable domain\n"


@pytest.mark.parametrize("build,prefix", [
    (huge_switchover, "error: a service or"),
    (lambda: time_scaled_probe(1e120), "error: a service or"),
    (lambda: example1(det_switchover=1e102), "error: queue 1 class H: a waiting-time"),
    # mean 5e159, E(S^2) past the float range
    (lambda: PollingModel(example1().queues, (Uniform(0.0, 1e160), Exponential(1.0))),
     "error: a service or"),
    (swamped_queue, "error: queue 1 class H: the mean queue length"),
], ids=["huge_switchover", "probe_1e120", "det_1e102", "uniform_1e160", "swamped_queue"])
def test_moment_past_the_float_range_exit_code(build, prefix, tmp_path, capsys):
    # a moment past the float range is a parameter error, not an
    # OverflowError traceback or a NaN variance
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(model_to_config(build())))
    assert cli.main(["analyze", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and "does not fit in a float" in captured.err


def test_sweep_equal_disciplines_at_zero_high_rate(capsys):
    code, out = _run(["sweep", "--model", str(DATA / "example1.json"),
                      "--sweep", "lambda_high:Q1:0:0.5:5", "--hold-total"],
                     capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,queue,value,discipline,mean_wait_low"
    at_zero = {l.split(",")[3]: float(l.split(",")[4])
               for l in lines[1:] if float(l.split(",")[2]) == 0.0}
    assert at_zero["gated"] == pytest.approx(at_zero["mixed_ge"], rel=1e-6)
    # grid x disciplines rows
    assert len(lines) == 1 + 5 * 2


def test_sweep_over_a_class_without_service_rejected(tmp_path, capsys):
    # Q2 of example1 has no high class and no service_high to give it
    out_path = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--model", str(DATA / "example1.json"),
                     "--sweep", "lambda_high:Q2:0:0.1:3", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "service_high" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_sweep_hold_total_over_the_low_rate(capsys):
    # the high rate takes up what the low one leaves of queue 1's total; at
    # a zero low rate no low class exists and the row has no wait
    code, out = _run(["sweep", "--model", str(DATA / "example1.json"),
                      "--sweep", "lambda_low:Q1:0:0.4:3", "--hold-total"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[2:4] for r in rows] == [[x, d] for x in ("0", "0.2", "0.4")
                                      for d in ("gated", "mixed_ge")]
    assert [r[4] for r in rows[:2]] == ["", ""]
    base = load_model(DATA / "example1.json")
    q = base.queues[0]
    for r in rows[2:]:
        x = float(r[2])
        queue = dataclasses.replace(q, lambda_high=q.lambda_high + q.lambda_low - x,
                                    lambda_low=x, discipline=r[3])
        model = dataclasses.replace(base, queues=(queue, *base.queues[1:]))
        assert r[4] == f"{Analyzer(model).mean_wait(0, 'L'):.6g}"


def test_sweep_bad_spec(capsys):
    code, _ = _run(["sweep", "--model", str(DATA / "example1.json"),
                    "--sweep", "nonsense"], capsys)
    assert code == 1


@pytest.mark.parametrize("spec,message", [
    ("mu:Q1:0:0.5:3", "unsupported sweep parameter"),
    ("lambda_high:Q3:0:0.1:3", "queue index 3 out of range"),
    ("lambda_high:Q1:0.2:0.2:3", "sweep grid must be strictly increasing"),
    ("lambda_high:Q1:0:0.2:1", "sweep grid must be strictly increasing"),
], ids=["parameter", "queue", "empty-range", "one-point"])
def test_sweep_rejects_specs_outside_the_model(spec, message, capsys):
    code = cli.main(["sweep", "--model", str(DATA / "example1.json"), "--sweep", spec])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_vacation_sweep_brackets_crossover(capsys):
    code, out = _run(["vacation", "--rho", "0.8", "--s", "10", "--points", "50"],
                     capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 50
    star = float(lines[0].split(",")[3])
    assert star == pytest.approx(0.6693877551020408, rel=1e-8)
    # sign change of gated - mixed difference brackets the crossover
    crossings = []
    prev = None
    for line in lines:
        lam, g, m, _ = (float(x) for x in line.split(","))
        diff = g - m
        if prev is not None and prev[1] * diff < 0:
            crossings.append((prev[0], lam))
        prev = (lam, diff)
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo < star < hi
    # gated curve affine, mixed curve convex
    gs = [float(l.split(",")[1]) for l in lines]
    ms = [float(l.split(",")[2]) for l in lines]
    d2g = [gs[i + 1] - 2 * gs[i] + gs[i - 1] for i in range(1, len(gs) - 1)]
    d2m = [ms[i + 1] - 2 * ms[i] + ms[i - 1] for i in range(1, len(ms) - 1)]
    assert max(abs(x) for x in d2g) < 1e-4  # affine up to 8-digit print rounding
    assert min(d2m) > 1e-4


def test_vacation_short_vacations_prefer_gated(capsys):
    # s below 2*rho/(1+rho): no crossover, gated at least as good everywhere
    code, out = _run(["vacation", "--rho", "0.8", "--s", "0.5", "--points", "20"],
                     capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    for line in lines:
        lam, g, m, star = line.split(",")
        assert star == ""
        assert float(g) <= float(m) + 1e-12


@pytest.mark.parametrize("points", ["0", "-3"])
def test_vacation_rejects_empty_grid(points, capsys):
    code = cli.main(["vacation", "--rho", "0.8", "--s", "10", "--points", points])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--points" in captured.err


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_vacation_rejects_nonfinite_length(s, capsys):
    code = cli.main(["vacation", "--rho", "0.8", "--s", s])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "vacation length" in captured.err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "priopoll.cli", "check",
         "--model", str(DATA / "example1.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("pcl_lhs")
