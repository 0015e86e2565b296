"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import speed  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


class FakeClock:
    now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_hand_built_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def advance(_obj, seconds):
        clock.now += seconds

    leaf = tracer.wrap_leaf("leafy", "leaf", advance)

    def hot_body():
        clock.now = 8.0

    hot = tracer.wrap("hotty", "hot", hot_body)

    def inner_body():
        clock.now = 2.0
        leaf(None, 1.0)          # 2 .. 3
        clock.now = 5.0

    inner = tracer.wrap("inner_layer", "inner", inner_body, span=True)

    def outer_body():
        clock.now = 1.0
        inner()                  # 1 .. 5, covers the leaf's 1 s
        clock.now = 6.0
        hot()                    # 6 .. 8
        clock.now = 8.5
        leaf(None, 0.5)          # 8.5 .. 9
        clock.now = 10.0

    tracer.wrap("outer_layer", "outer", outer_body, span=True)()
    tracer.fold_leaves()

    assert tracer.self_s["outer"] == pytest.approx(10.0 - 4.0 - 2.0 - 0.5)
    assert tracer.self_s["inner"] == pytest.approx(4.0 - 1.0)
    assert tracer.self_s["hot"] == pytest.approx(2.0)
    assert tracer.self_s["leaf"] == pytest.approx(1.5)
    assert tracer.calls["leaf"] == 2
    assert tracer.layer_self_s("outer_layer") + tracer.layer_self_s("inner_layer") \
        + tracer.layer_self_s("hotty") + tracer.layer_self_s("leafy") == pytest.approx(10.0)
    # spans only for the coarse boundaries, children pointing at their parent
    assert tracer.spans == [["outer", -1, 0.0, 10.0], ["inner", 0, 1.0, 5.0]]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert summary.tail(values) == (90.0, 90)
    pct, value = summary.tail([0.5] * 5 + list(range(100, 106)) + list(range(200, 210)))
    assert value == 105 and pct == pytest.approx(100.0 * 11 / 21)
    assert summary.tail(list(range(11))) == (pytest.approx(100.0 / 11), 0)
    with pytest.raises(ValueError):
        summary.tail(list(range(10)))


def test_speed_factor_uses_two_reference_timings_on_each_side():
    r = speed.REFERENCE_S
    refs = [r, 2 * r, 2 * r, 4 * r, 4 * r, 4 * r]
    # item i sees refs[i - 1 : i + 3]: before it, and after it
    assert speed.factors(refs, 5) == pytest.approx([0.5, 0.5, 1 / 3, 0.25, 0.25])
    with pytest.raises(ValueError):
        speed.factors(refs, 6)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, kind):
    out = _run(["--workload", "sim_priority", "--seed", "2", "--seconds", "0",
                "--trace", trace])
    assert out.returncode == 0, out.stderr
    info_line, result_line = out.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    info = json.loads(info_line)
    assert info["nproc"] >= 1 and info["seed"] == 2
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert info["error_rate"]["unit"] == "ratio"
        assert info["customers_per_s"]["unit"] == "1/s"


def test_every_per_layer_metric_has_a_prediction():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)["predictions"]
    assert set(predictions) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    for entry in predictions.values():
        assert set(entry["moves"]) | set(entry["still"]) == set(workloads.WORKLOADS)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(["--workload", "paper_tables", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
