"""Every committed BENCH_<n>.json keeps the layout of the one before it.

A change that claims a speed-up commits BENCH_<n>.json, named after its
number, with the same top-level keys as the previous BENCH file and the
machine's core count.  Each workload holds the parent's and the change's
runs, and each run reports exactly the end-to-end metrics that
BENCHMARK.json declares.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
METRICS = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
BENCH = sorted((int(p.stem[len("BENCH_"):]), p) for p in ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("i", range(len(BENCH)), ids=[p.name for _, p in BENCH])
def test_bench_file_layout(i):
    n, path = BENCH[i]
    bench = json.loads(path.read_text())
    assert bench["pr"] == n
    assert isinstance(bench["cores"], int) and bench["cores"] >= 1
    if i:
        assert set(bench) == set(json.loads(BENCH[i - 1][1].read_text()))
    assert bench["workloads"]
    for name, sides in bench["workloads"].items():
        assert set(sides) == {"parent", "change"}, name
        for side, runs in sides.items():
            assert runs, (name, side)
            for run in runs:
                assert set(run["metrics"]) == METRICS, (name, side)
