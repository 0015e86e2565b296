"""Run the benchmark on several seeds and print each end-to-end metric's
median and spread (quartile distance over median).

    python3 perfbench/spread.py WORKLOAD SEED [SEED ...]

Runs one seed at a time from the checkout root, with the ``run_seconds`` of
``BENCHMARK.json``, and prints one JSON line per run (its result, with the
provenance line under ``info``) followed by a summary line that compares
each spread with a third of the metric's bound.
"""

import json
import os
import subprocess
import sys

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(workload, seeds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [*bench["command"], "--workload", workload, "--seed", seed,
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(json.dumps({"seed": seed, **result, "info": json.loads(lines[-2])}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    report = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        report[metric["name"]] = {"median": summary.median(vals),
                                  "spread": summary.spread(vals),
                                  "third_of_bound": metric["bound"] / 3}
    print(json.dumps({"workload": workload, "runs": len(seeds), "metrics": report}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
