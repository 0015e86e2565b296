"""priopoll benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  A single caller starts the next model
(or ``replicate`` call) only after the previous one finished, and repeats
the workload's pass of items until ``--seconds`` have passed (at least two
passes, so that every output is compared with the same output of an earlier
pass).  The last line of standard output is the result JSON; the line
before it records provenance, sample counts and the metrics that no bound
applies to.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
fixed host speed with the reference kernel of ``speed.py``, timed before
every item; the unscaled figures are on the provenance line.  ``--trace 1`` first times one
untraced pass, then installs the layer wrappers of ``tracing.py`` and prints
the per-layer metrics, normalised per item, with ``trace.overhead_s`` the
traced minus the untraced time of a pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 2
SETUP_PROBES = 5
DEFAULT_SEED = 1

sys.path[:0] = [HERE]
import speed  # noqa: E402
import summary  # noqa: E402


def _load_package():
    """Import priopoll from this checkout's ``src``; exit with an error otherwise."""
    if not os.path.isfile(os.path.join(SRC, "priopoll", "__init__.py")):
        sys.exit(f"no priopoll package under {SRC}: run from a source checkout")
    sys.path.insert(0, SRC)
    import priopoll
    if os.path.dirname(os.path.dirname(os.path.abspath(priopoll.__file__))) != SRC:
        sys.exit(f"priopoll imported from {priopoll.__file__}, not from {SRC}")
    return priopoll


def _setup_seconds(workload, seed):
    """Median over fresh interpreters of import + building the models, each
    scaled by the reference timing the same interpreter made afterwards."""
    scaled, unscaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
        setup_s, ref_s = map(float, out.stdout.split()[-2:])
        unscaled.append(setup_s)
        scaled.append(setup_s * speed.REFERENCE_S / ref_s)
    return summary.median(scaled), summary.median(unscaled), len(scaled)


def _pin_to_one_cpu():
    """Keep this process and the set-up probes it starts on one CPU.

    The vCPUs of a shared host do not run at the same speed at the same
    time; on one CPU the reference timings and the items they scale are
    measured on the same one.  The last CPU is taken because the first one
    usually handles more of the kernel's interrupts.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(allowed)


def _commit():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10, cwd=ROOT)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


class Loop:
    """Closed-loop passes over the items, with failure and output accounting."""

    def __init__(self, pp, workload, items, first_output=None):
        self.pp, self.workload, self.items = pp, workload, items
        self.latencies = []          # seconds per successful item
        self.labels = []             # label of each attempted item
        self.elapsed = []            # seconds per attempted item
        self.succeeded = []          # whether each attempted item passed
        self.ref_s = []              # reference timing before each attempted item
        self.pass_seconds = []
        self.attempted = self.failed = 0
        self.errors = {}             # PriopollError type -> count
        self.problems = []           # failed checks, first few kept
        self.first_output = {} if first_output is None else first_output  # label -> csv
        self.customers = 0
        self.pcl_residual_max = 0.0

    def one_pass(self):
        start = time.perf_counter()
        for item in self.items:
            self.attempted += 1
            self.labels.append(item.label)
            self.ref_s.append(speed.time_reference())
            t0 = time.perf_counter()
            try:
                outcome = self.workload.run(item)
            except self.pp.PriopollError as exc:
                self.elapsed.append(time.perf_counter() - t0)
                self.succeeded.append(False)
                self.failed += 1
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                self.problems.extend(self._compare(item.label, f"error:{name}\n"))
                continue
            elapsed = time.perf_counter() - t0
            problems = outcome.problems + self._compare(item.label, outcome.csv)
            self.elapsed.append(elapsed)
            self.succeeded.append(not problems)
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])
                continue
            self.latencies.append(elapsed)
            self.customers += outcome.customers
            if not math.isnan(outcome.pcl_residual):
                self.pcl_residual_max = max(self.pcl_residual_max, outcome.pcl_residual)
        self.pass_seconds.append(time.perf_counter() - start)

    def _compare(self, label, csv):
        first = self.first_output.setdefault(label, csv)
        return [] if first == csv else [f"{label}: output differs from the first pass"]

    def run(self, seconds, min_passes, min_latencies=0):
        while (len(self.pass_seconds) < min_passes or sum(self.pass_seconds) < seconds
               or len(self.latencies) < min_latencies):
            self.one_pass()
            if not self.latencies:
                break   # nothing succeeds: report instead of looping forever
        return sum(self.pass_seconds)


def _timings(loop, elapsed):
    """Throughputs over the items' time (failed items included, the
    reference timings and output comparisons not); the median over the
    items of each item's median latency; the tail over all latencies."""
    by_item = {}
    for label, e, ok in zip(loop.labels, elapsed, loop.succeeded):
        if ok:
            by_item.setdefault(label, []).append(e)
    lat = [e for item in by_item.values() for e in item]
    busy = sum(elapsed)
    pct, tail = summary.tail(lat)
    return {"models_per_s": len(lat) / busy,
            "latency_p50_s": summary.median([summary.median(v) for v in by_item.values()]),
            "latency_tail_s": tail, "customers_per_s": loop.customers / busy}, pct


def _end_to_end(loop, setup, wall):
    setup_s, setup_unscaled, setup_n = setup
    loop.ref_s.append(speed.time_reference())   # the timing after the last item
    factors = speed.factors(loop.ref_s, len(loop.elapsed))
    scaled, pct = _timings(loop, [e * f for e, f in zip(loop.elapsed, factors)])
    unscaled, _ = _timings(loop, loop.elapsed)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "models_per_s": {"value": scaled["models_per_s"], "unit": "1/s"},
        "latency_p50_s": {"value": scaled["latency_p50_s"], "unit": "s"},
        "latency_tail_s": {"value": scaled["latency_tail_s"], "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    info = {
        "error_rate": {"value": loop.failed / loop.attempted, "unit": "ratio"},
        "customers_per_s": {"value": scaled["customers_per_s"], "unit": "1/s"},
        "latency_tail_percentile": pct,
        "unscaled": {**unscaled, "setup_s": setup_unscaled},
        "reference_s": {"nominal": speed.REFERENCE_S, "median": summary.median(loop.ref_s),
                        "min": min(loop.ref_s), "max": max(loop.ref_s)},
        "samples": {"latency": len(loop.latencies), "items": len(set(loop.labels)),
                    "setup_s": setup_n,
                    "reference": len(loop.ref_s), "passes": len(loop.pass_seconds)},
        "wall_s": wall,
        "pass_seconds": loop.pass_seconds,
    }
    return metrics, info


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pp = _load_package()
    cpu, nproc = _pin_to_one_cpu()
    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "pinned_cpu": cpu,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit()}
    if args.trace == 0:
        setup = _setup_seconds(args.workload, args.seed)
        loop = Loop(pp, workload, workload.build(args.seed))
        wall = loop.run(args.seconds, MIN_PASSES, summary.TAIL_BEYOND + 1)
        metrics, extra = _end_to_end(loop, setup, wall)
        info.update(extra)
    else:
        import tracing
        untraced = Loop(pp, workload, workload.build(args.seed))
        untraced.one_pass()
        tracer = tracing.install(pp, tracing.Tracer())
        items = workload.build(args.seed)
        validate_s = tracer.self_s["validate"]   # validation during set-up
        # traced outputs are compared with the untraced pass's
        loop = Loop(pp, workload, items, untraced.first_output)
        loop.run(args.seconds - untraced.pass_seconds[0], 1)
        overhead = summary.median(loop.pass_seconds) - untraced.pass_seconds[0]
        metrics = tracing.layer_metrics(tracer, loop.attempted, validate_s, overhead,
                                        loop.pcl_residual_max)
        info["samples"] = {"items": loop.attempted, "passes": len(loop.pass_seconds)}
        info["spans"] = tracer.span_summary()
        wall = sum(loop.pass_seconds)
        info["traced_wall_s"] = wall
        info["self_share_by_layer"] = {layer: tracer.layer_self_s(layer) / wall
                                       for layer in sorted(set(tracer.layer.values()))}
    info["errors"] = loop.errors
    problems = loop.problems if args.trace == 0 else untraced.problems + loop.problems
    info["problems"] = problems
    correct = not problems and loop.latencies != []
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
