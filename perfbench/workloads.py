"""The four workloads: the models each one runs and the checks on its outputs.

A workload is built once (``Workload.build``) into a list of items, each a
validated ``PollingModel`` plus what the check needs.  ``Workload.run``
drives the public API on one item and checks the outputs.  The program only ever receives the
built models; seeds stay on this side.

Functions of the package are looked up through the module at call time
(``pp.replicate``, ``pp.pcl_check``, ``pp.validate``) so that wrappers the
traced run installs after import are the ones called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import priopoll as pp
import tables

# --------------------------------------------------------------------- items


@dataclass
class Item:
    label: str
    model: pp.PollingModel
    reference: dict = field(default_factory=dict)   # {(queue, class): (mean, var)}
    base_seed: int | None = None
    n_cycles: int = 0


@dataclass
class Outcome:
    csv: str
    problems: list
    customers: int = 0            # post-warmup customers served (sim items)
    pcl_residual: float = math.nan


def _validated(model):
    pp.validate(model)
    return model


def _classes(model):
    for i, q in enumerate(model.queues):
        for cls, lam in (("H", q.lambda_high), ("L", q.lambda_low)):
            if lam > 0.0:
                yield i, cls


# ------------------------------------------------------------ paper_tables


def example1(disc1, det_switchover=None):
    """Q1 two-priority (0.2/0.4) under ``disc1``, Q2 single-class gated (0.2)."""
    swo = ((pp.Deterministic(det_switchover),) * 2 if det_switchover
           else (pp.Exponential(1.0), pp.Exponential(1.0)))
    return pp.PollingModel(
        queues=(pp.QueueSpec(0.2, 0.4, pp.Exponential(1.0), pp.Exponential(1.0), disc1),
                pp.QueueSpec(0.0, 0.2, None, pp.Exponential(1.0), pp.GATED)),
        switchovers=swo)


def example2(d1, d2):
    """Two two-priority queues at rho = 0.9, mean-10 exponential switch-overs."""
    return pp.PollingModel(
        queues=(pp.QueueSpec(0.1, 0.1, pp.Exponential(1.0), pp.Exponential(1.0), d1),
                pp.QueueSpec(0.35, 0.35, pp.Exponential(1.0), pp.Exponential(1.0), d2)),
        switchovers=(pp.Exponential(10.0), pp.Exponential(10.0)))


def build_paper_tables(seed):
    del seed  # the published models are fixed
    items = []
    for det, ref in ((None, tables.EXP_SWITCHOVER), (10.0, tables.DET_SWITCHOVER)):
        for disc in pp.DISCIPLINES:
            items.append(Item(f"example1/{disc}/{'det' if det else 'exp'}",
                              _validated(example1(disc, det)), ref[disc]))
    for d1 in pp.DISCIPLINES:
        for d2 in pp.DISCIPLINES:
            items.append(Item(f"example2/{d1}/{d2}", _validated(example2(d1, d2)),
                              tables.high_load_reference(d1, d2)))
    return items


def run_report(item):
    report = pp.Analyzer(item.model).report()
    problems = []
    for (i, cls), (mean_ref, var_ref) in item.reference.items():
        mean, var = report.wait(i, cls), report.var(i, cls)
        if not abs(mean - mean_ref) <= tables.MEAN_TOL:
            problems.append(f"{item.label} W[{i + 1}{cls}] mean {mean!r} vs {mean_ref}")
        if not abs(var - var_ref) <= tables.VAR_TOL * var_ref:
            problems.append(f"{item.label} W[{i + 1}{cls}] var {var!r} vs {var_ref}")
    return Outcome(report.to_csv(), problems, pcl_residual=report.pcl_residual)


# ------------------------------------------------------------ random_means

FAMILY_CODES = {"exp": "exponential", "det": "deterministic", "erl": "erlang",
                "hyp": "hyperexponential", "uni": "uniform"}

# One pass: (total load, queues as "discipline:high/low" with "-" for an
# absent class, switch-over families).  The design covers N from 1 to 5, every
# discipline, all five families as service and as switch-over, and loads up
# to 0.99; high load goes to the small systems because GF cost grows like
# N^2 / (1 - rho).  Three models put a Uniform service inside a busy period
# (the high class of a mixed queue, or an exhaustive queue), where the
# busy-period fixed point does not converge today; they count as failures.
# Uniform elsewhere (gated queues, mixed low class, switch-overs) converges.
RANDOM_DESIGN = (
    (0.99, ("mixed_ge:exp/erl",), ("det",)),
    (0.95, ("exhaustive:hyp/-",), ("uni",)),
    (0.80, ("gated:uni/det",), ("exp",)),
    (0.90, ("exhaustive:det/exp", "mixed_ge:uni/hyp"), ("erl", "exp")),
    (0.95, ("gated:erl/uni", "exhaustive:exp/det"), ("hyp", "det")),
    (0.60, ("mixed_ge:hyp/uni", "gated:-/erl"), ("uni", "hyp")),
    (0.85, ("gated:exp/det", "mixed_ge:erl/hyp", "exhaustive:det/exp"),
     ("uni", "det", "erl")),
    (0.75, ("exhaustive:uni/uni", "exhaustive:exp/-", "gated:hyp/erl"),
     ("exp", "hyp", "det")),
    (0.70, ("mixed_ge:det/uni", "gated:hyp/exp", "exhaustive:erl/hyp",
            "mixed_ge:exp/-"), ("erl", "uni", "exp", "hyp")),
    (0.50, ("exhaustive:exp/hyp", "mixed_ge:-/det", "gated:uni/erl",
            "gated:det/exp"), ("det", "exp", "uni", "erl")),
    (0.80, ("mixed_ge:uni/exp", "gated:erl/det", "exhaustive:hyp/erl",
            "mixed_ge:det/uni", "gated:exp/hyp"), ("hyp", "erl", "det", "uni", "exp")),
    (0.40, ("gated:hyp/exp", "exhaustive:erl/det", "mixed_ge:exp/uni",
            "exhaustive:det/-", "gated:uni/hyp"), ("exp", "det", "hyp", "erl", "uni")),
)

# Each design row is drawn this many times per pass; more draws average out
# the seed-to-seed differences in cost.
RANDOM_DRAWS = 2

PCL_TOL = 1e-6


def _distribution(code, mean):
    family = FAMILY_CODES[code]
    if family == "exponential":
        return pp.Exponential(mean)
    if family == "deterministic":
        return pp.Deterministic(mean)
    if family == "erlang":
        return pp.Erlang(2, mean)
    if family == "hyperexponential":
        return pp.Hyperexponential((0.4, 0.6), (0.5 * mean, 1.5 * mean))
    return pp.Uniform(0.0, 2.0 * mean)


def random_model(design, rng):
    """One model of ``RANDOM_DESIGN``; the seed draws rates and means.

    Each class rate weight and each mean is drawn within 20% of 1; rates are
    then scaled so that the total load is the design's exactly.
    """
    rho, queue_specs, switchover_codes = design
    specs = []
    for spec in queue_specs:
        disc, families = spec.split(":")
        classes = []
        for code in families.split("/"):
            w, mean = rng.uniform(0.8, 1.2, 2)
            classes.append((0.0, None) if code == "-" else
                           (float(w), _distribution(code, float(mean))))
        specs.append((disc, classes))
    raw = sum(w * d.mean for _, classes in specs for w, d in classes if d)
    queues = tuple(pp.QueueSpec(w_h * rho / raw, w_l * rho / raw, s_h, s_l, disc)
                   for disc, ((w_h, s_h), (w_l, s_l)) in specs)
    switchovers = tuple(_distribution(code, float(rng.uniform(0.8, 1.2)))
                        for code in switchover_codes)
    return pp.PollingModel(queues, switchovers)


def build_random_means(seed):
    rng = np.random.default_rng(seed)
    return [Item(f"random/{k}.{draw}", _validated(random_model(design, rng)))
            for draw in range(RANDOM_DRAWS)
            for k, design in enumerate(RANDOM_DESIGN)]


def run_means(item):
    analyzer = pp.Analyzer(item.model)
    waits = {key: analyzer.mean_wait(*key) for key in _classes(item.model)}
    lhs, rhs, residual = pp.pcl_check(item.model, waits=waits)
    rows = [f"{i + 1},{cls},{w!r}" for (i, cls), w in waits.items()]
    rows.append(f"pcl,{lhs!r},{rhs!r},{residual!r}")
    problems = []
    if not all(map(math.isfinite, [*waits.values(), lhs, rhs, residual])):
        problems.append(f"{item.label} output not finite: {rows}")
    elif not residual < PCL_TOL:
        problems.append(f"{item.label} pcl residual {residual!r} >= {PCL_TOL}")
    return Outcome("\n".join(rows) + "\n", problems, pcl_residual=residual)


# --------------------------------------------------------------- simulation

SIM_REPS = 8
SIM_CALLS = 10        # replicate() calls per pass, each with its own base seed
CI_MULTIPLE = 6.0     # analytic mean within this many CI half-widths


def _build_sim(model, reference, n_cycles, seed):
    _validated(model)
    return [Item(f"replicate/{c}", model, reference,
                 base_seed=seed * SIM_CALLS + c, n_cycles=n_cycles)
            for c in range(SIM_CALLS)]


def build_sim_gated(seed):
    # about 90 customers per visit: the per-customer cost dominates
    return _build_sim(example2(pp.GATED, pp.GATED),
                      tables.high_load_reference(pp.GATED, pp.GATED), 120, seed)


def build_sim_priority(seed):
    # about 4 customers per visit, high-priority customers overtake gated lows
    return _build_sim(example1(pp.MIXED), tables.EXP_SWITCHOVER[pp.MIXED], 2500, seed)


def run_replicate(item):
    stats = pp.replicate(item.model, base_seed=item.base_seed, n_reps=SIM_REPS,
                         n_cycles=item.n_cycles, warmup_cycles=item.n_cycles // 10,
                         parallel=False)
    problems = []
    for (i, cls), (mean_ref, _) in item.reference.items():
        mean, half = stats.wait_mean[(i, cls)], stats.wait_ci[(i, cls)]
        if not abs(mean - mean_ref) <= CI_MULTIPLE * half:
            problems.append(f"{item.label} W[{i + 1}{cls}] {mean!r} +- {half!r} "
                            f"misses {mean_ref}")
    rho = sum(q.rho for q in item.model.queues)
    if not abs(stats.busy_fraction - rho) <= CI_MULTIPLE * stats.busy_ci:
        problems.append(f"{item.label} busy {stats.busy_fraction!r} +- "
                        f"{stats.busy_ci!r} misses rho {rho}")
    return Outcome(stats.to_csv(item.model), problems,
                   customers=sum(stats.wait_count.values()))


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    name: str
    build: object      # seed -> list[Item]
    run: object        # Item -> Outcome


WORKLOADS = {w.name: w for w in (
    Workload("paper_tables", build_paper_tables, run_report),
    Workload("random_means", build_random_means, run_means),
    Workload("sim_gated", build_sim_gated, run_replicate),
    Workload("sim_priority", build_sim_priority, run_replicate),
)}
