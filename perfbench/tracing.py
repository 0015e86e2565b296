"""Tracing from outside the program: wrappers at the package's layer boundaries.

``install`` replaces functions and methods of the imported package with
wrappers that feed one ``Tracer``.  It must run before any ``Analyzer``,
``GfEvaluator`` or busy period is built, because their constructors keep
bound ``lst_complement`` methods (``MixtureBusyPeriod`` in a closure), and it
patches every module that bound a function by name at import
(``_solve_complement`` in both ``gf`` and ``busyperiod``; ``validate``,
``lst_moment`` and ``pcl_check`` where they are imported).

Coarse boundaries (report, mean_wait, var_wait, cross_moment, pcl_check,
lst_moment, log_value, _simulate, _aggregate) keep a span record.  Hot
boundaries (lst_complement, _solve_complement, sample_block, the transform
complements, validate) keep only counters and accumulated time: one example2
report makes about 1.6M LST calls.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict


class Tracer:
    """Per-boundary call counts and self time, plus coarse spans.

    Every boundary pushes a frame.  On exit its duration is added to the
    enclosing frame's covered time, and its duration minus the time its own
    children covered is its self time.  Wrapper bookkeeping runs outside the
    child's clock readings, so it lands in the parent's self time;
    ``trace.overhead_s`` reports its total.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layer = {}                    # boundary name -> layer
        self.calls = defaultdict(int)      # boundary name -> calls
        self.self_s = defaultdict(float)   # boundary name -> self time
        self.counts = defaultdict(int)     # derived counters (iterations, ...)
        self.spans = []                    # [name, parent span or -1, start, end]
        self._frames = []                  # open frames: [covered time]
        self._open_spans = []
        self._leaf = {}                    # leaf boundary name -> [calls, seconds]

    def wrap(self, layer, name, fn, span=False):
        """``fn`` with its calls timed as boundary ``name`` of ``layer``."""
        self.layer[name] = layer
        clock, frames, spans, open_spans = (self.clock, self._frames, self.spans,
                                            self._open_spans)
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if span:
                spans.append([name, open_spans[-1] if open_spans else -1, 0.0, 0.0])
                open_spans.append(len(spans) - 1)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if span:
                    record = spans[open_spans.pop()]
                    record[2], record[3] = start, end

        return wrapper

    def wrap_leaf(self, layer, name, method):
        """Cheaper ``wrap`` for a two-argument method that calls no boundary."""
        self.layer[name] = layer
        clock, frames = self.clock, self._frames
        acc = self._leaf.setdefault(name, [0, 0.0])

        @functools.wraps(method)
        def wrapper(obj, arg):
            start = clock()
            try:
                return method(obj, arg)
            finally:
                duration = clock() - start
                acc[0] += 1
                acc[1] += duration
                if frames:
                    frames[-1][0] += duration

        return wrapper

    def fold_leaves(self):
        """Move the leaf accumulators into ``calls`` and ``self_s``."""
        for name, (calls, seconds) in self._leaf.items():
            self.calls[name] += calls
            self.self_s[name] += seconds
        self._leaf.clear()

    def layer_self_s(self, layer):
        return sum(t for name, t in self.self_s.items() if self.layer[name] == layer)

    def span_summary(self):
        """{span name: [count, total seconds]} over the recorded spans."""
        out = {}
        for name, _, start, end in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return out


DISTRIBUTION_CLASSES = ("Deterministic", "Exponential", "Erlang",
                        "Hyperexponential", "Uniform")
TRANSFORM_METHODS = ("cycle_complement", "intervisit_complement",
                     "visit_complement", "wait_high_complement",
                     "wait_low_complement", "completion_complement")


def install(pp, tracer):
    """Wrap the boundaries of the imported package ``pp``; returns ``tracer``."""
    import priopoll.analytic as analytic
    import priopoll.busyperiod as busyperiod
    import priopoll.gf as gf
    import priopoll.model as model
    import priopoll.moments as moments
    import priopoll.sim as sim
    import priopoll.transforms as transforms
    counts = tracer.counts

    # distributions: hot
    for cls_name in DISTRIBUTION_CLASSES:
        cls = getattr(pp, cls_name)
        cls.lst_complement = tracer.wrap_leaf("distributions", "lst_complement",
                                              cls.lst_complement)
        cls.sample_block = tracer.wrap("distributions", "sample_block",
                                       cls.sample_block)

    # model: validate, bound by name in several modules
    validate = tracer.wrap("model", "validate", model.validate)
    for module in (pp, model, analytic, gf, sim):
        module.validate = validate

    # busyperiod: the fixed point, with its iterations counted through lstc
    solve_original = busyperiod._solve_complement

    def solve(lstc, lam, omega, warm):
        def counted(s):
            counts["busyperiod.iterations"] += 1
            return lstc(s)
        try:
            return solve_original(counted, lam, omega, warm)
        except pp.NoConvergence:
            counts["busyperiod.no_convergence"] += 1
            raise

    solve = tracer.wrap("busyperiod", "_solve_complement", solve)
    busyperiod._solve_complement = solve
    gf._solve_complement = solve

    # gf: switch-over LST calls give the cycles of each log_value call
    init_original = gf.GfEvaluator.__init__

    def init(self, *args, **kwargs):
        init_original(self, *args, **kwargs)

        def switchover(lstc):
            def counted(s):
                counts["gf.switchover_lst"] += 1
                return lstc(s)
            return counted
        self._sigma_c = [switchover(c) for c in self._sigma_c]

    gf.GfEvaluator.__init__ = init
    log_value_original = gf.GfEvaluator.log_value

    def log_value(self, i, zeta):
        before = counts["gf.switchover_lst"]
        try:
            return log_value_original(self, i, zeta)
        finally:
            counts["gf.cycles"] += (counts["gf.switchover_lst"] - before) // self.n

    gf.GfEvaluator.log_value = tracer.wrap("gf", "log_value", log_value, span=True)

    # transforms: complement evaluations, nested calls included
    for method in TRANSFORM_METHODS:
        setattr(transforms.QueueTransforms, method,
                tracer.wrap("transforms", "complement",
                            getattr(transforms.QueueTransforms, method)))

    # moments: lst_moment, with the complement evaluations it makes counted
    lst_moment_original = moments.lst_moment

    def lst_moment(handle, k, *args, **kwargs):
        complement = handle.complement

        def counted(w):
            counts["moments.evals"] += 1
            return complement(w)
        return lst_moment_original(dataclasses.replace(handle, complement=counted),
                                   k, *args, **kwargs)

    lst_moment = tracer.wrap("moments", "lst_moment", lst_moment, span=True)
    for module in (pp, moments, analytic):
        module.lst_moment = lst_moment
    analytic._neville_to_zero = tracer.wrap("moments", "neville",
                                            analytic._neville_to_zero)

    # analytic: spans
    for method in ("report", "mean_wait", "var_wait", "cross_moment"):
        setattr(analytic.Analyzer, method,
                tracer.wrap("analytic", method, getattr(analytic.Analyzer, method),
                            span=True))
    pcl_check = tracer.wrap("analytic", "pcl_check", analytic.pcl_check, span=True)
    pp.pcl_check = analytic.pcl_check = pcl_check

    # sim: one replication, and the aggregation over replications
    simulate_original = sim._simulate

    def simulate(*args, **kwargs):
        rep = simulate_original(*args, **kwargs)
        counts["sim.customers"] += sum(rep.wait_n)
        counts["sim.visits"] += sum(rep.visit_n)
        return rep

    sim._simulate = tracer.wrap("sim", "_simulate", simulate, span=True)
    sim._aggregate = tracer.wrap("sim", "_aggregate", sim._aggregate, span=True)
    return tracer


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, items, validate_s, overhead_s, pcl_residual_max):
    """Per-layer metrics, per item (one model or one replicate call) traced."""
    tracer.fold_leaves()
    t, c, n = tracer, tracer.counts, items
    solves = t.calls["_solve_complement"]
    lst_in_solves = c["busyperiod.iterations"]  # one lstc call per iteration
    values = {
        "busyperiod.solves": (solves / n, "count/item"),
        "busyperiod.iters_per_solve": (_ratio(lst_in_solves, solves), "iter/solve"),
        "busyperiod.self_s": (t.layer_self_s("busyperiod") / n, "s/item"),
        "busyperiod.no_convergence": (c["busyperiod.no_convergence"] / n, "count/item"),
        "distributions.lst_calls": (t.calls["lst_complement"] / n, "count/item"),
        "distributions.lst_self_s": (t.self_s["lst_complement"] / n, "s/item"),
        "distributions.sample_block_calls": (t.calls["sample_block"] / n, "count/item"),
        "distributions.sample_s": (t.self_s["sample_block"] / n, "s/item"),
        "gf.log_value_calls": (t.calls["log_value"] / n, "count/item"),
        "gf.cycles_per_call": (_ratio(c["gf.cycles"], t.calls["log_value"]), "cycle/call"),
        "gf.self_s": (t.layer_self_s("gf") / n, "s/item"),
        "moments.lst_moment_calls": (t.calls["lst_moment"] / n, "count/item"),
        "moments.evals_per_moment": (_ratio(c["moments.evals"], t.calls["lst_moment"]),
                                     "eval/moment"),
        "moments.self_s": (t.layer_self_s("moments") / n, "s/item"),
        "transforms.complement_calls": (t.calls["complement"] / n, "count/item"),
        "transforms.self_s": (t.layer_self_s("transforms") / n, "s/item"),
        "analytic.self_s": (t.layer_self_s("analytic") / n, "s/item"),
        "analytic.mean_wait_calls": (t.calls["mean_wait"] / n, "count/item"),
        "analytic.var_wait_calls": (t.calls["var_wait"] / n, "count/item"),
        "analytic.cross_moment_calls": (t.calls["cross_moment"] / n, "count/item"),
        "analytic.pcl_residual_max": (pcl_residual_max, "ratio"),
        "model.validate_s": (validate_s, "s"),
        "sim.simulate_self_s": (t.self_s["_simulate"] / n, "s/item"),
        "sim.customers": (c["sim.customers"] / n, "count/item"),
        "sim.visits": (c["sim.visits"] / n, "count/item"),
        "sim.customers_per_visit": (_ratio(c["sim.customers"], c["sim.visits"]),
                                    "cust/visit"),
        "sim.aggregate_s": (t.self_s["_aggregate"] / n, "s/item"),
        "trace.overhead_s": (overhead_s, "s/pass"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
