"""Discrete-event simulation of the polling system, used as an oracle.

The simulator realizes the service semantics exactly: a gate closes behind
the relevant classes at each visit beginning, high-priority customers are
served before low-priority ones (overtaking gated customers under mixed
service), services are never preempted, and a visit ends when the discipline
says so (gated lines empty / queue empty / gated lows served and no
high present).

Rather than a binary-heap calendar, the event set is kept as one iterator of
arrival times per Poisson stream plus the server's own clock, under one rule:
a queue's two arrival streams are read only while the server is at that
queue.  The gate is the visit beginning ``t_vb``: the customers it lets in
are exactly the prefix of each stream that arrived before it.  So one loop
serves every visit, whatever its discipline, in one pass and without a
queue: a class is served straight from its stream while the stream's next
arrival is before the gate or, if the visit clears the class (``CLEARED``:
none under gated, the high class under mixed, both under exhaustive), before
the current instant.  Whatever stays in a stream arrived behind the gate,
and nothing serves it before the queue's next visit, in arrival order.  A
stream yields arrivals in increasing time, so the next high customer served
is always the earliest unserved arrival before the current instant, as a
FIFO queue fed before each service would give it.  The visit-beginning state
(X_H, X_L) counts the served customers that arrived before the gate.
Dequeue order is identical to a (timestamp, completion-before-arrival,
sequence) calendar and fully deterministic given the seed.  Simultaneous
completion/arrival ties resolve in favour of the completion, so an arrival
exactly at a visit-ending instant is not caught by the ending visit.

Each random stream (a class's arrival gaps and service times, a queue's
switch-overs) is one iterator over blocks of ``_BLOCK`` values from its own
generator (``_stream``), read one value at a time.  A block is drawn whole,
but becomes Python floats ``_PIECE`` values at a time, only as far as the
run reads it: a switch-over stream reads one value a cycle, so a run of a
few thousand cycles uses a small part of its one block.  The block size is
part of the output (Hyperexponential draws a block's uniforms before its
exponentials); the piece size is not.  Since no two streams share a
generator and each is read in the same order, when a value is drawn
relative to the other streams changes no number, bit for bit.

Waiting time is measured from arrival to service start.  Queue-length
time-averages count a low-priority customer as "in system" until the server
finishes clearing the high-priority work that arrived during that customer's
service (its completion time) under mixed/exhaustive service, matching the
sojourn convention of the analytic queue-length results.

Everything a visit reads and writes about its queue is one of the queue's
``_FIELDS``: each class's next arrival, wait tally and queue-length area,
the previous visit's beginning and end, the cycle, intervisit and visit
tallies and the visit-beginning state sums.  A whole replication runs in one
function, rendered (``_render``) per model structure, keyed on what the
loop branches on: each class of each queue, absent, kept or cleared by its
visits, and whether the run is traced.  The rendered kernel keeps every
field in a local variable (``nh_0``, ``hs_0``, ...) that its prologue sets
to the field's start value and unrolls the queues inside the cycle loop.
Each rule is written once: a visit runs the period block for the cycle and
intervisit period that end at its beginning, then the serve block for the
highs and the lows, each with its bound written out as the gate ``t_vb`` or
the current instant ``t``.  A low's block holds the high block only where
the visit clears the high class, since under gated service no high can
overtake a low, and that inner block tests no gate: every high that arrived
before the gate is served before the first low.  An absent class renders
nothing (no serve block, state tally or close block), and its fields keep
their start values.  The trace events are rendered only into a traced
kernel.  Its epilogue closes queue 0's last cycle with the period block,
adds the area of the customers still in system with a close block per
present class, and returns each queue's fields as a dict keyed by name:
``_RepResult`` holds them, and ``_aggregate`` reads them by name to merge
runs.  The source holds identifiers and queue indices, never a model value
(even its float constants come in as names), so ``_kernel`` compiles it once
per key and caches the compiled code, never a result.  Rendering and
compiling take about 2.5 ms at N = 2, 17 ms at N = 12, 30 ms at N = 32 and
100 ms at N = 100 with both classes at every queue, up to a half more when
traced (medians of seven, Python 3.11 on a shared 2-core x86 host with a
benchmark running on the other core).

The measurement window [t_warm, inf) opens at the clock of cycle
``warmup_cycles``, and the kernel renders one cycle three times, once per
run phase (``_phase``).  The warm-up cycles only read streams, advance the
clock and set each queue's last visit beginning and end: every tally keeps
its start value until the window opens.  The cycle that opens it tests the
window as written: a wait is tallied if the customer arrived inside it, a
cycle or intervisit period if it began inside it, and an area adds ``t -
max(arrival, t_warm)``.  The later cycles need no test: each queue's visit
in the opening cycle begins at or after t_warm and serves every customer
that arrived before its gate, so every customer served after it arrived
inside the window, and every previous visit beginning and end is inside it.
Nor do they count what their number gives: each adds one to every queue's
cycle, intervisit and visit count, and a kept class's wait count grows as
its state sum, since each customer they serve there arrived before the
gate.  The kernel adds these counts once, after the loop, as ints.

``run`` and ``replicate`` check a call's expected work, E(C) sum(lambda)
customers per cycle, before any stream is built (``_customers``), and raise
``NoConvergence`` past ``_MAX_CUSTOMERS``, about an hour of one core.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, chain, repeat, starmap
from numbers import Integral
from operator import itemgetter
from textwrap import indent

import numpy as np

from .errors import NoConvergence, OutOfRange
from .model import CLEARED, PollingModel, validate

__all__ = ["Event", "SimStats", "run", "replicate"]

_BLOCK = 8192
_PIECE = 256  # a drawn block becomes Python floats this many values at a time

# two-sided 97.5% Student-t quantiles for df 1..30, then the rows at df 40/60/120
_T975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
         2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
         2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042)
_T975_ROWS = ((120, 1.980), (60, 2.000), (40, 2.021))


def _t975(df: int) -> float:
    """97.5% Student-t quantile, df >= 1; off-table df round down, so intervals err wide."""
    if df <= 30:
        return _T975[df - 1]
    return next((t for d, t in _T975_ROWS if df >= d), _T975[-1])


@dataclass(frozen=True)
class Event:
    """One entry of the serve-order trace (test/diagnostic mode only)."""

    timestamp: float
    kind: str          # visit_begin | service_start | service_end | switch_end
    sequence: int      # the entry's position in the trace list
    queue: int
    cls: str = ""
    arrival: float = math.nan


@dataclass
class _RepResult:
    """One run's post-warm-up state: per queue, the kernel's ``_FIELDS`` by
    name; the busy time; the measurement window [t_warm, t_end); the trace."""

    queues: list  # per queue: {field: value}
    busy: float
    t_warm: float
    t_end: float
    events: list

    # the measured waits and visits, per class and per queue
    @property
    def wait_n(self) -> list:
        return [f[n] for f in self.queues for n in ("hn", "ln")]

    @property
    def visit_n(self) -> list:
        return [f["vn"] for f in self.queues]


def _simulate(model: PollingModel, seed, n_cycles: int, warmup_cycles: int,
              trace: bool = False) -> _RepResult:
    """One replication of a model that ``_customers`` has checked."""
    n = model.n
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # per queue: arr_h, arr_l, svc_h, svc_l, swo
    rngs = [np.random.default_rng(c) for c in ss.spawn(5 * n)]

    # per queue: its classes' arrival and service streams and its switch-over
    # stream, and the kernel key: each class absent, kept or cleared.  An
    # absent class arrives at inf, and no cycle reads its streams
    queues, rules = [], []
    for j, q in enumerate(model.queues):
        streams, rule = [repeat(math.inf)] * 4, ["absent", "absent"]
        for c, _, rate, dist in q.classes:
            streams[c] = _arrivals(rngs[5 * j + c], 1.0 / rate)
            streams[2 + c] = _stream(dist.sample_block, rngs[5 * j + 2 + c])
            rule[c] = "cleared" if c in CLEARED[q.discipline] else "kept"
        queues.append((*streams, _stream(model.switchovers[j].sample_block, rngs[5 * j + 4])))
        rules.append(tuple(rule))
    events = []
    return _RepResult(*_kernel(tuple(rules), trace)(queues, n_cycles, warmup_cycles, events),
                      events)


# --------------------------------------------------------------- kernel

# A queue's state, which the kernel keeps in the local f_j for field f of
# queue j and returns by name: per class (h high, l low) the next arrival
# (nh, nl), the wait tally (count n, sum s, sum of squares s2) and the
# queue-length area (a); the last visit's beginning pb and end pe; the cycle
# (c), intervisit (g) and visit (v) tallies; the visit-beginning state sums
# (sh, sl, shl).  Each field maps to its value before the first cycle, which
# an absent class's fields keep.
_FIELDS = {"nh": "next(arr_h_{j})", "hn": "0", "hs": "zero", "hs2": "zero", "ha": "zero",
           "nl": "next(arr_l_{j})", "ln": "0", "ls": "zero", "ls2": "zero", "la": "zero",
           "pb": "-inf", "pe": "-inf",
           "cn": "0", "cs": "zero", "cs2": "zero", "gn": "0", "gs": "zero", "gs2": "zero",
           "vn": "0", "vs": "zero", "vs2": "zero", "sh": "zero", "sl": "zero", "shl": "zero"}

# ``_render`` fills {load} and {fields} with one copy per queue of the
# templates below, {close} with queue 0's cycle ``_PERIOD`` and a ``_CLOSE``
# per present class, {uncount} and {count} with the counts that the steady
# loop derives (``_COUNT``), and {warmup}, {boundary} and {steady} with one
# cycle: a ``_VISIT`` per queue, rendered for its phase by ``_phase``, which
# reads the lines marked "# window" (a test of the measurement window),
# "# tally" (a line that only keeps a tally) and "# count" (a count that the
# steady loop derives).  Lines marked "# trace" are kept only in a traced
# kernel.  Float constants come in as names (inf, zero), never as literals,
# so the source depends on nothing but the key.
_LOOP = """\
def kernel(queues, n_cycles, warmup_cycles, events):
    append = events.append  # trace
{load}\
    t = busy = zero
    for _ in range(warmup_cycles):
{warmup}\
    t_warm = t  # cycle warmup_cycles opens the measurement window [t_warm, inf)
{boundary}\
{uncount}\
    for _ in range(warmup_cycles + 1, n_cycles):
{steady}\
    cycles = n_cycles - warmup_cycles - 1
{count}\
    # the final queue-0 visit beginning closes queue 0's last measured cycle
{close}\
    return [{fields}], busy, t_warm, t
"""

# queue j's streams, then every field at its start value in one assignment
_LOAD = ("    arr_h_{j}, arr_l_{j}, svc_h_{j}, svc_l_{j}, swo_{j} = queues[{j}]\n    "
         + ", ".join(f"{f}_{{j}}" for f in _FIELDS) + " = " + ", ".join(_FIELDS.values()) + "\n")

# class c (h high, l low) of queue j, served straight from the stream while
# the next arrival is before the bound: the gate t_vb where the visit keeps
# the class, now (t) where it clears it.  {state} counts in x{c} those that
# arrived before the gate, the visit-beginning state: every customer of a
# kept class, and none of the highs that a low's {inner} serves.  A wait is
# tallied if the customer arrived in the window; the area runs from the
# later of its arrival and t_warm, after {inner}: a low stays in system
# until the highs that arrived during its service are done.
_SERVE = """\
while n{c}_{j} < {bound}:
    a{c} = n{c}_{j}
    n{c}_{j} = next(arr_{c}_{j})
    dur = next(svc_{c}_{j})
{state}\
    append(Event(t, "service_start", len(events), {j}, "{label}", a{c}))  # trace
    append(Event(t + dur, "service_end", len(events), {j}, "{label}", a{c}))  # trace
    if a{c} >= t_warm:  # window
        w = t - a{c}
        {c}n_{j} += 1{count}
        {c}s_{j} += w
        {c}s2_{j} += w * w
    else:  # window
        a{c} = t_warm  # tally
    busy += dur  # tally
    t += dur
{inner}\
    {c}a_{j} += t - a{c}  # tally
"""

# the period p of queue j that ends now, if it began ({begin}) in the window:
# the cycle (pb, c) or the intervisit period (pe, g)
_PERIOD = """\
if {begin}_{j} >= t_warm:  # window
    x = t - {begin}_{j}
    {p}n_{j} += 1  # count
    {p}s_{j} += x
    {p}s2_{j} += x * x
"""

# one visit to queue j: the period tallies, then its present classes ({xs}
# their states), then the visit tally and the state sums ({sums})
_VISIT = """\
# ---- queue {j}: visit beginning
t_vb = t
{periods}\
append(Event(t, "visit_begin", len(events), {j}))  # trace
{xs} = 0  # tally
{serve}\
# ---- queue {j}: visit end
x = t - t_vb  # tally
vn_{j} += 1  # count
vs_{j} += x  # tally
vs2_{j} += x * x  # tally
{sums}\
pb_{j} = t_vb
pe_{j} = t
t += next(swo_{j})
append(Event(t, "switch_end", len(events), {next_j}))  # trace
"""

# the counts that the steady loop leaves out: each of its cycles adds one to
# every queue's cycle, intervisit and visit count.  At a kept class every
# customer it serves arrived before the gate and inside the window, so the
# wait count grows as the state sum s{c}: {uncount} takes the sum before the
# loop ("-"), {count} adds it after the loop ("+").  A state sum is a float
# that holds a whole number, exactly below 2**53, so each count stays an int.
_COUNT = """\
    cn_{j} += cycles
    gn_{j} += cycles
    vn_{j} += cycles
"""
_KEPT_COUNT = "    {c}n_{j} {op}= int(s{c}_{j})\n"

# customers of class c still in system add queue-length area up to the end;
# each arrived after its queue's last gate, inside the window
_CLOSE = """\
    while n{c}_{j} < t:
        {c}a_{j} += t - n{c}_{j}
        n{c}_{j} = next(arr_{c}_{j})
"""

_RETURN = "dict(" + ", ".join(f"{f}={f}_{{j}}" for f in _FIELDS) + "), "


def _phase(cycle: str, window_open: bool, counted: bool = True) -> str:
    """``cycle`` for a run phase in which every ``# window`` test reads
    ``window_open``: the test goes, and its branch stays, one level less
    indented, if taken.  In the warm-up (``window_open`` false), so do the
    ``# tally`` and ``# count`` lines: every tally still holds its start
    value when the window opens.  Where ``counted`` is false (the steady
    loop), the ``# count`` lines go too: ``_COUNT`` derives them."""
    out, test = [], None  # test: (depth, taken) of the window test being read
    for line in cycle.splitlines(True):
        depth = len(line) - len(line.lstrip(" "))
        if test and depth > test[0]:
            if not test[1]:
                continue
            line = line[4:]
        elif line.endswith("# window\n"):
            test = (depth, line.lstrip().startswith("if ") == window_open)
            continue
        else:
            test = None
        if line.endswith("# count\n") and not (window_open and counted):
            continue
        if window_open or not line.endswith("# tally\n"):
            out.append(line)
    return "".join(out)


def _render(rules: tuple, trace: bool) -> str:
    """Source of the simulation kernel: ``rules[j]`` holds the (high, low)
    classes of queue j, each "absent", "kept" or "cleared" by its visits,
    and ``trace`` adds the trace events.  Every queue has a present class.

    The function it defines, ``kernel(queues, n_cycles, warmup_cycles,
    events)``, runs one replication of ``n_cycles`` cycles over ``queues``
    (per queue: the arrival and service streams of its high and low class
    and its switch-over stream).  It returns each queue's ``_FIELDS`` as a
    dict, the busy time, the start of the measurement window and the clock.

    Each rule is one template, filled per queue and class: ``_SERVE`` (a
    low's holds the high one where the visit clears the high class, without
    the state count, since every high that arrived before the gate is
    served before the first low), ``_PERIOD`` (the cycle and intervisit
    tallies, and the epilogue's close of queue 0's last cycle), ``_COUNT``
    and ``_CLOSE``.  An absent class renders nothing: no serve loop, state
    or close.  One cycle of visits is rendered three times, by ``_phase``:
    the warm-up cycles keep no tally and test no window; cycle
    ``warmup_cycles``, which opens the window, tests it as written; every
    later cycle tallies without a test, since each queue's visit in the
    opening cycle begins inside the window and leaves only customers who
    arrived after its gate, and keeps no count that ``_COUNT`` derives.
    """
    n = len(rules)

    def each(template):
        return "".join(template.format(j=j) for j in range(n))

    def serve(j, c, rule, nested=False, inner=""):
        kept = rule == "kept"
        gate = "" if kept else f"if a{c} < t_vb: "
        return _SERVE.format(j=j, c=c, label=c.upper(), bound="t_vb" if kept else "t",
                             state="" if nested else f"    {gate}x{c} += 1  # tally\n",
                             count="  # count" if kept else "", inner=inner)

    def cycle_tally(j):
        return _PERIOD.format(j=j, begin="pb", p="c")

    cycle = []
    for j, (h, l) in enumerate(rules):
        present = [(c, rule) for c, rule in zip("hl", (h, l)) if rule != "absent"]
        inner = indent(serve(j, "h", h, nested=True), " " * 4) if h == "cleared" else ""
        sums = "".join(f"s{c}_{j} += x{c}  # tally\n" for c, _ in present)
        cycle.append(_VISIT.format(
            j=j, next_j=(j + 1) % n,
            periods=cycle_tally(j) + _PERIOD.format(j=j, begin="pe", p="g"),
            xs=" = ".join(f"x{c}" for c, _ in present),
            serve="".join(serve(j, c, rule, inner=inner if c == "l" else "")
                          for c, rule in present),
            sums=sums + (f"shl_{j} += xh * xl  # tally\n" if len(present) == 2 else "")))
    cycle = "".join(cycle)
    kept = [(j, c) for j, rule in enumerate(rules) for c, r in zip("hl", rule) if r == "kept"]
    close = indent(_phase(cycle_tally(0), True), " " * 4) + "".join(
        _CLOSE.format(j=j, c=c) for j, rule in enumerate(rules)
        for c, r in zip("hl", rule) if r != "absent")
    source = _LOOP.format(
        load=each(_LOAD), warmup=indent(_phase(cycle, False), " " * 8),
        boundary=indent(cycle, " " * 4),
        uncount="".join(_KEPT_COUNT.format(j=j, c=c, op="-") for j, c in kept),
        steady=indent(_phase(cycle, True, counted=False), " " * 8),
        count=each(_COUNT) + "".join(_KEPT_COUNT.format(j=j, c=c, op="+") for j, c in kept),
        close=close, fields=each(_RETURN))
    if trace:
        return source
    return "".join(line for line in source.splitlines(True)
                   if not line.endswith("# trace\n"))


@lru_cache(maxsize=64)
def _kernel(rules: tuple, trace: bool):
    """``_render(rules, trace)`` compiled; one per model structure, since
    the source holds no model value."""
    namespace = {"Event": Event, "inf": math.inf, "zero": 0.0}
    exec(compile(_render(rules, trace), "<priopoll.sim kernel>", "exec"), namespace)
    return namespace["kernel"]


def _stream(draw, *args):
    """One random stream: the values of ``draw(*args, _BLOCK)``, block after block.

    The simulator reads it one value at a time with ``next``.  A block is
    drawn whole once the values before it are used up, so any way of reading
    the stream, one value or a batch at a time, reads the same blocks in the
    same order.  ``_BLOCK`` is part of the output: Hyperexponential's
    ``sample_block(gen, n)`` draws n uniforms before n exponentials, so
    another block size gives other values.  A block becomes Python floats
    ``_PIECE`` values at a time, each piece once the one before it is used
    up, so the values a run never reads (most of a switch-over block) are
    drawn but not converted.
    """
    return chain.from_iterable(block[i:i + _PIECE].tolist()
                               for block in starmap(draw, repeat((*args, _BLOCK)))
                               for i in range(0, _BLOCK, _PIECE))


def _arrivals(gen, scale):
    """Arrival times of a Poisson stream: running sums of its exponential gaps."""
    return accumulate(_stream(gen.exponential, scale))


# --------------------------------------------------------------- aggregation

@dataclass(frozen=True)
class SimStats:
    """Replication-aggregated estimates with 95% confidence half-widths.

    Class-level dicts are keyed (queue_index, "H"|"L"), queue-level dicts by
    queue index.  ``*_ci`` entries are across-replication half-widths (nan
    for a single replication).
    """

    wait_mean: dict
    wait_var: dict
    wait_ci: dict
    wait_count: dict
    qlen_mean: dict
    qlen_ci: dict
    cycle_mean: dict
    cycle_m2: dict
    cycle_ci: dict
    visit_mean: dict
    visit_m2: dict
    visit_ci: dict
    intervisit_mean: dict
    intervisit_m2: dict
    intervisit_ci: dict
    vb_cross: dict
    vb_high: dict
    vb_low: dict
    busy_fraction: float
    busy_ci: float
    seed: int | None
    n_reps: int
    n_cycles: int
    warmup_cycles: int
    horizon: float

    def to_csv(self, model: PollingModel) -> str:
        lines = ["queue,class,discipline,mean_wait,var_wait,mean_qlen,"
                 "ci_halfwidth,n_samples"]
        for i, q in enumerate(model.queues):
            for _, cls, _, _ in q.classes:
                key = (i, cls)
                lines.append(
                    f"{i + 1},{cls},{q.discipline},{self.wait_mean[key]:.6g},"
                    f"{self.wait_var[key]:.6g},{self.qlen_mean[key]:.6g},"
                    f"{self.wait_ci[key]:.6g},{self.wait_count[key]}")
        lines.append(f"system,,,busy={self.busy_fraction:.6g},,,"
                     f"{self.busy_ci:.6g},{self.n_reps}")
        return "\n".join(lines) + "\n"


def _ci(vals):
    m = sum(vals) / len(vals)
    if len(vals) < 2:
        return m, math.nan
    var = sum((v - m) ** 2 for v in vals) / (len(vals) - 1)
    half = _t975(len(vals) - 1) * math.sqrt(var / len(vals))
    return m, half


def _across(reps, num, den):
    """Mean and 95% half-width of num(r) / den(r) over replications with den(r) > 0."""
    vals = [num(r) / den(r) for r in reps if den(r)]
    return _ci(vals) if vals else (math.nan, math.nan)


def _aggregate(model, reps, seed, n_cycles, warmup_cycles) -> SimStats:
    def horizon(r):
        return r.t_end - r.t_warm

    # every per-class and per-queue SimStats field, filled queue by queue
    out = {f.name: {} for f in fields(SimStats) if f.type == "dict"}
    for i, q in enumerate(model.queues):
        runs = [r.queues[i] for r in reps]

        def across(num, den):
            return _across(runs, itemgetter(num), itemgetter(den))

        for c, cls, _, _ in q.classes:
            key, p = (i, cls), "hl"[c]
            n, s, s2 = p + "n", p + "s", p + "s2"
            out["wait_mean"][key], out["wait_ci"][key] = across(s, n)
            # per-replication variance m2 - mean**2, not a ratio of sums
            variances = [f[s2] / f[n] - (f[s] / f[n]) ** 2 for f in runs if f[n]]
            out["wait_var"][key] = _ci(variances)[0] if variances else math.nan
            out["wait_count"][key] = sum(f[n] for f in runs)
            out["qlen_mean"][key], out["qlen_ci"][key] = _across(
                reps, lambda r: r.queues[i][p + "a"], horizon)
        for name, p in (("cycle", "c"), ("intervisit", "g"), ("visit", "v")):
            out[f"{name}_mean"][i], out[f"{name}_ci"][i] = across(p + "s", p + "n")
            out[f"{name}_m2"][i] = across(p + "s2", p + "n")[0]
        for name, num in (("vb_high", "sh"), ("vb_low", "sl"), ("vb_cross", "shl")):
            out[name][i] = across(num, "vn")[0]

    busy_fraction, busy_ci = _across(reps, lambda r: r.busy, horizon)
    return SimStats(
        **out, busy_fraction=busy_fraction, busy_ci=busy_ci,
        seed=seed, n_reps=len(reps), n_cycles=n_cycles,
        warmup_cycles=warmup_cycles,
        horizon=sum(map(horizon, reps)) / len(reps),
    )


def _count(x) -> bool:
    """Whether ``x`` is an integer count: an Integral that is not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _warmup(n_cycles, warmup_cycles):
    """The warmup count, 10% of ``n_cycles`` by default; ValueError unless both
    are integers with n_cycles > warmup_cycles >= 0 (a run ends at cycle
    n_cycles, which 200.5 never reaches)."""
    if warmup_cycles is None and _count(n_cycles):
        warmup_cycles = n_cycles // 10
    if not (_count(n_cycles) and _count(warmup_cycles)
            and n_cycles > warmup_cycles >= 0):
        raise ValueError("need integers n_cycles > warmup_cycles >= 0")
    return warmup_cycles


# the most customers that ``run`` and ``replicate`` serve in one call: a time
# bound only, as gf's ``_MAX_CYCLES`` is for ``log_value``.  At the measured
# 2.2-2.6 million customers/s it stands for 64-76 minutes of one core
# (Python 3.11 on a shared 2-core x86 host); a caller that wants more makes
# more calls.  It keeps every state sum below 2**53, where a float counts
# exactly.
_MAX_CUSTOMERS = 1e10


def _customers(model: PollingModel, n_reps: int, n_cycles: int) -> float:
    """Expected customers of one run of ``n_cycles`` cycles, E(C) sum(lambda)
    per cycle, from ``validate`` before any stream is built.

    Raises OutOfRange for a horizon that the clock cannot advance by the
    model's shortest mean time (the run would never end), and NoConvergence
    where ``n_reps`` runs would serve more than ``_MAX_CUSTOMERS``.
    """
    horizon = n_cycles * validate(model).mean_cycle
    means = [d.mean for d in model.switchovers]
    for q in model.queues:
        for _, _, rate, dist in q.classes:
            means += dist.mean, 1.0 / rate
    shortest = min(m for m in means if m > 0.0)
    if horizon + shortest == horizon:
        raise OutOfRange(f"the simulator's clock cannot advance a horizon of "
                         f"{horizon:.3g} by the model's shortest mean time {shortest:.3g}")
    customers = horizon * sum(q.lambda_high + q.lambda_low for q in model.queues)
    if n_reps * customers > _MAX_CUSTOMERS:
        raise NoConvergence(f"{n_reps} runs of {n_cycles} cycles would serve about "
                            f"{n_reps * customers:.3g} customers, past the simulator's "
                            f"bound of {_MAX_CUSTOMERS:.3g}")
    return customers


def run(model: PollingModel, seed: int, n_cycles: int,
        warmup_cycles: int | None = None, trace: bool = False):
    """One simulation run; warmup defaults to 10% of the requested cycles.

    Returns SimStats (confidence half-widths are nan with one replication).
    With ``trace=True`` returns (SimStats, list[Event]) for serve-order
    inspection on short horizons.  Raises ValueError unless the cycle counts
    are integers with n_cycles > warmup_cycles >= 0, and NoConvergence where
    the run's expected customers pass ``_MAX_CUSTOMERS`` (1e10).
    """
    warmup_cycles = _warmup(n_cycles, warmup_cycles)
    _customers(model, 1, n_cycles)
    rep = _simulate(model, seed, n_cycles, warmup_cycles, trace=trace)
    stats = _aggregate(model, [rep], seed, n_cycles, warmup_cycles)
    if trace:
        return stats, rep.events
    return stats


def replicate(model: PollingModel, base_seed: int, n_reps: int, n_cycles: int,
              warmup_cycles: int | None = None,
              parallel: bool | None = None) -> SimStats:
    """Independent replications with spawned RNG streams; bit-reproducible.

    Replications run in worker processes when ``parallel`` is true (default:
    enabled for heavy workloads); results are merged in replication order so
    the output never depends on scheduling.  Raises ValueError unless n_reps
    is an integer >= 1 and the cycle counts are as ``run`` takes them, and
    NoConvergence, before any replication starts, where the expected
    customers of all of them pass ``_MAX_CUSTOMERS`` (1e10).
    """
    if not (_count(n_reps) and n_reps >= 1):
        raise ValueError("n_reps must be an integer >= 1")
    warmup_cycles = _warmup(n_cycles, warmup_cycles)
    customers = _customers(model, n_reps, n_cycles)
    children = np.random.SeedSequence(base_seed).spawn(n_reps)
    if parallel is None:
        parallel = n_reps >= 2 and customers >= 2e6
    args = (repeat(model), children, repeat(n_cycles), repeat(warmup_cycles))
    workers = min(n_reps, os.cpu_count() or 1) if parallel else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_simulate, *args))
    else:
        reps = list(map(_simulate, *args))
    return _aggregate(model, reps, base_seed, n_cycles, warmup_cycles)
