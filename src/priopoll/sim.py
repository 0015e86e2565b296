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

Everything a visit reads and writes about its queue lives in one list, the
queue's record: each class's next arrival, wait tally and queue-length area,
the previous visit's beginning and end, the cycle, intervisit and visit
tallies and the visit-beginning state sums.  A visit unpacks the record into
locals in one statement and stores it back in one slice assignment.  The
loop runs cycle by cycle over the queues; the final queue-0 visit beginning
only closes queue 0's last cycle.  At the end the records are read out
column by column into the ``_Tally`` fields, areas and state sums of
``_RepResult``; ``_aggregate`` merges runs.

Warm-up and measured cycles run the same loop.  The measurement window
[t_warm, inf) is empty (t_warm = inf) until cycle ``warmup_cycles`` sets
t_warm to the clock.  Wait, cycle and intervisit tallies test the window;
the busy time, areas (-inf until then: an area adds ``t - max(arrival,
t_warm)``), visit tallies and state sums are zeroed when it opens.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat, starmap
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange
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


class _Tally(NamedTuple):
    """Count, sum and sum of squares of a sample, one entry per index."""

    n: tuple
    s: tuple
    s2: tuple


@dataclass
class _RepResult:
    """Post-warmup sums of one run; class streams are 2*j (high), 2*j+1 (low)."""

    wait: _Tally        # per class stream: arrival to service start
    cycle: _Tally       # per queue: visit beginning to the next one
    intervisit: _Tally  # per queue: visit end to the next visit beginning
    visit: _Tally       # per queue: visit beginning to visit end
    area: list          # per class stream: queue-length time integral
    state: list         # per queue: [sum X_H, sum X_L, sum X_H*X_L] at visit beginnings
    busy: float = 0.0
    t_warm: float = math.nan
    t_end: float = math.nan
    events: list = field(default_factory=list)

    @property
    def wait_n(self) -> list:
        return self.wait.n

    @property
    def visit_n(self) -> list:
        return self.visit.n


def _simulate(model: PollingModel, seed, n_cycles: int, warmup_cycles: int,
              trace: bool = False) -> _RepResult:
    # a clock that cannot advance by the shortest mean time would never end
    horizon = n_cycles * validate(model).mean_cycle
    means = [d.mean for d in model.switchovers]
    for q in model.queues:
        for _, _, rate, dist in q.classes:
            means += dist.mean, 1.0 / rate
    shortest = min(m for m in means if m > 0.0)
    if horizon + shortest == horizon:
        raise OutOfRange(f"the simulator's clock cannot advance a horizon of "
                         f"{horizon:.3g} by the model's shortest mean time {shortest:.3g}")
    n = model.n
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # per queue: arr_h, arr_l, svc_h, svc_l, swo
    rngs = [np.random.default_rng(c) for c in ss.spawn(5 * n)]
    events = []

    # per queue: whether a visit clears each class, the class streams'
    # arrivals and service times, its switch-over times and its record.  The
    # record holds, per class c (0 high, 1 low), the next arrival at 5c, the
    # wait tally (n, sum, sum of squares) at 5c+1 and the area at 5c+4; the
    # last visit's beginning and end at 10 and 11; the cycle, intervisit and
    # visit tallies at 12, 15 and 18; the state sums at 21.
    queues = []
    for j, q in enumerate(model.queues):
        arrivals, svc = [None, None], [None, None]
        rec = [math.inf, 0, 0.0, 0.0, 0.0] * 2 + [-math.inf] * 2 + [0, 0.0, 0.0] * 3 + [0.0] * 3
        for c, _, rate, dist in q.classes:
            arrivals[c] = _arrivals(rngs[5 * j + c], 1.0 / rate)
            rec[5 * c] = next(arrivals[c])
            svc[c] = _stream(dist.sample_block, rngs[5 * j + 2 + c])
        cleared = CLEARED[q.discipline]
        queues.append((j, 0 in cleared, 1 in cleared, *arrivals, *svc,
                       _stream(model.switchovers[j].sample_block, rngs[5 * j + 4]), rec))

    t = 0.0
    t_warm = math.inf  # the measurement window [t_warm, inf) is empty in the warm-up
    busy = 0.0
    for cyc in range(n_cycles):
        if cyc == warmup_cycles:  # open it; zero the tallies it does not test
            t_warm = t
            busy = 0.0
            for q in queues:
                rec = q[-1]
                rec[4] = rec[9] = 0.0
                rec[18:] = 0, 0.0, 0.0, 0.0, 0.0, 0.0
        for j, read_h, read_l, arr_h, arr_l, svc_h, svc_l, swo, rec in queues:
            (nh, hn, hs, hs2, ha, nl, ln, ls, ls2, la, prev_begin, prev_end,
             cn, cs, cs2, gn, gs, gs2, vn, vs, vs2, sh, sl, shl) = rec
            # ---- visit beginning
            t_vb = t
            if prev_begin >= t_warm:
                x = t - prev_begin
                cn += 1
                cs += x
                cs2 += x * x
            if prev_end >= t_warm:
                x = t - prev_end
                gn += 1
                gs += x
                gs2 += x * x
            if trace:
                events.append(Event(t, "visit_begin", len(events), j))

            # highs first, then one low, then highs again; each class is
            # served straight from its stream while its next arrival is
            # before the gate t_vb or, if the visit clears the class (read_h:
            # mixed and exhaustive, read_l: exhaustive), before now.  xh and
            # xl count the served customers that arrived before the gate: the
            # visit-beginning state.  A served low stays in system (pending)
            # until the highs that arrived during its service are done.
            xh = xl = 0
            pending = None
            while True:
                while nh < (t if read_h else t_vb):
                    arr = nh
                    nh = next(arr_h)
                    dur = next(svc_h)
                    if arr < t_vb:
                        xh += 1
                    if trace:
                        events.append(Event(t, "service_start", len(events), j, "H", arr))
                        events.append(Event(t + dur, "service_end", len(events), j, "H", arr))
                    if arr >= t_warm:
                        w = t - arr
                        hn += 1
                        hs += w
                        hs2 += w * w
                    busy += dur
                    t += dur
                    ha += t - (arr if arr > t_warm else t_warm)
                if pending is not None:
                    la += t - (pending if pending > t_warm else t_warm)
                    pending = None
                if nl >= (t if read_l else t_vb):
                    break
                arr = nl
                nl = next(arr_l)
                dur = next(svc_l)
                if arr < t_vb:
                    xl += 1
                if trace:
                    events.append(Event(t, "service_start", len(events), j, "L", arr))
                    events.append(Event(t + dur, "service_end", len(events), j, "L", arr))
                if arr >= t_warm:
                    w = t - arr
                    ln += 1
                    ls += w
                    ls2 += w * w
                busy += dur
                t += dur
                pending = arr

            # ---- visit end
            x = t - t_vb
            vn += 1
            vs += x
            vs2 += x * x
            sh += xh
            sl += xl
            shl += xh * xl
            rec[:] = (nh, hn, hs, hs2, ha, nl, ln, ls, ls2, la, t_vb, t,
                      cn, cs, cs2, gn, gs, gs2, vn, vs, vs2, sh, sl, shl)
            t += next(swo)
            if trace:
                events.append(Event(t, "switch_end", len(events), (j + 1) % n))

    # the final queue-0 visit beginning closes queue 0's last measured cycle
    rec = queues[0][-1]
    x = t - rec[10]
    rec[12:15] = rec[12] + 1, rec[13] + x, rec[14] + x * x
    # customers still in system contribute queue-length area up to the horizon
    for q in queues:
        rec = q[-1]
        for c, it in ((0, q[3]), (5, q[4])):
            arr = rec[c]
            while arr < t:
                rec[c + 4] += t - (arr if arr > t_warm else t_warm)
                arr = next(it)

    recs = [q[-1] for q in queues]

    def tally(*offsets):
        return _Tally(*zip(*(r[o:o + 3] for r in recs for o in offsets)))

    return _RepResult(wait=tally(1, 6), cycle=tally(12), intervisit=tally(15),
                      visit=tally(18), area=[r[o] for r in recs for o in (4, 9)],
                      state=[r[21:] for r in recs], busy=busy, t_warm=t_warm,
                      t_end=t, events=events)


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

    waits = [r.wait for r in reps]
    wait_mean, wait_var, wait_ci, wait_count = {}, {}, {}, {}
    qlen_mean, qlen_ci = {}, {}
    for i, q in enumerate(model.queues):
        for c, cls, _, _ in q.classes:
            k2 = 2 * i + c
            key = (i, cls)
            wait_mean[key], wait_ci[key] = _across(
                waits, lambda w: w.s[k2], lambda w: w.n[k2])
            # per-replication variance m2 - mean**2, not a ratio of sums
            variances = [w.s2[k2] / w.n[k2] - (w.s[k2] / w.n[k2]) ** 2
                         for w in waits if w.n[k2]]
            wait_var[key] = _ci(variances)[0] if variances else math.nan
            wait_count[key] = sum(w.n[k2] for w in waits)
            qlen_mean[key], qlen_ci[key] = _across(
                reps, lambda r: r.area[k2], horizon)

    periods = {}  # SimStats fields {cycle,intervisit,visit}_{mean,m2,ci}
    for name in ("cycle", "intervisit", "visit"):
        tallies = [getattr(r, name) for r in reps]
        mean, m2, ci = {}, {}, {}
        for i in range(model.n):
            mean[i], ci[i] = _across(tallies, lambda t: t.s[i], lambda t: t.n[i])
            m2[i] = _across(tallies, lambda t: t.s2[i], lambda t: t.n[i])[0]
        periods.update({f"{name}_mean": mean, f"{name}_m2": m2, f"{name}_ci": ci})
    vb_high, vb_low, vb_cross = {}, {}, {}
    for i in range(model.n):
        for c, out in enumerate((vb_high, vb_low, vb_cross)):
            out[i] = _across(reps, lambda r: r.state[i][c],
                             lambda r: r.visit.n[i])[0]

    busy_fraction, busy_ci = _across(reps, lambda r: r.busy, horizon)
    return SimStats(
        wait_mean=wait_mean, wait_var=wait_var, wait_ci=wait_ci,
        wait_count=wait_count, qlen_mean=qlen_mean, qlen_ci=qlen_ci,
        **periods, vb_cross=vb_cross, vb_high=vb_high, vb_low=vb_low,
        busy_fraction=busy_fraction, busy_ci=busy_ci,
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


def run(model: PollingModel, seed: int, n_cycles: int,
        warmup_cycles: int | None = None, trace: bool = False):
    """One simulation run; warmup defaults to 10% of the requested cycles.

    Returns SimStats (confidence half-widths are nan with one replication).
    With ``trace=True`` returns (SimStats, list[Event]) for serve-order
    inspection on short horizons.  Raises ValueError unless the cycle counts
    are integers with n_cycles > warmup_cycles >= 0.
    """
    warmup_cycles = _warmup(n_cycles, warmup_cycles)
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
    is an integer >= 1 and the cycle counts are as ``run`` takes them.
    """
    if not (_count(n_reps) and n_reps >= 1):
        raise ValueError("n_reps must be an integer >= 1")
    warmup_cycles = _warmup(n_cycles, warmup_cycles)
    children = np.random.SeedSequence(base_seed).spawn(n_reps)
    if parallel is None:
        lam_tot = sum(q.lambda_high + q.lambda_low for q in model.queues)
        ec = validate(model).mean_cycle
        parallel = n_reps >= 2 and n_cycles * ec * lam_tot >= 2e6
    args = (repeat(model), children, repeat(n_cycles), repeat(warmup_cycles))
    workers = min(n_reps, os.cpu_count() or 1) if parallel else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_simulate, *args))
    else:
        reps = list(map(_simulate, *args))
    return _aggregate(model, reps, base_seed, n_cycles, warmup_cycles)
