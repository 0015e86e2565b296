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
queue.  At a visit beginning both are read up to the current instant into
the gate's two lines; during the visit the discipline decides which streams
are read further (none under gated, the high stream under mixed, both under
exhaustive).  Whatever stays in a stream arrived behind the gate, and nothing
serves it before the queue's next visit reads it, in arrival order.  So one
loop serves every visit, whatever its discipline, in one pass: the lines the
gate fixed take one batch of service draws per class, and a stream read
during the visit is served straight from its iterator while its next arrival
lies before the current instant; a gated visit is one that reads neither.
That keeps each class first-come first-served without a queue: a stream
yields arrivals in increasing time, every customer in the gate's line
arrived before any still in the stream, and the line is served first, so the
next high customer served is always the earliest unserved arrival before the
current instant, as a FIFO queue fed before each service would give it.
Dequeue order is identical to a (timestamp, completion-before-arrival,
sequence) calendar and fully deterministic given the seed.  Simultaneous
completion/arrival ties resolve in favour of the completion, so an arrival
exactly at a visit-ending instant is not caught by the ending visit.

Waiting time is measured from arrival to service start.  Queue-length
time-averages count a low-priority customer as "in system" until the server
finishes clearing the high-priority work that arrived during that customer's
service (its completion time) under mixed/exhaustive service, matching the
sojourn convention of the analytic queue-length results.

Per-run sums are the ``_Tally`` fields of ``_RepResult``; ``_aggregate`` merges runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .model import EXHAUSTIVE, GATED, PollingModel, validate

__all__ = ["Event", "SimStats", "run", "replicate"]

_BLOCK = 8192

# two-sided 97.5% Student-t quantiles for df 1..30, then the rows at df 40/60/120
_T975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
         2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
         2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042)
_T975_ROWS = ((120, 1.980), (60, 2.000), (40, 2.021))


def _t975(df: int) -> float:
    """97.5% Student-t quantile; off-table df round down, so intervals err wide."""
    if df <= 0:
        return math.nan
    if df <= 30:
        return _T975[df - 1]
    return next((t for d, t in _T975_ROWS if df >= d), _T975[-1])


@dataclass(frozen=True)
class Event:
    """One entry of the serve-order trace (test/diagnostic mode only)."""

    timestamp: float
    kind: str          # visit_begin | service_start | service_end | switch_end
    sequence: int
    queue: int
    cls: str = ""
    arrival: float = math.nan


class _Tally:
    """Count, sum and sum of squares of a sample, one entry per index."""

    __slots__ = ("n", "s", "s2")

    def __init__(self, size: int):
        self.n = [0] * size
        self.s = [0.0] * size
        self.s2 = [0.0] * size


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
    validate(model)
    if not n_cycles > warmup_cycles >= 0:
        raise ValueError("need n_cycles > warmup_cycles >= 0")
    n = model.n
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # per queue: arr_h, arr_l, svc_h, svc_l, swo
    rngs = [np.random.default_rng(c) for c in ss.spawn(5 * n)]

    res = _RepResult(wait=_Tally(2 * n), cycle=_Tally(n), intervisit=_Tally(n),
                     visit=_Tally(n), area=[0.0] * (2 * n),
                     state=[[0.0, 0.0, 0.0] for _ in range(n)])
    wait_n, wait_sum, wait_sumsq = res.wait.n, res.wait.s, res.wait.s2
    cyc_n, cyc_s, cyc_s2 = res.cycle.n, res.cycle.s, res.cycle.s2
    int_n, int_s, int_s2 = res.intervisit.n, res.intervisit.s, res.intervisit.s2
    vis_n, vis_s, vis_s2 = res.visit.n, res.visit.s, res.visit.s2
    area = res.area
    events = res.events
    seq = 0

    # class streams k = 2*j + cls_idx, where the rate is positive: the next
    # arrival time and the arrivals after it
    next_t = [math.inf] * (2 * n)
    arrivals = [None] * (2 * n)
    # per queue: its class streams, whether a visit reads each stream, the
    # streams' arrivals and service samplers, its switch-over sampler and
    # visit-beginning state sums
    queues = []
    for j, q in enumerate(model.queues):
        svc = [None, None]
        for cls_idx, (rate, dist) in enumerate(((q.lambda_high, q.service_high),
                                                (q.lambda_low, q.service_low))):
            if rate <= 0.0:
                continue
            k = 2 * j + cls_idx
            arrivals[k] = _arrivals(rngs[5 * j + cls_idx], 1.0 / rate).__next__
            next_t[k] = arrivals[k]()
            svc[cls_idx] = _sampler(rngs[5 * j + 2 + cls_idx], dist)
        queues.append((2 * j, 2 * j + 1, q.discipline != GATED,
                       q.discipline == EXHAUSTIVE, arrivals[2 * j],
                       arrivals[2 * j + 1], *svc,
                       _sampler(rngs[5 * j + 4], model.switchovers[j]), res.state[j]))

    t = 0.0
    t_warm = None
    busy = 0.0
    prev_begin = [-math.inf] * n
    prev_end = [-math.inf] * n
    q0_begins = 0
    j = 0

    while True:
        # ---- visit beginning
        if j == 0 and t_warm is None and q0_begins == warmup_cycles:
            t_warm = t
        measured = t_warm is not None  # t never falls back below t_warm
        if measured and prev_begin[j] >= t_warm:
            x = t - prev_begin[j]
            cyc_n[j] += 1
            cyc_s[j] += x
            cyc_s2[j] += x * x
        if j == 0:
            if q0_begins == n_cycles:
                break
            q0_begins += 1

        # the gate is what has arrived so far
        kh, kl, read_h, read_l, nxt_h, nxt_l, draw_h, draw_l, swo, st = queues[j]
        nh, nl = next_t[kh], next_t[kl]
        hline = []
        lline = []
        if nh < t:
            ap = hline.append
            while nh < t:
                ap(nh)
                nh = nxt_h()
        if nl < t:
            ap = lline.append
            while nl < t:
                ap(nl)
                nl = nxt_l()
        if measured:
            if prev_end[j] >= t_warm:
                x = t - prev_end[j]
                int_n[j] += 1
                int_s[j] += x
                int_s2[j] += x * x
            xh = len(hline)
            xl = len(lline)
            st[0] += xh
            st[1] += xl
            st[2] += xh * xl
        prev_begin[j] = t
        t_vb = t
        if trace:
            events.append(Event(t, "visit_begin", seq, j))
            seq += 1

        # highs first: the gate's line, then the stream while its next
        # arrival is before t; then one low, from the gate's line or the
        # stream.  A visit reads a stream only if its discipline lets that
        # class pass the gate (read_h: mixed and exhaustive, read_l:
        # exhaustive).  A served low stays in system (pending) until the
        # highs that arrived during its service are done.
        nhg, nlg = len(hline), len(lline)
        hdurs = draw_h(nhg) if nhg else ()
        ldurs = draw_l(nlg) if nlg else ()
        hi = li = 0
        pending = None
        hn, hs, hs2, ha = wait_n[kh], wait_sum[kh], wait_sumsq[kh], area[kh]
        ln, ls, ls2, la = wait_n[kl], wait_sum[kl], wait_sumsq[kl], area[kl]
        while True:
            while True:
                if hi < nhg:
                    arr = hline[hi]
                    dur = hdurs[hi]
                    hi += 1
                elif read_h and nh < t:
                    arr = nh
                    nh = nxt_h()
                    dur = draw_h()
                else:
                    break
                if trace:
                    events.append(Event(t, "service_start", seq, j, "H", arr))
                    events.append(Event(t + dur, "service_end", seq + 1, j, "H", arr))
                    seq += 2
                if measured:
                    if arr >= t_warm:
                        w = t - arr
                        hn += 1
                        hs += w
                        hs2 += w * w
                    busy += dur
                    t += dur
                    ha += t - (arr if arr > t_warm else t_warm)
                else:
                    t += dur
            if pending is not None:
                la += t - (pending if pending > t_warm else t_warm)
                pending = None
            if li < nlg:
                arr = lline[li]
                dur = ldurs[li]
                li += 1
            elif read_l and nl < t:
                arr = nl
                nl = nxt_l()
                dur = draw_l()
            else:
                break
            if trace:
                events.append(Event(t, "service_start", seq, j, "L", arr))
                events.append(Event(t + dur, "service_end", seq + 1, j, "L", arr))
                seq += 2
            if measured:
                if arr >= t_warm:
                    w = t - arr
                    ln += 1
                    ls += w
                    ls2 += w * w
                busy += dur
                t += dur
                pending = arr
            else:
                t += dur
        next_t[kh], next_t[kl] = nh, nl
        wait_n[kh], wait_sum[kh], wait_sumsq[kh], area[kh] = hn, hs, hs2, ha
        wait_n[kl], wait_sum[kl], wait_sumsq[kl], area[kl] = ln, ls, ls2, la

        # ---- visit end
        if measured:
            x = t - t_vb
            vis_n[j] += 1
            vis_s[j] += x
            vis_s2[j] += x * x
        prev_end[j] = t

        t += swo()
        j += 1
        if j == n:
            j = 0
        if trace:
            events.append(Event(t, "switch_end", seq, j))
            seq += 1

    res.busy = busy
    res.t_warm = t_warm
    res.t_end = t
    # customers still in system contribute queue-length area up to the horizon
    if t_warm is not None and t > t_warm:
        for k in range(2 * n):
            arr = next_t[k]
            while arr < t:
                area[k] += t - (arr if arr > t_warm else t_warm)
                arr = arrivals[k]()
    return res


def _arrivals(gen, scale):
    """Arrival times of a Poisson stream: running sums of gaps drawn a block at a time."""
    gaps = iter(lambda: gen.exponential(scale, _BLOCK).tolist(), None)
    return accumulate(chain.from_iterable(gaps))


def _sampler(gen, dist, block=_BLOCK):
    """``draw()`` returns the stream's next value, ``draw(m)`` a list of the next m.

    Both read one buffer that is refilled a block at a time when a draw finds
    it used up, so any mix of the two calls yields the same sequence.
    """
    buf = dist.sample_block(gen, block).tolist()
    idx = 0

    def draw(m=None):
        nonlocal buf, idx
        if m is None:
            if idx == len(buf):
                buf = dist.sample_block(gen, block).tolist()
                idx = 0
            v = buf[idx]
            idx += 1
            return v
        out = buf[idx:idx + m]
        idx += len(out)
        while len(out) < m:
            buf = dist.sample_block(gen, block).tolist()
            idx = min(m - len(out), len(buf))
            out += buf[:idx]
        return out

    return draw


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
            for cls, lam in (("H", q.lambda_high), ("L", q.lambda_low)):
                if lam <= 0.0:
                    continue
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
        for cls_idx, (cls, lam) in enumerate((("H", q.lambda_high),
                                              ("L", q.lambda_low))):
            if lam <= 0.0:
                continue
            k2 = 2 * i + cls_idx
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


def run(model: PollingModel, seed: int, n_cycles: int,
        warmup_cycles: int | None = None, trace: bool = False):
    """One simulation run; warmup defaults to 10% of the requested cycles.

    Returns SimStats (confidence half-widths are nan with one replication).
    With ``trace=True`` returns (SimStats, list[Event]) for serve-order
    inspection on short horizons.
    """
    if warmup_cycles is None:
        warmup_cycles = n_cycles // 10
    rep = _simulate(model, seed, n_cycles, warmup_cycles, trace=trace)
    stats = _aggregate(model, [rep], seed, n_cycles, warmup_cycles)
    if trace:
        return stats, rep.events
    return stats


def _run_star(args):
    model, child, n_cycles, warmup_cycles = args
    return _simulate(model, child, n_cycles, warmup_cycles)


def replicate(model: PollingModel, base_seed: int, n_reps: int, n_cycles: int,
              warmup_cycles: int | None = None,
              parallel: bool | None = None) -> SimStats:
    """Independent replications with spawned RNG streams; bit-reproducible.

    Replications run in worker processes when ``parallel`` is true (default:
    enabled for heavy workloads); results are merged in replication order so
    the output never depends on scheduling.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if warmup_cycles is None:
        warmup_cycles = n_cycles // 10
    children = np.random.SeedSequence(base_seed).spawn(n_reps)
    jobs = [(model, c, n_cycles, warmup_cycles) for c in children]
    if parallel is None:
        lam_tot = sum(q.lambda_high + q.lambda_low for q in model.queues)
        ec = validate(model).mean_cycle
        parallel = n_reps >= 2 and n_cycles * ec * lam_tot >= 2e6
    workers = min(n_reps, os.cpu_count() or 1) if parallel else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_run_star, jobs))
    else:
        reps = [_run_star(job) for job in jobs]
    return _aggregate(model, reps, base_seed, n_cycles, warmup_cycles)
