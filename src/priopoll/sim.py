"""Discrete-event simulation of the polling system, used as an oracle.

The simulator realizes the service semantics exactly: a gate closes behind
the relevant classes at each visit beginning, high-priority customers are
served before low-priority ones (overtaking gated customers under mixed
service), services are never preempted, and a visit ends when the discipline
says so (gated front lines empty / queue empty / gated lows served and no
high present).

Rather than a binary-heap calendar, the event set is kept as one pointer per
Poisson arrival stream plus the server's own clock; pending arrivals are
absorbed whenever the clock reaches a decision instant.  Dequeue order is
identical to a (timestamp, completion-before-arrival, sequence) calendar and
fully deterministic given the seed.  Simultaneous completion/arrival ties
resolve in favour of the completion, so an arrival exactly at a visit-ending
instant is not caught by the ending visit.

Waiting time is measured from arrival to service start.  Queue-length
time-averages count a low-priority customer as "in system" until the server
finishes clearing the high-priority work that arrived during that customer's
service (its completion time) under mixed/exhaustive service, matching the
sojourn convention of the analytic queue-length results.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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


@dataclass
class _RepResult:
    n: int
    wait_sum: list
    wait_sumsq: list
    wait_n: list
    area: list
    cycle_sum: list
    cycle_sumsq: list
    cycle_n: list
    visit_sum: list
    visit_sumsq: list
    visit_n: list
    inter_sum: list
    inter_sumsq: list
    inter_n: list
    xh_sum: list
    xl_sum: list
    xhxl_sum: list
    vb_n: list
    busy: float
    t_warm: float
    t_end: float
    events: list = field(default_factory=list)


def _simulate(model: PollingModel, seed, n_cycles: int, warmup_cycles: int,
              trace: bool = False) -> _RepResult:
    validate(model)
    if not n_cycles > warmup_cycles >= 0:
        raise ValueError("need n_cycles > warmup_cycles >= 0")
    n = model.n
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(5 * n)  # per queue: arr_h, arr_l, svc_h, svc_l, swo

    disc = [q.discipline for q in model.queues]
    lam = []
    for q in model.queues:
        lam.extend((q.lambda_high, q.lambda_low))

    # arrival streams: index 2*j for high, 2*j+1 for low
    def arr_sampler(j, cls_idx):
        q = model.queues[j]
        rate = q.lambda_high if cls_idx == 0 else q.lambda_low
        gen = np.random.default_rng(children[5 * j + cls_idx])
        scale = 1.0 / rate
        return gen, scale

    svc_draw = []
    for j, q in enumerate(model.queues):
        for cls_idx, dist in ((0, q.service_high), (1, q.service_low)):
            gen = np.random.default_rng(children[5 * j + 2 + cls_idx])
            svc_draw.append(_sampler(gen, dist))
    swo_draw = [
        _sampler(np.random.default_rng(children[5 * j + 4]), model.switchovers[j])
        for j in range(n)
    ]

    # per-queue lines; "in" deques collect behind-the-gate arrivals
    from collections import deque
    high_front = [deque() for _ in range(n)]
    high_in = [deque() for _ in range(n)]
    low_front = [deque() for _ in range(n)]
    low_in = [deque() for _ in range(n)]
    pending_low = [[] for _ in range(n)]

    # line an arrival stream appends to
    append_to = []
    for j, q in enumerate(model.queues):
        append_to.append(high_in[j].append if q.discipline == GATED
                         else high_front[j].append)
        append_to.append(low_front[j].append if q.discipline == EXHAUSTIVE
                         else low_in[j].append)

    active = [k for k in range(2 * n) if lam[k] > 0.0]
    next_t = [math.inf] * (2 * n)
    bufs = [None] * (2 * n)
    ptrs = [0] * (2 * n)
    gens = [None] * (2 * n)
    scales = [0.0] * (2 * n)
    for k in active:
        gen, scale = arr_sampler(k // 2, k % 2)
        gens[k] = gen
        scales[k] = scale
        buf = gen.exponential(scale, _BLOCK).tolist()
        bufs[k] = buf
        next_t[k] = buf[0]
        ptrs[k] = 1

    res = _RepResult(
        n=n,
        wait_sum=[0.0] * (2 * n), wait_sumsq=[0.0] * (2 * n), wait_n=[0] * (2 * n),
        area=[0.0] * (2 * n),
        cycle_sum=[0.0] * n, cycle_sumsq=[0.0] * n, cycle_n=[0] * n,
        visit_sum=[0.0] * n, visit_sumsq=[0.0] * n, visit_n=[0] * n,
        inter_sum=[0.0] * n, inter_sumsq=[0.0] * n, inter_n=[0] * n,
        xh_sum=[0.0] * n, xl_sum=[0.0] * n, xhxl_sum=[0.0] * n, vb_n=[0] * n,
        busy=0.0, t_warm=math.nan, t_end=math.nan,
    )
    wait_sum = res.wait_sum
    wait_sumsq = res.wait_sumsq
    wait_n = res.wait_n
    area = res.area
    events = res.events
    seq = 0

    def absorb(t):
        for k in active:
            nt = next_t[k]
            if nt < t:
                ap = append_to[k]
                buf = bufs[k]
                p = ptrs[k]
                blen = len(buf)
                while nt < t:
                    ap(nt)
                    if p == blen:
                        buf = gens[k].exponential(scales[k], _BLOCK).tolist()
                        bufs[k] = buf
                        blen = _BLOCK
                        p = 0
                    nt += buf[p]
                    p += 1
                next_t[k] = nt
                ptrs[k] = p

    t = 0.0
    t_warm = None
    prev_begin = [None] * n
    prev_end = [None] * n
    q0_begins = 0
    j = 0

    def release(k2, arr, t_rel):
        if t_warm is not None and t_rel > t_warm:
            area[k2] += t_rel - (arr if arr > t_warm else t_warm)

    while True:
        absorb(t)
        if j == 0:
            if t_warm is None and q0_begins == warmup_cycles:
                t_warm = t
            if q0_begins == n_cycles:
                if prev_begin[0] is not None and t_warm is not None and prev_begin[0] >= t_warm:
                    c = t - prev_begin[0]
                    res.cycle_sum[0] += c
                    res.cycle_sumsq[0] += c * c
                    res.cycle_n[0] += 1
                break
            q0_begins += 1

        # ---- visit beginning: close gates, record period statistics
        d = disc[j]
        if d == GATED:
            high_front[j], high_in[j] = high_in[j], high_front[j]
            append_to[2 * j] = high_in[j].append
        if d != EXHAUSTIVE:
            low_front[j], low_in[j] = low_in[j], low_front[j]
            append_to[2 * j + 1] = low_in[j].append
        hline = high_front[j]
        lline = low_front[j]
        measured = t_warm is not None and t >= t_warm
        if measured:
            if prev_begin[j] is not None and prev_begin[j] >= t_warm:
                c = t - prev_begin[j]
                res.cycle_sum[j] += c
                res.cycle_sumsq[j] += c * c
                res.cycle_n[j] += 1
            if prev_end[j] is not None and prev_end[j] >= t_warm:
                c = t - prev_end[j]
                res.inter_sum[j] += c
                res.inter_sumsq[j] += c * c
                res.inter_n[j] += 1
            xh = float(len(hline))
            xl = float(len(lline))
            res.xh_sum[j] += xh
            res.xl_sum[j] += xl
            res.xhxl_sum[j] += xh * xl
            res.vb_n[j] += 1
        prev_begin[j] = t
        t_vb = t
        if trace:
            events.append(Event(t, "visit_begin", seq, j))
            seq += 1

        kh = 2 * j
        kl = kh + 1
        pend = pending_low[j]
        immediate_low = d == GATED  # no completion-time extension under gated
        while True:
            absorb(t)
            if pend and not hline:
                for arr in pend:
                    release(kl, arr, t)
                pend.clear()
            if hline:
                arr = hline.popleft()
                k2 = kh
            elif lline:
                arr = lline.popleft()
                k2 = kl
            else:
                break
            w = t - arr
            if t_warm is not None and arr >= t_warm:
                wait_n[k2] += 1
                wait_sum[k2] += w
                wait_sumsq[k2] += w * w
            if trace:
                cls = "H" if k2 == kh else "L"
                if cls == "L":
                    assert not hline, "low-priority service started with high-priority work waiting"
                    if d != EXHAUSTIVE:
                        assert arr <= t_vb, "served a low customer from behind the gate"
                events.append(Event(t, "service_start", seq, j, cls, arr))
                seq += 1
            dur = svc_draw[k2]()
            t2 = t + dur
            if t_warm is not None:
                res.busy += dur if t >= t_warm else max(0.0, t2 - t_warm)
            t = t2
            if trace:
                events.append(Event(t, "service_end", seq, j,
                                    "H" if k2 == kh else "L", arr))
                seq += 1
            if k2 == kh or immediate_low:
                release(k2, arr, t)
            else:
                pend.append(arr)

        # ---- visit end
        if measured and t_vb >= t_warm:
            v = t - t_vb
            res.visit_sum[j] += v
            res.visit_sumsq[j] += v * v
            res.visit_n[j] += 1
        prev_end[j] = t

        t += swo_draw[j]()
        j += 1
        if j == n:
            j = 0
        if trace:
            events.append(Event(t, "switch_end", seq, j))
            seq += 1

    res.t_warm = t_warm
    res.t_end = t
    # customers still in system contribute queue-length area up to the horizon
    for jj in range(n):
        for k2, lines in ((2 * jj, (high_front[jj], high_in[jj])),
                          (2 * jj + 1, (low_front[jj], low_in[jj]))):
            for line in lines:
                for arr in line:
                    if arr < t:
                        release(k2, arr, t)
    return res


def _sampler(gen, dist, block=_BLOCK):
    buf = dist.sample_block(gen, block).tolist()
    idx = 0

    def draw():
        nonlocal buf, idx
        if idx == len(buf):
            buf = dist.sample_block(gen, block).tolist()
            idx = 0
        v = buf[idx]
        idx += 1
        return v

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


def _aggregate(model, reps, seed, n_cycles, warmup_cycles) -> SimStats:
    n = model.n
    wait_mean, wait_var, wait_ci, wait_count = {}, {}, {}, {}
    qlen_mean, qlen_ci = {}, {}
    horizons = [r.t_end - r.t_warm for r in reps]
    for i, q in enumerate(model.queues):
        for cls_idx, (cls, lam) in enumerate((("H", q.lambda_high),
                                              ("L", q.lambda_low))):
            if lam <= 0.0:
                continue
            k2 = 2 * i + cls_idx
            means = [r.wait_sum[k2] / r.wait_n[k2] for r in reps if r.wait_n[k2]]
            variances = [r.wait_sumsq[k2] / r.wait_n[k2]
                         - (r.wait_sum[k2] / r.wait_n[k2]) ** 2
                         for r in reps if r.wait_n[k2]]
            key = (i, cls)
            wait_mean[key], wait_ci[key] = _ci(means) if means else (math.nan, math.nan)
            wait_var[key], _ = _ci(variances) if variances else (math.nan, math.nan)
            wait_count[key] = sum(r.wait_n[k2] for r in reps)
            qs = [r.area[k2] / (r.t_end - r.t_warm) for r in reps]
            qlen_mean[key], qlen_ci[key] = _ci(qs)

    cycle_mean, cycle_m2, cycle_ci = {}, {}, {}
    visit_mean, visit_m2, visit_ci = {}, {}, {}
    inter_mean, inter_m2, inter_ci = {}, {}, {}
    vb_cross, vb_high, vb_low = {}, {}, {}
    for i in range(n):
        cm = [r.cycle_sum[i] / r.cycle_n[i] for r in reps if r.cycle_n[i]]
        cycle_mean[i], cycle_ci[i] = _ci(cm) if cm else (math.nan, math.nan)
        c2 = [r.cycle_sumsq[i] / r.cycle_n[i] for r in reps if r.cycle_n[i]]
        cycle_m2[i], _ = _ci(c2) if c2 else (math.nan, math.nan)
        vm = [r.visit_sum[i] / r.visit_n[i] for r in reps if r.visit_n[i]]
        visit_mean[i], visit_ci[i] = _ci(vm) if vm else (math.nan, math.nan)
        v2 = [r.visit_sumsq[i] / r.visit_n[i] for r in reps if r.visit_n[i]]
        visit_m2[i], _ = _ci(v2) if v2 else (math.nan, math.nan)
        im = [r.inter_sum[i] / r.inter_n[i] for r in reps if r.inter_n[i]]
        inter_mean[i], inter_ci[i] = _ci(im) if im else (math.nan, math.nan)
        i2 = [r.inter_sumsq[i] / r.inter_n[i] for r in reps if r.inter_n[i]]
        inter_m2[i], _ = _ci(i2) if i2 else (math.nan, math.nan)
        xc = [r.xhxl_sum[i] / r.vb_n[i] for r in reps if r.vb_n[i]]
        vb_cross[i], _ = _ci(xc) if xc else (math.nan, math.nan)
        xh = [r.xh_sum[i] / r.vb_n[i] for r in reps if r.vb_n[i]]
        vb_high[i], _ = _ci(xh) if xh else (math.nan, math.nan)
        xl = [r.xl_sum[i] / r.vb_n[i] for r in reps if r.vb_n[i]]
        vb_low[i], _ = _ci(xl) if xl else (math.nan, math.nan)

    busy_fraction, busy_ci = _ci([r.busy / (r.t_end - r.t_warm) for r in reps])
    return SimStats(
        wait_mean=wait_mean, wait_var=wait_var, wait_ci=wait_ci,
        wait_count=wait_count, qlen_mean=qlen_mean, qlen_ci=qlen_ci,
        cycle_mean=cycle_mean, cycle_m2=cycle_m2, cycle_ci=cycle_ci,
        visit_mean=visit_mean, visit_m2=visit_m2, visit_ci=visit_ci,
        intervisit_mean=inter_mean, intervisit_m2=inter_m2,
        intervisit_ci=inter_ci,
        vb_cross=vb_cross, vb_high=vb_high, vb_low=vb_low,
        busy_fraction=busy_fraction, busy_ci=busy_ci,
        seed=seed, n_reps=len(reps), n_cycles=n_cycles,
        warmup_cycles=warmup_cycles,
        horizon=sum(horizons) / len(horizons),
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
    if parallel and n_reps >= 2:
        import os
        workers = min(n_reps, os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reps = list(pool.map(_run_star, jobs))
        else:
            reps = [_run_star(job) for job in jobs]
    else:
        reps = [_run_star(job) for job in jobs]
    return _aggregate(model, reps, base_seed, n_cycles, warmup_cycles)
