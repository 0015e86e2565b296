"""A deliberately plain polling simulator, to check the rendered kernel.

Each queue keeps one FIFO list per class: the arrival times of the customers
that have arrived and are not yet served.  A visit takes its gate list, the
customers present at its beginning, and serves by the three rules of the
paper:

- gated: the gate's highs, then the gate's lows;
- mixed: before each of the gate's lows, and after the last one, every high
  present, including highs that arrived during the visit;
- exhaustive: the highs present, then one low present, until both lists
  are empty.

A customer is present at instant t if it arrived before t: one that arrives
at the instant a service ends or a visit begins waits for the next chance.
A low stays in system until the highs served right after it are done (its
completion time, as the analytic queue lengths count it).

Nothing here comes from ``priopoll.sim`` but the random streams: each is
built with ``sim._arrivals``/``sim._stream`` in the same
``SeedSequence.spawn(5N)`` order, so both simulators draw the same values.
Each reads its streams in its own way, arrivals by time, services in
service order and switch-overs by visit, so the two schedules must agree
bit for bit.  ``simulate`` records the kernel's trace events and computes
its per-queue fields from the schedule, after the run and by their
definitions:

- a class's waits (count, sum, sum of squares) are those of the customers
  who arrive at or after t_warm, the beginning of cycle ``warmup_cycles``;
- its area is each customer's time in system inside [t_warm, t_end);
- busy time sums the services that start at or after t_warm;
- a cycle or an intervisit period is measured if it begins at or after
  t_warm; queue 0's last cycle ends at t_end;
- the visit tallies (length and the visit-beginning state X_H, X_L) count
  the visits of cycles ``warmup_cycles`` onward;
- nh/nl are each class's first arrival at or after t_end, and pb/pe the
  queue's last visit beginning and end.
"""

import math
from collections import deque
from itertools import repeat

import numpy as np

from priopoll import EXHAUSTIVE, GATED, MIXED
from priopoll.sim import Event, _arrivals, _RepResult, _stream


class _Run:
    def __init__(self, model, seed):
        n = model.n
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(5 * n)]
        self.arrivals = {}   # (queue, class): arrival times not yet in the system
        self.upcoming = {}   # (queue, class): the first of them
        self.services = {}
        self.waiting = {}    # (queue, class): FIFO list of arrival times
        for j, q in enumerate(model.queues):
            for cls in "HL":
                self.arrivals[j, cls] = repeat(math.inf)
                self.waiting[j, cls] = deque()
            for c, cls, rate, dist in q.classes:
                self.arrivals[j, cls] = _arrivals(rngs[5 * j + c], 1.0 / rate)
                self.services[j, cls] = _stream(dist.sample_block, rngs[5 * j + 2 + c])
        for key, stream in self.arrivals.items():
            self.upcoming[key] = next(stream)
        self.switchovers = [_stream(d.sample_block, rngs[5 * j + 4])
                            for j, d in enumerate(model.switchovers)]
        self.t = 0.0
        self.events = []
        self.served = []     # per service: [queue, class, arrival, start, duration, out]
        self.visits = []     # per visit: (queue, cycle, begin, end, X_H, X_L)

    def admit(self, j):
        """Move queue j's arrivals before now into its FIFO lists."""
        for cls in "HL":
            while self.upcoming[j, cls] < self.t:
                self.waiting[j, cls].append(self.upcoming[j, cls])
                self.upcoming[j, cls] = next(self.arrivals[j, cls])

    def present(self, j, cls):
        self.admit(j)
        return bool(self.waiting[j, cls])

    def serve(self, j, cls):
        arrival = self.waiting[j, cls].popleft()
        dur = next(self.services[j, cls])
        self.events.append(Event(self.t, "service_start", len(self.events), j, cls, arrival))
        self.events.append(Event(self.t + dur, "service_end", len(self.events), j, cls,
                                 arrival))
        record = [j, cls, arrival, self.t, dur, self.t + dur]
        self.served.append(record)
        self.t += dur
        return record

    def serve_highs_present(self, j):
        while self.present(j, "H"):
            self.serve(j, "H")

    def visit(self, j, discipline, cycle):
        begin = self.t
        self.admit(j)
        gate_h, gate_l = len(self.waiting[j, "H"]), len(self.waiting[j, "L"])
        self.events.append(Event(begin, "visit_begin", len(self.events), j))
        if discipline == GATED:
            for _ in range(gate_h):
                self.serve(j, "H")
            for _ in range(gate_l):
                self.serve(j, "L")
        elif discipline == MIXED:
            self.serve_highs_present(j)
            for _ in range(gate_l):
                low = self.serve(j, "L")
                self.serve_highs_present(j)
                low[5] = self.t
        else:
            assert discipline == EXHAUSTIVE
            self.serve_highs_present(j)
            while self.present(j, "L"):
                low = self.serve(j, "L")
                self.serve_highs_present(j)
                low[5] = self.t
        self.visits.append((j, cycle, begin, self.t, gate_h, gate_l))


def simulate(model, seed, n_cycles, warmup_cycles):
    """One traced replication: a ``_RepResult`` as ``sim._simulate`` gives it."""
    n = model.n
    run = _Run(model, seed)
    t_warm = math.inf
    for cycle in range(n_cycles):
        if cycle == warmup_cycles:
            t_warm = run.t
        for j, q in enumerate(model.queues):
            run.visit(j, q.discipline, cycle)
            run.t += next(run.switchovers[j])
            run.events.append(Event(run.t, "switch_end", len(run.events), (j + 1) % n))
    t_end = run.t
    for j in range(n):
        run.admit(j)

    fields = []
    for j in range(n):
        f = dict.fromkeys(("hn", "ln", "cn", "gn", "vn"), 0)
        f.update(dict.fromkeys(("hs", "hs2", "ha", "ls", "ls2", "la", "cs", "cs2",
                                "gs", "gs2", "vs", "vs2", "sh", "sl", "shl"), 0.0))
        f["nh"], f["nl"] = run.upcoming[j, "H"], run.upcoming[j, "L"]
        fields.append(f)

    def add(f, p, x):
        f[p + "n"] += 1
        f[p + "s"] += x
        f[p + "s2"] += x * x

    busy = 0.0
    for j, cls, arrival, start, dur, out in run.served:
        p = cls.lower()
        if arrival >= t_warm:
            add(fields[j], p, start - arrival)
        if out > t_warm:
            fields[j][p + "a"] += out - max(arrival, t_warm)
        if start >= t_warm:
            busy += dur
    for (j, cls), waiting in run.waiting.items():
        for arrival in waiting:
            fields[j][cls.lower() + "a"] += t_end - max(arrival, t_warm)

    for j, f in enumerate(fields):
        visits = [v for v in run.visits if v[0] == j]
        begins = [b for _, _, b, _, _, _ in visits] + ([t_end] if j == 0 else [])
        for b1, b2 in zip(begins, begins[1:]):
            if b1 >= t_warm:
                add(f, "c", b2 - b1)
        for (_, _, _, e1, _, _), (_, _, b2, _, _, _) in zip(visits, visits[1:]):
            if e1 >= t_warm:
                add(f, "g", b2 - e1)
        for _, cycle, begin, end, x_h, x_l in visits:
            if cycle >= warmup_cycles:
                add(f, "v", end - begin)
                f["sh"] += x_h
                f["sl"] += x_l
                f["shl"] += x_h * x_l
        f["pb"], f["pe"] = visits[-1][2:4]
    return _RepResult(fields, busy, t_warm, t_end, run.events)
