"""Simulator semantics, determinism, and agreement with the analytic engine."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from zoo import example1, example2, single_vacation_queue
from priopoll import (Analyzer, Deterministic, EXHAUSTIVE, Exponential, GATED,
                      MIXED, PollingModel, QueueSpec, replicate, run)


def test_bit_reproducible():
    m = example1()
    a = run(m, seed=9, n_cycles=2000, warmup_cycles=100)
    b = run(m, seed=9, n_cycles=2000, warmup_cycles=100)
    assert a == b


def test_replicate_parallel_matches_serial():
    m = example1()
    ser = replicate(m, 11, n_reps=3, n_cycles=1500, warmup_cycles=100, parallel=False)
    par = replicate(m, 11, n_reps=3, n_cycles=1500, warmup_cycles=100, parallel=True)
    assert ser == par


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "sim_stats.json"

# (label, model builder) pairs pinned by tests/golden/sim_stats.json
_GOLDEN_MODELS = (
    ("example1_gated", lambda: example1(GATED)),
    ("example1_exhaustive", lambda: example1(EXHAUSTIVE)),
    ("example1_mixed", lambda: example1(MIXED)),
    ("example2_gated_gated", lambda: example2(GATED, GATED)),
    ("example2_mixed_mixed", lambda: example2(MIXED, MIXED)),
    ("example2_exhaustive_exhaustive", lambda: example2(EXHAUSTIVE, EXHAUSTIVE)),
    ("single_low_mixed", lambda: single_vacation_queue(MIXED, lam_h=0.0)),
    ("single_high_mixed", lambda: single_vacation_queue(MIXED, lam_l=0.0)),
    ("single_high_exhaustive", lambda: single_vacation_queue(EXHAUSTIVE, lam_l=0.0)),
    ("example2_mixed_exhaustive", lambda: example2(MIXED, EXHAUSTIVE)),
)


def _plain(value):
    """JSON-ready form of a SimStats field: dict keys joined, NaN kept."""
    if isinstance(value, dict):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): v
                for k, v in value.items()}
    return value


def golden_sim_stats():
    """Every SimStats field of a run and a replicate call on each golden model."""
    out = {}
    for label, build in _GOLDEN_MODELS:
        m = build()
        for call, stats in (
                ("run", run(m, seed=3, n_cycles=600)),
                ("replicate", replicate(m, 7, n_reps=3, n_cycles=800,
                                        parallel=False))):
            out[f"{label}/{call}"] = {f.name: _plain(getattr(stats, f.name))
                                      for f in dataclasses.fields(stats)}
    return out


def _nan_free(value):
    if isinstance(value, dict):
        return {k: _nan_free(v) for k, v in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def test_sim_stats_match_golden():
    # exact, field by field: any change in draw order or arithmetic shows here
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(golden_sim_stats()))
    assert sorted(got) == sorted(want)
    for case in want:
        assert _nan_free(got[case]) == _nan_free(want[case]), case


def test_different_seeds_differ():
    m = example1()
    a = run(m, seed=1, n_cycles=1000, warmup_cycles=0)
    b = run(m, seed=2, n_cycles=1000, warmup_cycles=0)
    assert a.wait_mean[(0, "L")] != b.wait_mean[(0, "L")]


def test_empty_system_cycles_are_switchover_sums():
    # arrival rate so small that no customer shows up in the horizon
    m = PollingModel(
        queues=(QueueSpec(0.0, 1e-12, None, Deterministic(1.0)),),
        switchovers=(Deterministic(3.5),),
    )
    s = run(m, seed=3, n_cycles=50, warmup_cycles=5)
    assert s.cycle_mean[0] == pytest.approx(3.5, abs=1e-12)
    assert s.cycle_m2[0] == pytest.approx(3.5**2, abs=1e-9)
    assert s.wait_count[(0, "L")] == 0


@pytest.mark.parametrize("disc", [GATED, EXHAUSTIVE, MIXED])
def test_trace_serve_order_invariants(disc):
    # checked from the event trace alone: a low never starts while a high of
    # its queue that arrived earlier waits (mixed, exhaustive) or, under
    # gated service, while a high that passed the same gate waits; mixed
    # lows never pass the gate.  test_visit_reads_streams_per_discipline
    # checks which streams each discipline reads during a visit.
    for m in (example1(disc), example2(disc, disc)):
        stats, events = run(m, seed=5, n_cycles=400, warmup_cycles=0, trace=True)
        assert events, "trace must be populated"
        times = [e.timestamp for e in events]
        assert all(a <= b for a, b in zip(times, times[1:]))
        seqs = [e.sequence for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        kinds = {e.kind for e in events}
        assert {"visit_begin", "service_start", "service_end"} <= kinds
        starts = [e for e in events if e.kind == "service_start"]
        assert {e.cls for e in starts} == {"H", "L"}

        # walking backwards: the earliest arrival among highs of each queue
        # that start later than the current event
        later_high = [math.inf] * m.n
        for e in reversed(starts):
            if e.cls == "H":
                later_high[e.queue] = min(later_high[e.queue], e.arrival)
            elif disc != GATED:
                assert not later_high[e.queue] < e.timestamp, \
                    "low service started with an earlier high waiting"

        begin = math.nan
        low_served = False
        for e in events:
            if e.kind == "visit_begin":
                begin = e.timestamp
                low_served = False
            elif e.kind == "service_start":
                if e.cls == "L":
                    low_served = True
                    if disc == MIXED:
                        assert e.arrival <= begin, "served a low from behind the gate"
                elif e.arrival < begin:
                    assert not low_served, "a gated high started after a low"


@pytest.mark.parametrize("disc", [GATED, MIXED, EXHAUSTIVE])
def test_visit_reads_streams_per_discipline(disc):
    # deterministic two-class single queue: a customer arriving during its own
    # visit is served in it only if the discipline reads its stream during
    # the visit (gated: neither, mixed: high, exhaustive: both)
    m = PollingModel(
        queues=(QueueSpec(0.2, 0.3, Deterministic(1.0), Deterministic(1.0), disc),),
        switchovers=(Deterministic(2.0),),
    )
    stats, events = run(m, seed=13, n_cycles=300, warmup_cycles=10, trace=True)
    read_during = {"H": disc != GATED, "L": disc == EXHAUSTIVE}
    served_during = {"H": 0, "L": 0}
    visits = []  # [begin, end of the last service] per visit, in order
    deferred = 0
    for e in events:
        if e.kind == "visit_begin":
            visits.append([e.timestamp, e.timestamp])
        elif e.kind == "service_end":
            visits[-1][1] = e.timestamp
        elif e.kind == "service_start":
            if e.arrival > visits[-1][0]:
                assert read_during[e.cls], "served from behind the gate"
                served_during[e.cls] += 1
            # the previous gate closed at visits[-2][0]: nothing older is left
            assert len(visits) == 1 or e.arrival >= visits[-2][0]
            deferred += any(b < e.arrival < end for b, end in visits[:-1])
    for cls, reads in read_during.items():
        assert (served_during[cls] > 0) == reads, cls
    # whatever a visit leaves in a stream waits for the next visit
    assert (deferred > 0) == (disc != EXHAUSTIVE)


@pytest.mark.parametrize("build", [
    lambda: example1(GATED),
    lambda: example2(GATED, GATED),
    lambda: single_vacation_queue(GATED, lam_h=0.0),
    lambda: example1(MIXED),
    lambda: example1(EXHAUSTIVE),
    lambda: example2(MIXED, MIXED),
    lambda: example2(EXHAUSTIVE, EXHAUSTIVE),
    lambda: single_vacation_queue(MIXED, lam_l=0.0),
    lambda: single_vacation_queue(EXHAUSTIVE, lam_l=0.0),
], ids=["example1_gated", "example2_gated_gated", "single_class_gated",
        "example1_mixed", "example1_exhaustive", "example2_mixed_mixed",
        "example2_exhaustive_exhaustive", "single_high_mixed",
        "single_high_exhaustive"])
def test_trace_does_not_perturb_runs(build):
    m = build()
    assert run(m, seed=21, n_cycles=500, trace=True)[0] == run(m, seed=21, n_cycles=500)


def test_arrivals_are_the_running_sum_of_gap_blocks():
    # the iterator's k-th value is the sum of the first k + 1 gaps, added one
    # at a time; three blocks of 8192 gaps read across two block boundaries
    from priopoll.sim import _arrivals
    scale = 2.5
    gaps = np.random.default_rng(17)
    it = _arrivals(np.random.default_rng(17), scale)
    t = 0.0
    for _ in range(3):
        for gap in gaps.exponential(scale, 8192).tolist():
            t += gap
            assert next(it) == t


def _counting(dist):
    """``dist`` with its ``sample_block`` calls counted in ``calls``."""
    calls = []

    class Counted:
        def sample_block(self, gen, size):
            calls.append(size)
            return dist.sample_block(gen, size)

    return Counted(), calls


@pytest.mark.parametrize("batches", [
    [5, 100, 1],                # within the first block
    [8000, 500, 3],             # a batch crossing the block boundary
    [7, 8185, 2],               # a batch ending exactly on the boundary
    [11, 20000, 1, 9000],       # batches longer than a block
], ids=["within", "crossing", "to_boundary", "longer_than_block"])
def test_sampler_batch_matches_single_draws(batches):
    # draw(m) returns the next m values of the stream draw() would give and
    # refills the buffer from the same blocks, only once it is used up
    from priopoll.sim import _sampler
    dist = Exponential(1.0)
    batched_dist, batched_calls = _counting(dist)
    single_dist, single_calls = _counting(dist)
    batched = _sampler(np.random.default_rng(5), batched_dist)
    single = _sampler(np.random.default_rng(5), single_dist)
    for i, m in enumerate(batches):
        if i % 2:
            got = batched(m)
            assert isinstance(got, list) and len(got) == m
        else:
            got = [batched() for _ in range(m)]
        assert got == [single() for _ in range(m)], (i, m)
        assert batched_calls == single_calls, (i, m)
    assert batched() == single()


def _within(analytic, sim_mean, sim_ci, hw=3.0):
    assert sim_mean == pytest.approx(analytic, abs=hw * sim_ci), \
        f"analytic {analytic} outside {sim_mean} +- {hw}*{sim_ci}"


def test_agrees_with_analytic_example1():
    m = example1(MIXED)
    a = Analyzer(m)
    s = replicate(m, 20260808, n_reps=8, n_cycles=15000, warmup_cycles=1500,
                  parallel=True)
    _within(a.mean_wait_high(0), s.wait_mean[(0, "H")], s.wait_ci[(0, "H")])
    _within(a.mean_wait_low(0), s.wait_mean[(0, "L")], s.wait_ci[(0, "L")])
    _within(a.mean_wait_low(1), s.wait_mean[(1, "L")], s.wait_ci[(1, "L")])
    _within(a.derived.mean_cycle, s.cycle_mean[0], s.cycle_ci[0])
    _within(a.derived.mean_intervisit[0], s.intervisit_mean[0], s.intervisit_ci[0])
    _within(a.derived.mean_visit[0], s.visit_mean[0], s.visit_ci[0])
    _within(a.derived.rho_total, s.busy_fraction, s.busy_ci)
    _within(a.mean_qlen(0, "H"), s.qlen_mean[(0, "H")], s.qlen_ci[(0, "H")])
    _within(a.mean_qlen(0, "L"), s.qlen_mean[(0, "L")], s.qlen_ci[(0, "L")])
    _within(a.mean_qlen(1, "L"), s.qlen_mean[(1, "L")], s.qlen_ci[(1, "L")])
    # second moments and the polling-state cross moment, looser relative check
    assert s.cycle_m2[0] == pytest.approx(a.cycle_m2(0), rel=0.05)
    assert s.intervisit_m2[0] == pytest.approx(a.intervisit_m2(0), rel=0.05)
    assert s.visit_m2[0] == pytest.approx(a.visit_m2(0), rel=0.05)
    assert s.vb_cross[0] == pytest.approx(a.cross_moment(0), rel=0.05)
    # mean polling state at visit beginnings: arrivals since the class's gate
    # last closed (mixed: highs since the previous visit ended, lows since it began)
    q = m.queues[0]
    assert s.vb_high[0] == pytest.approx(
        q.lambda_high * a.derived.mean_intervisit[0], rel=0.05)
    assert s.vb_low[0] == pytest.approx(q.lambda_low * a.derived.mean_cycle, rel=0.05)
    assert s.wait_var[(0, "L")] == pytest.approx(a.var_wait(0, "L"), rel=0.08)


@pytest.mark.parametrize("disc", [GATED, EXHAUSTIVE])
def test_agrees_with_analytic_example1_variants(disc):
    m = example1(disc)
    a = Analyzer(m)
    s = replicate(m, 4242, n_reps=6, n_cycles=12000, warmup_cycles=1200,
                  parallel=True)
    _within(a.mean_wait_high(0), s.wait_mean[(0, "H")], s.wait_ci[(0, "H")])
    _within(a.mean_wait_low(0), s.wait_mean[(0, "L")], s.wait_ci[(0, "L")])
    _within(a.mean_wait_low(1), s.wait_mean[(1, "L")], s.wait_ci[(1, "L")])
    _within(a.derived.rho_total, s.busy_fraction, s.busy_ci)
    # gated: arrivals over a cycle; exhaustive: over an intervisit period
    q = m.queues[0]
    period = a.derived.mean_cycle if disc == GATED else a.derived.mean_intervisit[0]
    assert s.vb_high[0] == pytest.approx(q.lambda_high * period, rel=0.05)
    assert s.vb_low[0] == pytest.approx(q.lambda_low * period, rel=0.05)


def test_deterministic_switchover_gated_covers_published_value():
    # gated variant with fixed length-10 switchovers: E(W_2) published 63.251
    m = example1(GATED, det_switchover=10.0)
    s = replicate(m, 977, n_reps=6, n_cycles=8000, warmup_cycles=800,
                  parallel=True)
    assert abs(s.wait_mean[(1, "L")] - 63.251) <= 3.0 * s.wait_ci[(1, "L")]
    assert abs(s.wait_mean[(0, "H")] - 63.187) <= 3.0 * s.wait_ci[(0, "H")]


def test_agrees_with_analytic_example2_short():
    m = example2(MIXED, MIXED)
    a = Analyzer(m)
    s = replicate(m, 5150, n_reps=4, n_cycles=4000, warmup_cycles=400,
                  parallel=True)
    for (i, cls), mean in s.wait_mean.items():
        _within(a.mean_wait(i, cls), mean, s.wait_ci[(i, cls)], hw=3.5)
    _within(a.derived.rho_total, s.busy_fraction, s.busy_ci, hw=3.5)


def test_warmup_excludes_early_customers():
    m = example1()
    full = run(m, seed=6, n_cycles=3000, warmup_cycles=0)
    trimmed = run(m, seed=6, n_cycles=3000, warmup_cycles=1500)
    assert trimmed.wait_count[(0, "L")] < full.wait_count[(0, "L")]
    assert trimmed.horizon < full.horizon


def test_default_warmup_is_ten_percent():
    m = example1()
    s = run(m, seed=8, n_cycles=1000)
    assert s.warmup_cycles == 100


def test_csv_shape():
    m = example1()
    s = run(m, seed=3, n_cycles=1000, warmup_cycles=100)
    csv = s.to_csv(m)
    lines = csv.strip().splitlines()
    assert lines[0] == ("queue,class,discipline,mean_wait,var_wait,mean_qlen,"
                        "ci_halfwidth,n_samples")
    assert len(lines) == 5  # 3 class rows + system row
    assert csv == s.to_csv(m)


def test_invalid_cycle_arguments():
    with pytest.raises(ValueError):
        run(example1(), seed=1, n_cycles=10, warmup_cycles=10)
    with pytest.raises(ValueError):
        replicate(example1(), 1, n_reps=0, n_cycles=10)


def test_t975_never_below_the_true_quantile():
    stats = pytest.importorskip("scipy.stats")
    from priopoll.sim import _t975
    for df in range(1, 201):
        q = stats.t.ppf(0.975, df)
        assert q - 5e-4 <= _t975(df) <= 1.02 * q, df
