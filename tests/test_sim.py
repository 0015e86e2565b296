"""Simulator semantics, determinism, and agreement with the analytic engine."""

import dataclasses
import hashlib
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from zoo import (drawn_golden_models, example1, example2, huge_switchover, random_model,
                 single_vacation_queue, time_scaled_probe, zero_time_tail)
from priopoll import (Analyzer, Deterministic, EXHAUSTIVE, Erlang, Exponential,
                      GATED, Hyperexponential, MIXED, OutOfRange, PollingModel,
                      QueueSpec, Uniform, replicate, run)


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
    ("erlang_mixed_exhaustive", lambda: _family_model(
        lambda mean: Erlang(3, mean), MIXED, EXHAUSTIVE)),
    ("hyperexponential_mixed_gated", lambda: _family_model(
        lambda mean: Hyperexponential((0.25, 0.75), (0.4 * mean, 1.2 * mean)),
        MIXED, GATED)),
    ("uniform_exhaustive_mixed", lambda: _family_model(
        lambda mean: Uniform(0.2 * mean, 1.8 * mean), EXHAUSTIVE, MIXED)),
    # N > 2, drawn
    *((label, lambda m=m: m) for label, m in drawn_golden_models().items()),
)


def _family_model(dist, d1, d2):
    """Two two-class queues (rho = 0.54) whose services and switch-overs all
    come from one family; ``dist(mean)`` builds its member of that mean.  The
    high class of a mixed or exhaustive queue is served both from before the
    gate and from arrivals during the visit."""
    return PollingModel(
        queues=(QueueSpec(0.2, 0.2, dist(1.0), dist(0.5), d1),
                QueueSpec(0.15, 0.1, dist(0.8), dist(1.2), d2)),
        switchovers=(dist(1.5), dist(0.7)))


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
                                        parallel=False)),
                # the warm-up boundary at the first visit, and a run that
                # measures one cycle, closed by the final queue-0 beginning
                ("run_warmup0", run(m, seed=3, n_cycles=60, warmup_cycles=0)),
                ("run_one_cycle", run(m, seed=3, n_cycles=61, warmup_cycles=60))):
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


TRACE_GOLDEN = GOLDEN.parent / "sim_trace_sha256.json"

# (label, model builder) pairs whose serve order tests/golden/sim_trace_sha256.json pins
_TRACED_MODELS = (
    ("example1_mixed", lambda: example1(MIXED)),
    ("example2_exhaustive_mixed", lambda: example2(EXHAUSTIVE, MIXED)),
    ("hyperexponential_mixed_gated", dict(_GOLDEN_MODELS)["hyperexponential_mixed_gated"]),
    # every visit is queue 0's, so each one closes a cycle
    ("single_queue_mixed", lambda: single_vacation_queue(MIXED)),
    *((label, dict(_GOLDEN_MODELS)[label]) for label in ("random_n3", "random_n5", "random_n12")),
)


def trace_digests():
    """Event count and SHA-256 of the event list's repr, per traced model."""
    out = {}
    for label, build in _TRACED_MODELS:
        _, events = run(build(), seed=5, n_cycles=400, warmup_cycles=40, trace=True)
        out[label] = {"events": len(events),
                      "sha256": hashlib.sha256(repr(events).encode()).hexdigest()}
    return out


def test_trace_matches_golden_digest():
    # every event's time, sequence number, class and arrival, in serve order
    assert trace_digests() == json.loads(TRACE_GOLDEN.read_text())


@pytest.mark.parametrize("disc", [GATED, MIXED, EXHAUSTIVE])
def test_visit_beginning_state_matches_trace(disc):
    # X_H and X_L at a visit beginning count the queue's customers that
    # arrived before it; the visit serves every one of them, so they are its
    # service_start events with an earlier arrival
    for m in (example1(disc), example2(disc, disc)):
        s, events = run(m, seed=4, n_cycles=300, warmup_cycles=0, trace=True)
        visits = [[] for _ in range(m.n)]
        for e in events:
            if e.kind == "visit_begin":
                t_vb, x = e.timestamp, {"H": 0, "L": 0}
                visits[e.queue].append(x)
            elif e.kind == "service_start" and e.arrival < t_vb:
                x[e.cls] += 1
        for i, xs in enumerate(visits):
            assert s.vb_high[i] == sum(x["H"] for x in xs) / len(xs), i
            assert s.vb_low[i] == sum(x["L"] for x in xs) / len(xs), i
            assert s.vb_cross[i] == sum(x["H"] * x["L"] for x in xs) / len(xs), i


@pytest.mark.parametrize("warmup", [0, 30])
@pytest.mark.parametrize("disc", [GATED, MIXED, EXHAUSTIVE])
def test_tallies_match_trace(disc, warmup):
    # the wait, cycle, intervisit and visit tallies, recomputed from the
    # trace: the window opens at queue 0's visit beginning number warmup; a
    # visit ends at its last service_end (at its beginning if it serves no
    # one); the run's last event closes queue 0's last cycle
    for m in (example1(disc), example2(disc, disc)):
        s, events = run(m, seed=4, n_cycles=300, warmup_cycles=warmup, trace=True)
        visits = [[] for _ in range(m.n)]  # per queue, [begin, end] per visit
        for e in events:
            if e.kind == "visit_begin":
                visits[e.queue].append([e.timestamp, e.timestamp])
            elif e.kind == "service_end":
                visits[e.queue][-1][1] = e.timestamp
        t_warm = visits[0][warmup][0]
        waits = {}
        for e in events:
            if e.kind == "service_start" and e.arrival >= t_warm:
                waits.setdefault((e.queue, e.cls), []).append(e.timestamp - e.arrival)
        assert sorted(waits) == sorted(s.wait_count)
        for key, w in waits.items():
            assert s.wait_count[key] == len(w), key
            assert s.wait_mean[key] == pytest.approx(sum(w) / len(w), rel=1e-12), key
        for i, vs in enumerate(visits):
            begins = [b for b, _ in vs]
            if i == 0:
                begins.append(events[-1].timestamp)
            periods = (
                (s.cycle_mean, [b2 - b1 for b1, b2 in zip(begins, begins[1:]) if b1 >= t_warm]),
                (s.intervisit_mean, [b2 - e1 for (_, e1), (b2, _) in zip(vs, vs[1:])
                                     if e1 >= t_warm]),
                (s.visit_mean, [e1 - b1 for b1, e1 in vs if b1 >= t_warm]))
            for got, xs in periods:
                assert got[i] == pytest.approx(sum(xs) / len(xs), rel=1e-12), i


def test_window_opens_at_an_empty_visits_beginning():
    # queues 1 and 2 are rarely reached and followed by zero switch-overs, so
    # their empty visits of cycle w - 1 begin at t_warm, queue 0's beginning
    # of cycle w: in cycle w their previous visit beginning is inside the
    # window, and the cycle from it is measured.  The digest pins the output.
    stats, events = run(zero_time_tail(), seed=3, n_cycles=40, warmup_cycles=10, trace=True)
    begins = [[e.timestamp for e in events if e.kind == "visit_begin" and e.queue == j]
              for j in range(3)]
    assert begins[1][9] == begins[2][9] == begins[0][10]
    assert hashlib.sha256(repr((stats, events)).encode()).hexdigest() == \
        "3fc724b08b06562cd65a025aee65e5f07da7feee750223094fe925b69ed62b44"


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
    dict(_GOLDEN_MODELS)["random_n12"],
], ids=["example1_gated", "example2_gated_gated", "single_class_gated",
        "example1_mixed", "example1_exhaustive", "example2_mixed_mixed",
        "example2_exhaustive_exhaustive", "single_high_mixed",
        "single_high_exhaustive", "random_n12"])
def test_trace_does_not_perturb_runs(build):
    m = build()
    assert run(m, seed=21, n_cycles=500, trace=True)[0] == run(m, seed=21, n_cycles=500)


def test_kernel_is_compiled_once_per_structure():
    # the cycle loop's source depends on which classes each visit clears and
    # on trace alone: a model with other rates and families, the same
    # disciplines, runs the kernel compiled for the first
    from priopoll.sim import _kernel
    run(example1(MIXED), seed=1, n_cycles=50)
    info = _kernel.cache_info()
    other = PollingModel(
        queues=(QueueSpec(0.1, 0.3, Erlang(2, 0.5), Uniform(0.5, 1.5), MIXED),
                QueueSpec(0.0, 0.3, None, Deterministic(1.0), GATED)),
        switchovers=(Hyperexponential((0.3, 0.7), (0.5, 2.0)), Deterministic(2.0)))
    run(other, seed=1, n_cycles=50)
    assert _kernel.cache_info().hits == info.hits + 1
    assert _kernel.cache_info().misses == info.misses


@pytest.mark.parametrize("trace", [False, True])
def test_kernel_source_holds_no_model_value(trace):
    # no float literal, and every integer is a queue index
    import ast
    from priopoll.sim import _render
    cleared = ((False, False), (True, False), (True, True)) * 4
    constants = [node.value for node in ast.walk(ast.parse(_render(cleared, trace)))
                 if isinstance(node, ast.Constant)]
    assert not [c for c in constants if isinstance(c, float)]
    assert {c for c in constants if isinstance(c, int)} <= set(range(len(cleared)))


@pytest.mark.parametrize("trace", [False, True])
def test_kernel_phases_skip_what_cannot_happen(trace):
    # the warm-up loop assigns no tally field (every one keeps its start value
    # until the window opens), the loop after the opening cycle never reads
    # t_warm, and only a visit that clears the high class serves highs after
    # each low
    import ast
    from priopoll.sim import _FIELDS, _render
    cleared = ((False, False), (True, False), (True, True)) * 4
    kernel = ast.parse(_render(cleared, trace)).body[0]
    warmup, steady = [node for node in kernel.body if isinstance(node, ast.For)]
    assert ast.unparse(warmup.iter) == "range(warmup_cycles)"
    assert ast.unparse(steady.iter) == "range(warmup_cycles + 1, n_cycles)"
    tallies = {f"{f}_{j}" for f in _FIELDS if f not in ("nh", "nl", "pb", "pe")
               for j in range(len(cleared))} | {"busy"}
    assigned = {name.id for node in ast.walk(warmup)
                if isinstance(node, (ast.Assign, ast.AugAssign))
                for target in getattr(node, "targets", [getattr(node, "target", None)])
                for name in ast.walk(target) if isinstance(name, ast.Name)}
    assert "nh_0" in assigned and not assigned & tallies
    assert "t_warm" not in {n.id for n in ast.walk(steady) if isinstance(n, ast.Name)}
    low_loops = [node for node in ast.walk(kernel) if isinstance(node, ast.While)
                 and ast.unparse(node.body[0]).startswith("al = ")]
    assert len(low_loops) == 3 * len(cleared)  # one per queue and phase
    for loop in low_loops:
        j = int(ast.unparse(loop.test).split()[0][len("nl_"):])
        inner = [node for node in ast.walk(loop) if isinstance(node, ast.While)][1:]
        assert len(inner) == cleared[j][0], ast.unparse(loop.test)


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
    # list(islice(stream, m)) returns the next m values of the stream next()
    # would give and draws the same blocks, only once the last is used up
    from priopoll.sim import _stream
    dist = Exponential(1.0)
    batched_dist, batched_calls = _counting(dist)
    single_dist, single_calls = _counting(dist)
    batched = _stream(batched_dist.sample_block, np.random.default_rng(5))
    single = _stream(single_dist.sample_block, np.random.default_rng(5))
    for i, m in enumerate(batches):
        if i % 2:
            got = list(itertools.islice(batched, m))
            assert len(got) == m
        else:
            got = [next(batched) for _ in range(m)]
        assert got == [next(single) for _ in range(m)], (i, m)
        assert batched_calls == single_calls, (i, m)
    assert next(batched) == next(single)


_FAMILIES = (Deterministic(1.5), Exponential(2.0), Erlang(3, 1.0),
             Hyperexponential((0.3, 0.7), (0.5, 2.0)), Uniform(0.5, 1.5))


@pytest.mark.parametrize("dist", _FAMILIES, ids=lambda d: type(d).__name__)
def test_stream_is_the_concatenation_of_whole_blocks(dist):
    # converting a block piece by piece yields the whole block's tolist(),
    # Hyperexponential's too, whose values depend on the block size; the
    # reads cross piece boundaries and two block boundaries
    from priopoll.sim import _BLOCK, _PIECE, _stream
    gen = np.random.default_rng(12)
    whole = [x for _ in range(3) for x in dist.sample_block(gen, _BLOCK).tolist()]
    stream = _stream(dist.sample_block, np.random.default_rng(12))
    got = [next(stream) for _ in range(_PIECE + 3)]
    got += itertools.islice(stream, _BLOCK)
    got += [next(stream) for _ in range(2 * _PIECE)]
    got += itertools.islice(stream, 2 * _BLOCK - len(got) + 1)
    assert len(got) == 2 * _BLOCK + 1
    assert got == whole[:len(got)]


def test_stream_converts_only_what_is_read():
    # after k values are read, at most k plus one piece have become floats
    from priopoll.sim import _BLOCK, _PIECE, _stream
    sizes = []

    class Recorded(np.ndarray):
        def tolist(self):
            sizes.append(len(self))
            return super().tolist()

    stream = _stream(lambda gen, n: gen.exponential(1.0, n).view(Recorded),
                     np.random.default_rng(4))
    k = 0
    for m in (0, 1, _PIECE - 2, 1, 1, 3 * _PIECE + 7, _BLOCK - 4 * _PIECE - 6, 1,
              _PIECE, 5):
        for _ in range(m):
            next(stream)
        k += m
        assert k <= sum(sizes) <= k + _PIECE, (k, sizes)
    assert set(sizes) == {_PIECE}


def _within(analytic, sim_mean, sim_ci, hw=3.0):
    assert sim_mean == pytest.approx(analytic, abs=hw * sim_ci), \
        f"analytic {analytic} outside {sim_mean} +- {hw}*{sim_ci}"


def test_agrees_with_analytic_example1():
    m = example1(MIXED)
    a = Analyzer(m)
    s = replicate(m, 20260808, n_reps=8, n_cycles=15000, warmup_cycles=1500,
                  parallel=True)
    _within(a.mean_wait(0, "H"), s.wait_mean[(0, "H")], s.wait_ci[(0, "H")])
    _within(a.mean_wait(0, "L"), s.wait_mean[(0, "L")], s.wait_ci[(0, "L")])
    _within(a.mean_wait(1, "L"), s.wait_mean[(1, "L")], s.wait_ci[(1, "L")])
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
    _within(a.mean_wait(0, "H"), s.wait_mean[(0, "H")], s.wait_ci[(0, "H")])
    _within(a.mean_wait(0, "L"), s.wait_mean[(0, "L")], s.wait_ci[(0, "L")])
    _within(a.mean_wait(1, "L"), s.wait_mean[(1, "L")], s.wait_ci[(1, "L")])
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


def test_random_models_agree_with_analytic():
    # every discipline and distribution family, rho up to 0.9; at this size
    # the worst draw lies about 2.4 half-widths from the analytic mean
    rng = np.random.default_rng(7)
    for k in range(30):
        m = random_model(rng, max_rho=0.9, extended_dists=True)
        a = Analyzer(m)
        s = replicate(m, 100 + k, n_reps=5, n_cycles=3000, parallel=False)
        for (i, cls), mean in s.wait_mean.items():
            _within(a.mean_wait(i, cls), mean, s.wait_ci[(i, cls)], hw=6.0)
        _within(a.derived.rho_total, s.busy_fraction, s.busy_ci, hw=6.0)


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
    # a run ends at its n_cycles-th cycle, which a non-integral count never
    # reaches: each is rejected before the first cycle, not left to hang
    for counts in ({"n_cycles": 200.5}, {"n_cycles": math.inf},
                   {"n_cycles": 200, "warmup_cycles": 20.5}):
        with pytest.raises(ValueError):
            run(example1(), seed=1, **counts)
        with pytest.raises(ValueError):
            replicate(example1(), 1, n_reps=2, parallel=True, **counts)
    with pytest.raises(ValueError):
        replicate(example1(), 1, n_reps=2.5, n_cycles=10)
    # a bool is an Integral, but True is no cycle or replication count
    for counts in ({"n_cycles": True}, {"n_cycles": 10, "warmup_cycles": False}):
        with pytest.raises(ValueError):
            run(example1(), seed=1, **counts)
        with pytest.raises(ValueError):
            replicate(example1(), 1, n_reps=2, **counts)
    with pytest.raises(ValueError):
        replicate(example1(), 1, n_reps=True, n_cycles=10)


def test_horizon_past_the_clock_is_a_typed_error():
    # an Exp(1e120) switch-over makes E(C) about 1e121: 200 cycles would hold
    # about 1e123 arrivals, and a clock near 1e123 cannot add a unit-scale
    # service, so the run would never end
    with pytest.raises(OutOfRange, match="clock"):
        run(huge_switchover(), seed=1, n_cycles=200)


@pytest.mark.parametrize("s", [1e-110, 1e90])
def test_clock_check_has_no_time_unit(s):
    # the check is relative: scaling every time by s leaves it passing, and
    # the scaled run draws the unscaled run's values times s
    scaled = run(time_scaled_probe(s), seed=1, n_cycles=500)
    unscaled = run(time_scaled_probe(1.0), seed=1, n_cycles=500)
    for key, mean in unscaled.wait_mean.items():
        assert scaled.wait_mean[key] / s == pytest.approx(mean, rel=1e-9)


def test_t975_never_below_the_true_quantile():
    stats = pytest.importorskip("scipy.stats")
    from priopoll.sim import _t975
    for df in range(1, 201):
        q = stats.t.ppf(0.975, df)
        assert q - 5e-4 <= _t975(df) <= 1.02 * q, df
