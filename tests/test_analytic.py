"""Means, variances, dual derivations, reductions, Little's law, PCL."""

import dataclasses
import itertools
import json
import math
import operator
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from zoo import (drawn_golden_models, drawn_models, example1, example2, heavy_traffic,
                 huge_switchover, published_models, random_model, single_vacation_queue,
                 swamped_queue, time_scaled, time_scaled_probe)
from priopoll import (Analyzer, Deterministic, EXHAUSTIVE, Erlang, Exponential, GATED, MIXED,
                      OutOfRange, PollingModel, QueueSpec, UnsupportedEvaluation, pcl_check,
                      vacation_mean_wait_low, validate)
from priopoll.analytic import _Series, _SeriesReading


@pytest.fixture(scope="module")
def ex1_mixed():
    return Analyzer(example1(MIXED))


REPORTS = pathlib.Path(__file__).resolve().parent / "golden" / "reports.json"


def golden_reports():
    """Every ``PerfReport`` field, variances included, of the published
    models and the drawn golden ones, by label."""
    models = {**published_models(), **drawn_golden_models()}
    return {label: dataclasses.asdict(Analyzer(m).report()) for label, m in models.items()}


def test_reports_match_golden():
    # exact, float by float: the analyze CSVs keep 6 digits
    want = json.loads(REPORTS.read_text())
    got = json.loads(json.dumps(golden_reports()))
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label] == want[label], label


def test_mean_waits_match_published_mixed(ex1_mixed):
    assert ex1_mixed.mean_wait(0, "H") == pytest.approx(2.338, abs=5e-4)
    assert ex1_mixed.mean_wait(0, "L") == pytest.approx(14.575, abs=5e-4)
    assert ex1_mixed.mean_wait(1, "L") == pytest.approx(10.513, abs=5e-4)


def test_variances_match_published_mixed(ex1_mixed):
    assert ex1_mixed.var_wait(0, "H") == pytest.approx(6.496, rel=1e-3)
    assert ex1_mixed.var_wait(0, "L") == pytest.approx(118.217, rel=1e-3)
    assert ex1_mixed.var_wait(1, "L") == pytest.approx(76.371, rel=1e-3)


def test_mean_waits_deterministic_switchovers():
    a = Analyzer(example1(MIXED, det_switchover=10.0))
    assert a.mean_wait(0, "H") == pytest.approx(11.167, abs=1e-3)
    assert a.mean_wait(0, "L") == pytest.approx(90.417, abs=1e-3)
    assert a.mean_wait(1, "L") == pytest.approx(64.000, abs=1e-3)
    g = Analyzer(example1(GATED, det_switchover=10.0))
    assert g.mean_wait(0, "L") == pytest.approx(94.781, abs=1e-3)


def test_two_queue_high_load_spot_values():
    a = Analyzer(example2(GATED, EXHAUSTIVE))
    assert a.mean_wait(1, "H") == pytest.approx(17.83, abs=5e-3)
    b = Analyzer(example2(EXHAUSTIVE, MIXED))
    assert b.mean_wait(0, "L") == pytest.approx(102.18, abs=5e-3)
    c = Analyzer(example2(MIXED, MIXED))
    assert c.mean_wait(1, "H") == pytest.approx(17.10, abs=5e-3)
    assert c.mean_wait(1, "L") == pytest.approx(210.82, abs=5e-3)


def test_dual_derivation_agrees_on_benchmark(ex1_mixed):
    value, alt = ex1_mixed.mean_wait(0, "L"), ex1_mixed.mean_wait_alt(0, "L")
    assert value == pytest.approx(alt, rel=1e-9)


_DISCS = (GATED, EXHAUSTIVE, MIXED)
PUBLISHED = {f"example1-{d}": example1(d) for d in _DISCS}
PUBLISHED.update({f"example2-{d1}-{d2}": example2(d1, d2)
                  for d1 in _DISCS for d2 in _DISCS})


@pytest.mark.parametrize("name", PUBLISHED)
def test_mean_route_matches_transform_derivative(name):
    # series means vs direct differentiation of the waiting transforms, for
    # every class of every published model
    a = Analyzer(PUBLISHED[name])
    for i, q in enumerate(a.model.queues):
        for _, cls, _, _ in q.classes:
            assert a.mean_wait_alt(i, cls) == pytest.approx(a.mean_wait(i, cls), rel=1e-8)


def test_pcl_example1_all_disciplines():
    for disc in (GATED, EXHAUSTIVE, MIXED):
        lhs, rhs, res = pcl_check(example1(disc))
        assert res < 1e-6
    # closed-form right side on the mixed benchmark equals 8.4 exactly
    lhs, rhs, _ = pcl_check(example1(MIXED))
    assert rhs == pytest.approx(8.4, rel=1e-12)


def test_pcl_single_queue_vacation_reduction():
    # single exhaustive queue with vacations: no leftover work term
    lhs, rhs, res = pcl_check(single_vacation_queue(EXHAUSTIVE))
    assert res < 1e-6


def test_pcl_fault_injection():
    model = example1(MIXED)
    a = Analyzer(model)
    waits = {(i, cls): a.mean_wait(i, cls)
             for i, q in enumerate(model.queues)
             for cls, lam in (("H", q.lambda_high), ("L", q.lambda_low))
             if lam > 0}
    waits[(0, "L")] += 1.0
    _, _, res = pcl_check(model, waits=waits)
    assert res > 1e-3


def test_reduction_tiny_high_class_matches_gated():
    eps = 1e-8
    mixed = Analyzer(PollingModel(
        queues=(QueueSpec(eps, 0.4, Exponential(1.0), Exponential(1.0), MIXED),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
        switchovers=(Exponential(1.0), Exponential(1.0))))
    gated = Analyzer(PollingModel(
        queues=(QueueSpec(0.0, 0.4, None, Exponential(1.0), GATED),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
        switchovers=(Exponential(1.0), Exponential(1.0))))
    assert mixed.mean_wait(0, "L") == pytest.approx(
        gated.mean_wait(0, "L"), rel=1e-4)
    assert mixed.mean_wait(1, "L") == pytest.approx(
        gated.mean_wait(1, "L"), rel=1e-4)
    # with no high class at all, a mixed visit keeps the low class as a gated
    # one does, and one rule gives every float bit for bit
    no_high = Analyzer(PollingModel(
        queues=(QueueSpec(0.0, 0.4, None, Exponential(1.0), MIXED),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
        switchovers=(Exponential(1.0), Exponential(1.0))))
    assert ([(r.mean_wait, r.var_wait, r.mean_qlen) for r in no_high.report().classes]
            == [(r.mean_wait, r.var_wait, r.mean_qlen) for r in gated.report().classes])


def test_reduction_tiny_low_class_matches_exhaustive():
    eps = 1e-8
    mixed = Analyzer(PollingModel(
        queues=(QueueSpec(0.2, eps, Exponential(1.0), Exponential(1.0), MIXED),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
        switchovers=(Exponential(1.0), Exponential(1.0))))
    exh = Analyzer(PollingModel(
        queues=(QueueSpec(0.2, 0.0, Exponential(1.0), None, EXHAUSTIVE),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
        switchovers=(Exponential(1.0), Exponential(1.0))))
    assert mixed.mean_wait(0, "H") == pytest.approx(
        exh.mean_wait(0, "H"), rel=1e-4)
    assert mixed.mean_wait(1, "L") == pytest.approx(
        exh.mean_wait(1, "L"), rel=1e-4)


def test_littles_law_consistency(ex1_mixed):
    # E(N) = lam * E(sojourn) with completion-time service for the low class
    assert ex1_mixed.mean_qlen(0, "H") == pytest.approx(
        0.2 * (ex1_mixed.mean_wait(0, "H") + 1.0), rel=1e-12)
    assert ex1_mixed.mean_qlen(0, "L") == pytest.approx(
        0.4 * (ex1_mixed.mean_wait(0, "L") + 1.25), rel=1e-12)


@pytest.mark.parametrize("method", ["mean_wait", "var_wait", "wait_m2", "mean_qlen",
                                    "mean_wait_alt", "qlen_gf"])
@pytest.mark.parametrize("cls", ["h", "l", "", "HL"])
def test_class_outside_h_and_l_is_rejected(ex1_mixed, method, cls):
    z = (0.5,) if method == "qlen_gf" else ()
    with pytest.raises(ValueError, match="class must be"):
        getattr(ex1_mixed, method)(0, cls, *z)


def test_report_structure_and_invariants(ex1_mixed):
    rep = ex1_mixed.report()
    assert [(r.queue, r.cls) for r in rep.classes] == [(0, "H"), (0, "L"), (1, "L")]
    for r in rep.classes:
        assert r.mean_wait > 0 and r.var_wait > 0 and r.mean_qlen > 0
    assert rep.pcl_residual < 1e-6
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("queue,class,discipline")
    assert "system" in csv.splitlines()[-1]
    # deterministic serialization
    assert csv == ex1_mixed.report().to_csv()


def test_report_periods(ex1_mixed):
    p = rep = ex1_mixed.report().periods
    assert p[0].cycle_m1 == pytest.approx(10.0, rel=1e-12)
    assert p[0].intervisit_m1 == pytest.approx(4.0, rel=1e-12)
    assert p[0].visit_m1 == pytest.approx(6.0, rel=1e-12)
    assert p[0].cycle_m2 is not None and p[0].cross_moment is not None
    assert p[1].intervisit_m2 is None  # gated queue exposes no intervisit m2


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_models(max_n=5, max_load=0.95), st.integers(1, 4))
def test_rotating_the_queues_moves_each_report_number_with_its_queue(model, k):
    # renumbering the queues cyclically by k, with their switch-overs, moves
    # every ClassResult and QueuePeriods float with its queue and leaves the
    # pcl sides, sums over all queues, where they were.  Only the order of
    # the sweeps changes, and so the rounding, which 1/(1 - rho) amplifies
    # as in every number that grows with it.  Over 300 draws the worst
    # relative move was 5.3 x 2^-53/(1 - rho) for means, queue lengths,
    # period and cross moments and pcl sides (bound 16), and 24 x for the
    # variances (bound 64), which subtract E(W)^2 from E(W^2) and so lose
    # the digits the two share.  pcl_residual, a difference of the two
    # sides, is left out
    n, k = model.n, k % model.n
    scale = (1.0 - validate(model).rho_total) / 2.0 ** -53
    a = Analyzer(model).report()
    b = Analyzer(PollingModel(model.queues[k:] + model.queues[:k],
                              model.switchovers[k:] + model.switchovers[:k])).report()

    def moved(x, y, bound):
        assert (x is None) == (y is None)
        return x is None or abs(y - x) <= bound * abs(x) / scale

    rows = {(r.queue, r.cls): r for r in b.classes}
    assert len(rows) == len(a.classes)
    for r in a.classes:
        s = rows[((r.queue - k) % n, r.cls)]
        assert s.discipline == r.discipline
        assert moved(r.mean_wait, s.mean_wait, 16) and moved(r.mean_qlen, s.mean_qlen, 16)
        assert moved(r.var_wait, s.var_wait, 64), (r.queue, r.cls)
    for p in a.periods:
        s = b.periods[(p.queue - k) % n]
        for f in ("cycle_m1", "cycle_m2", "intervisit_m1", "intervisit_m2", "visit_m1",
                  "visit_m2", "cross_moment"):
            assert moved(getattr(p, f), getattr(s, f), 16), (p.queue, f)
    assert moved(a.pcl_lhs, b.pcl_lhs, 16) and moved(a.pcl_rhs, b.pcl_rhs, 16)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(drawn_models(max_n=5, max_load=0.95), st.integers(0, 4), st.floats(0.05, 0.95))
def test_splitting_a_class_leaves_the_queue_and_the_others_as_they_were(model, j, share):
    # a gated or exhaustive visit and the number present at queue j do not
    # depend on the order of service, so splitting queue j's one class into
    # a high and a low class with its service, at rates share and 1 - share
    # of its rate, keeps the rate-weighted mean wait at j, every queue's
    # period moments and every other queue's numbers.  A mixed visit
    # changes with the split and is left out.  The merged class carries
    # the drawn queue's load on one of its services.  As for the rotation,
    # only the rounding moves, amplified by 1/(1 - rho): over 1000 draws the
    # worst relative move was 6.4 x 2^-53/(1 - rho) for the weighted wait,
    # 5.5 x for period moments and pcl sides and 3.4 x for the other
    # queues' means and queue lengths (bound 16), and 25 x for their
    # variances (bound 64), which lose the digits E(W^2) and E(W)^2 share.
    # Queue j's class queue lengths are not compared: under exhaustive
    # service the low class's period is the completion time, which counts
    # the highs that overtake it
    j %= model.n
    q = model.queues[j]
    assume(q.discipline != MIXED)
    svc = q.service_high or q.service_low
    lam = sum(rate * d.mean for _, _, rate, d in q.classes) / svc.mean
    merged = model.replace_queue(j, lambda_high=lam, lambda_low=0.0,
                                 service_high=svc, service_low=None)
    split = model.replace_queue(j, lambda_high=share * lam, lambda_low=(1.0 - share) * lam,
                                service_high=svc, service_low=svc)
    scale = (1.0 - validate(merged).rho_total) / 2.0 ** -53
    a, b = Analyzer(merged).report(), Analyzer(split).report()

    def kept(x, y, bound):
        assert (x is None) == (y is None)
        return x is None or abs(y - x) <= bound * abs(x) / scale

    rows = {(r.queue, r.cls): r for r in b.classes}
    assert len(rows) == len(a.classes) + 1
    for r in a.classes:
        if r.queue == j:
            weighted = share * rows[(j, "H")].mean_wait + (1.0 - share) * rows[(j, "L")].mean_wait
            assert kept(r.mean_wait, weighted, 16)
            continue
        s = rows[(r.queue, r.cls)]
        assert kept(r.mean_wait, s.mean_wait, 16) and kept(r.mean_qlen, s.mean_qlen, 16)
        assert kept(r.var_wait, s.var_wait, 64), (r.queue, r.cls)
    for p, s in zip(a.periods, b.periods):
        for f in ("cycle_m1", "cycle_m2", "intervisit_m1", "intervisit_m2", "visit_m1",
                  "visit_m2", "cross_moment"):
            assert kept(getattr(p, f), getattr(s, f), 16), (p.queue, f)
    assert kept(a.pcl_lhs, b.pcl_lhs, 16) and kept(a.pcl_rhs, b.pcl_rhs, 16)


def test_report_mixed_queue_without_low_class():
    # no coordinate spans a cycle, but no reported number needs one: an
    # M/G/1 high class with deterministic vacations of length 10
    a = Analyzer(single_vacation_queue(MIXED, lam_l=0.0))
    rep = a.report()
    assert [(r.queue, r.cls) for r in rep.classes] == [(0, "H")]
    assert rep.wait(0, "H") == pytest.approx(0.3 * 2.0 / (2.0 * 0.7) + 10.0 / 2.0,
                                             rel=1e-12)
    assert rep.periods[0].cycle_m2 is None
    assert rep.periods[0].intervisit_m2 == pytest.approx(100.0, rel=1e-12)
    with pytest.raises(UnsupportedEvaluation):
        a.cycle_m2(0)
    # the absent low class has no row, no cross moment and no transform
    with pytest.raises(KeyError):
        rep.wait(0, "L")
    with pytest.raises(KeyError):
        rep.var(0, "L")
    with pytest.raises(UnsupportedEvaluation, match="both classes"):
        a.cross_moment(0)
    with pytest.raises(UnsupportedEvaluation, match="no low-priority class"):
        a.mean_wait_alt(0, "L")


def test_randomized_pcl_and_dual_derivation_small():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_model(rng)
        analyzer = Analyzer(model)
        res = analyzer.report(include_variances=False).pcl_residual
        assert res < 1e-6
        for i, q in enumerate(model.queues):
            if q.lambda_low > 0:
                value, alt = analyzer.mean_wait(i, "L"), analyzer.mean_wait_alt(i, "L")
                assert abs(value - alt) / value < 1e-6


def test_report_skips_the_dual_route(monkeypatch):
    # means, variances and period moments come from the exact moment solves:
    # a report neither differentiates a transform, nor evaluates the GF, nor
    # solves a busy-period fixed point
    from priopoll import BusyPeriod, GfEvaluator, analytic

    def refuse(*args, **kwargs):
        raise AssertionError("report evaluated a transform")

    monkeypatch.setattr(analytic, "lst_moment", refuse)
    monkeypatch.setattr(GfEvaluator, "log_value", refuse)
    monkeypatch.setattr(BusyPeriod, "lst_complement", refuse)
    for model in (example1(GATED), example1(MIXED), example2(EXHAUSTIVE, GATED),
                  example2(MIXED, EXHAUSTIVE)):
        Analyzer(model).report(include_variances=False)
        rep = Analyzer(model).report()
        assert all(r.var_wait > 0.0 for r in rep.classes)


def test_heavy_traffic_variances(monkeypatch):
    # at rho = 0.999 the variances need no GF evaluation, so no cycle count
    # grows as 1/(1 - rho)
    from priopoll import GfEvaluator

    def refuse(*args, **kwargs):
        raise AssertionError("report evaluated the GF")

    monkeypatch.setattr(GfEvaluator, "log_value", refuse)
    rep = Analyzer(heavy_traffic(0.999)).report()
    assert len(rep.classes) == 4
    for r in rep.classes:
        assert math.isfinite(r.var_wait) and r.var_wait > 0.0
    assert rep.pcl_residual < 1e-9


@pytest.mark.parametrize("disc", [EXHAUSTIVE, MIXED])
def test_wait_variance_vacation_closed_form(disc):
    # one high class served exhaustively between deterministic vacations of
    # length s: W = M/G/1 wait + an independent residual vacation, uniform on
    # (0, s), so E(W^2) = E(W_q^2) + s E(W_q) + s^2/3
    lam, s = 0.3, 10.0
    a = Analyzer(single_vacation_queue(disc, lam_h=lam, lam_l=0.0, s=s))
    wq = lam * 2.0 / (2.0 * (1.0 - lam))                 # Exp(1): b2 = 2, b3 = 6
    wq2 = 2.0 * wq * wq + lam * 6.0 / (3.0 * (1.0 - lam))
    assert a.wait_m2(0, "H") == pytest.approx(wq2 + s * wq + s * s / 3.0, rel=1e-13)
    assert a.var_wait(0, "H") == pytest.approx(
        wq2 + s * wq + s * s / 3.0 - (wq + s / 2.0) ** 2, rel=1e-12)


@pytest.mark.parametrize("disc", [GATED, MIXED])
def test_mean_wait_low_matches_the_vacation_closed_forms(disc):
    # the engine's waiting-time decomposition against priopoll.vacation's
    # closed forms (unit-mean services, vacations of length s), on 288
    # models from light load to 1 - rho = 1e-3.  Each side rounds rho and
    # 1 - rho its own way and the wait grows as 1/(1 - rho), so an ulp of
    # rho moves it by 2^-53/(1 - rho) relative; measured worst 4.9 (gated)
    # and 5.4 (mixed) times that, bound 8.  Both sides need lam_l > 0: the
    # engine has no low class without arrivals, the closed form its limit
    worst = 0.0
    for rho, share, s in itertools.product(
            (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.99, 0.999), (0.0, 0.2, 0.5, 0.7, 0.9, 0.99),
            (0.01, 0.3, 1.0, 10.0, 100.0, 1e4)):
        lam_h = rho * share
        lam_l = rho - lam_h
        got = Analyzer(single_vacation_queue(disc, lam_h, lam_l, s)).mean_wait(0, "L")
        want = vacation_mean_wait_low(lam_h, lam_l, s, disc)
        worst = max(worst, abs(got - want) / want * (1.0 - rho) / 2.0 ** -53)
    assert worst <= 8.0


def test_moment_past_the_float_range_is_a_typed_error():
    # the evaluator reads the Exp(1e120) switch-over's E(S^3) = 6e360
    with pytest.raises(OutOfRange, match="a service or switch-over"):
        Analyzer(huge_switchover())
    with pytest.raises(OutOfRange, match="a service or switch-over"):
        Analyzer(time_scaled_probe(1e120))
    # the third moment of queue 1's high busy period holds 3 lam E(B^2)^2,
    # E(B^2) = 2 s^2: at s = 2^300 and 1e90 the product fits, though E(B^2)^2
    # alone would not, and the probe answers with the s = 1 numbers scaled
    unit = [(r.mean_wait, r.var_wait) for r in Analyzer(time_scaled_probe(1.0)).report().classes]
    assert [(r.mean_wait, r.var_wait)
            for r in Analyzer(time_scaled_probe(2.0 ** 300)).report().classes] == \
        [(math.ldexp(w, 300), math.ldexp(v, 600)) for w, v in unit]
    near = Analyzer(time_scaled_probe(1e90)).report().classes
    assert [x for r in near for x in (r.mean_wait, r.var_wait)] == \
        pytest.approx([x for w, v in unit for x in (w * 1e90, v * 1e180)], rel=1e-14)
    # every moment of Deterministic(1e102) switch-overs fits, but the
    # variances square E(C^2) ~ 1e204 past the float range; at 1e100 they fit
    with pytest.raises(OutOfRange, match="waiting-time moment"):
        Analyzer(example1(det_switchover=1e102)).report()
    assert Analyzer(example1(det_switchover=1e100)).report().var(0, "H") == \
        pytest.approx(1.6667e200, rel=1e-4)


def test_power_of_two_time_unit_scales_exactly():
    # every time times 2^k and every rate over 2^k: every moment is a
    # product, so each class's mean and variance scale by 2^k and 2^2k bit
    # for bit and its queue length not at all.  Past about k = -300 the
    # order-3 moments underflow.
    rng = np.random.default_rng(11)
    models = [*published_models().values(),
              *(random_model(rng, extended_dists=True) for _ in range(40))]
    for model in models:
        unit = [(r.mean_wait, r.var_wait, r.mean_qlen) for r in Analyzer(model).report().classes]
        for k in (-250, -200, -60, -3, 1, 5, 60, 200, 250):
            scaled = Analyzer(time_scaled(model, math.ldexp(1.0, k))).report().classes
            assert [(r.mean_wait, r.var_wait, r.mean_qlen) for r in scaled] == \
                [(math.ldexp(w, k), math.ldexp(v, 2 * k), q) for w, v, q in unit], (k, model)


def test_huge_erlang_shape_reports_as_deterministic():
    # Erlang(10^200, m) has the moments of Deterministic(m), which theta^k
    # n(n+1)... with theta = m/n read as NaN, and the report reads only moments
    def with_family(model, family):
        def to(d):
            return None if d is None else family(d.mean)
        return PollingModel(
            tuple(QueueSpec(q.lambda_high, q.lambda_low, to(q.service_high),
                            to(q.service_low), q.discipline) for q in model.queues),
            tuple(map(to, model.switchovers)))

    for model in published_models().values():
        erlang = Analyzer(with_family(model, lambda m: Erlang(10**200, m))).report()
        assert repr(erlang) == repr(Analyzer(with_family(model, Deterministic)).report())


@pytest.mark.parametrize("s", [1e-110, 1e-200])
def test_underflowing_time_scale_is_a_typed_error(s):
    # at 1e-110 the third moments underflow and Var(W) reads -4.60 s^2, at
    # 1e-200 every mean reads -0.0
    with pytest.raises(OutOfRange, match="no positive mean and nonnegative variance"):
        Analyzer(time_scaled_probe(s)).report()


def test_infinite_queue_length_is_a_typed_error():
    analyzer = Analyzer(swamped_queue())
    assert math.isfinite(analyzer.mean_wait(0, "H"))
    with pytest.raises(OutOfRange, match="mean queue length"):
        analyzer.mean_qlen(0, "H")
    with pytest.raises(OutOfRange, match="cross moment"):
        analyzer.cross_moment(0)
    with pytest.raises(OutOfRange, match="mean queue length"):
        analyzer.report()


def test_pcl_check_with_given_waits_checks_the_moments():
    # the Exp(1e160) switch-over's E(S^2) = 2e320; the waits do not matter
    m = example1()
    model = PollingModel(m.queues, (Exponential(1e160), m.switchovers[1]))
    waits = {(0, "H"): 1.0, (0, "L"): 1.0, (1, "L"): 1.0}
    with pytest.raises(OutOfRange, match="a service or switch-over"):
        pcl_check(model, waits=waits)


@pytest.mark.parametrize("waits", [{(5, "Q"): 1.0}, {(1, "H"): 1.0}, {(0, "L"): math.nan},
                                   {(0, "H"): math.inf}],
                         ids=["no-such-class", "absent-class", "nan", "inf"])
def test_pcl_check_rejects_given_waits_of_no_class_or_not_finite(waits):
    # the key is named, not silently ignored or passed through as a residual
    key = next(iter(waits))
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        pcl_check(example1(), waits=waits)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_series_binary_operations_truncate_to_the_shorter_operand(op):
    long, short = _Series([1.0, 2.0, 3.0, 4.0]), _Series([2.0, 1.0])
    assert len(getattr(operator, op)(long, short)) == 2
    assert len(getattr(operator, op)(short, long)) == 2


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_series_float_acts_as_a_constant_series(op):
    fn = getattr(operator, op)
    x, c = _Series([2.0, -1.0, 0.5]), 4.0
    constant = _Series([c, 0.0, 0.0])
    assert fn(x, c) == fn(x, constant)
    assert fn(c, x) == fn(constant, x)


def test_series_division_inverts_multiplication():
    x, y = _Series([0.3, -1.7, 2.9, 0.4]), _Series([1.5, 0.2, -0.8, 3.1])
    assert (x * y) / y == pytest.approx(x, rel=1e-15, abs=1e-15)


def test_series_reading_composes_a_complement():
    # Exponential(m): 1 - E exp(-x X) = 1 - 1/(1 + m x), at x = w + a w^2
    m, a = 1.7, 0.6
    r = _SeriesReading(None, None, 4)
    got = r.complement(Exponential(m), r.omega + a * r.omega * r.omega)
    # y = m x: y - y^2 + y^3 up to w^3
    assert got == pytest.approx([0.0, m, m * a - m * m, m ** 3 - 2.0 * m * m * a],
                                rel=1e-15)
