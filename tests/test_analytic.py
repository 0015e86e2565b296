"""Means, variances, dual derivations, reductions, Little's law, PCL."""

import math
import operator

import numpy as np
import pytest

from zoo import (example1, example2, heavy_traffic, huge_switchover, random_model,
                 single_vacation_queue, time_scaled_probe)
from priopoll import (Analyzer, EXHAUSTIVE, Exponential, GATED, MIXED, OutOfRange,
                      PollingModel, QueueSpec, UnsupportedEvaluation, pcl_check)
from priopoll.analytic import _Series, _SeriesReading


@pytest.fixture(scope="module")
def ex1_mixed():
    return Analyzer(example1(MIXED))


def test_mean_waits_match_published_mixed(ex1_mixed):
    assert ex1_mixed.mean_wait_high(0) == pytest.approx(2.338, abs=5e-4)
    assert ex1_mixed.mean_wait_low(0) == pytest.approx(14.575, abs=5e-4)
    assert ex1_mixed.mean_wait_low(1) == pytest.approx(10.513, abs=5e-4)


def test_variances_match_published_mixed(ex1_mixed):
    assert ex1_mixed.var_wait(0, "H") == pytest.approx(6.496, rel=1e-3)
    assert ex1_mixed.var_wait(0, "L") == pytest.approx(118.217, rel=1e-3)
    assert ex1_mixed.var_wait(1, "L") == pytest.approx(76.371, rel=1e-3)


def test_mean_waits_deterministic_switchovers():
    a = Analyzer(example1(MIXED, det_switchover=10.0))
    assert a.mean_wait_high(0) == pytest.approx(11.167, abs=1e-3)
    assert a.mean_wait_low(0) == pytest.approx(90.417, abs=1e-3)
    assert a.mean_wait_low(1) == pytest.approx(64.000, abs=1e-3)
    g = Analyzer(example1(GATED, det_switchover=10.0))
    assert g.mean_wait_low(0) == pytest.approx(94.781, abs=1e-3)


def test_two_queue_high_load_spot_values():
    a = Analyzer(example2(GATED, EXHAUSTIVE))
    assert a.mean_wait_high(1) == pytest.approx(17.83, abs=5e-3)
    b = Analyzer(example2(EXHAUSTIVE, MIXED))
    assert b.mean_wait_low(0) == pytest.approx(102.18, abs=5e-3)
    c = Analyzer(example2(MIXED, MIXED))
    assert c.mean_wait_high(1) == pytest.approx(17.10, abs=5e-3)
    assert c.mean_wait_low(1) == pytest.approx(210.82, abs=5e-3)


def test_dual_derivation_agrees_on_benchmark(ex1_mixed):
    value, alt = ex1_mixed.mean_wait_low(0), ex1_mixed.mean_wait_low_alt(0)
    assert value == pytest.approx(alt, rel=1e-9)


_DISCS = (GATED, EXHAUSTIVE, MIXED)
PUBLISHED = {f"example1-{d}": example1(d) for d in _DISCS}
PUBLISHED.update({f"example2-{d1}-{d2}": example2(d1, d2)
                  for d1 in _DISCS for d2 in _DISCS})


@pytest.mark.parametrize("name", PUBLISHED)
def test_mean_route_matches_transform_derivative(name):
    # series means vs direct differentiation of the waiting transforms, for
    # every class of every published model
    from priopoll import lst_moment
    a = Analyzer(PUBLISHED[name])
    for i, qt in enumerate(a.queues):
        if qt.lam_h > 0.0:
            got = lst_moment(qt.wait_high_handle(), 1).value
            assert got == pytest.approx(a.mean_wait_high(i), rel=1e-8)
        if qt.lam_l > 0.0:
            got = lst_moment(qt.wait_low_handle(), 1).value
            assert got == pytest.approx(a.mean_wait_low(i), rel=1e-8)


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
    assert mixed.mean_wait_low(0) == pytest.approx(
        gated.mean_wait_low(0), rel=1e-4)
    assert mixed.mean_wait_low(1) == pytest.approx(
        gated.mean_wait_low(1), rel=1e-4)


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
    assert mixed.mean_wait_high(0) == pytest.approx(
        exh.mean_wait_high(0), rel=1e-4)
    assert mixed.mean_wait_low(1) == pytest.approx(
        exh.mean_wait_low(1), rel=1e-4)


def test_littles_law_consistency(ex1_mixed):
    # E(N) = lam * E(sojourn) with completion-time service for the low class
    assert ex1_mixed.mean_qlen(0, "H") == pytest.approx(
        0.2 * (ex1_mixed.mean_wait_high(0) + 1.0), rel=1e-12)
    assert ex1_mixed.mean_qlen(0, "L") == pytest.approx(
        0.4 * (ex1_mixed.mean_wait_low(0) + 1.25), rel=1e-12)


@pytest.mark.parametrize("method", ["mean_wait", "var_wait", "wait_m2", "mean_qlen"])
@pytest.mark.parametrize("cls", ["h", "l", "", "HL"])
def test_class_outside_h_and_l_is_rejected(ex1_mixed, method, cls):
    with pytest.raises(ValueError, match="class must be"):
        getattr(ex1_mixed, method)(0, cls)


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
        a.mean_wait_low_alt(0)


def test_randomized_pcl_and_dual_derivation_small():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_model(rng)
        analyzer = Analyzer(model)
        res = analyzer.report(include_variances=False).pcl_residual
        assert res < 1e-6
        for i, q in enumerate(model.queues):
            if q.lambda_low > 0:
                value, alt = analyzer.mean_wait_low(i), analyzer.mean_wait_low_alt(i)
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


def test_moment_past_the_float_range_is_a_typed_error():
    # the evaluator reads the Exp(1e120) switch-over's E(S^3) = 6e360
    with pytest.raises(OutOfRange):
        Analyzer(huge_switchover())
    # the scaled probe's means fit, but its variances need the third moment
    # of queue 1's high busy period, which squares the service's E(B^2) = 2e180
    analyzer = Analyzer(time_scaled_probe(1e90))
    assert math.isfinite(analyzer.report(include_variances=False).wait(0, "L"))
    with pytest.raises(OutOfRange):
        analyzer.report()
    # every moment of Deterministic(1e102) switch-overs fits, but the
    # variances square E(C^2) ~ 1e204 past the float range; at 1e100 they fit
    with pytest.raises(OutOfRange, match="waiting-time moment"):
        Analyzer(example1(det_switchover=1e102)).report()
    assert Analyzer(example1(det_switchover=1e100)).report().var(0, "H") == \
        pytest.approx(1.6667e200, rel=1e-4)


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
