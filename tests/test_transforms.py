"""Period and waiting-time transforms: identities, axioms, domain errors."""

import json
import math
import pathlib

import numpy as np
import pytest

from zoo import example1, published_models, random_model, single_vacation_queue
from priopoll import (Analyzer, DISCIPLINES, EXHAUSTIVE, GATED, MIXED,
                      TransformHandle, UnsupportedEvaluation, lst_moment)


def _published_and_random_models(extended_dists=False):
    cases = [pytest.param(model, id=label) for label, model in published_models().items()]
    for disc in DISCIPLINES:
        cases.append(pytest.param(single_vacation_queue(disc), id=f"single-{disc}"))
        cases.append(pytest.param(single_vacation_queue(disc, lam_h=0.0),
                                  id=f"single-{disc}-no_high"))
        cases.append(pytest.param(single_vacation_queue(disc, lam_l=0.0),
                                  id=f"single-{disc}-no_low"))
    rng = np.random.default_rng(2024)
    cases.extend(pytest.param(random_model(rng, extended_dists=extended_dists),
                              id=f"random-{k}") for k in range(20))
    return cases


@pytest.fixture(scope="module")
def ex1():
    return Analyzer(example1())


def test_transforms_equal_one_at_zero(ex1):
    assert ex1.cycle_time_lst(0, 0.0) == 1.0
    assert ex1.intervisit_lst(0, 0.0) == 1.0
    assert ex1.visit_time_lst(0, 0.0) == 1.0
    assert ex1.waiting_lst_high(0, 0.0) == 1.0
    assert ex1.waiting_lst_low(0, 0.0) == 1.0


def test_cycle_mean_is_ten(ex1):
    est = lst_moment(ex1.queues[0].cycle_handle(), 1)
    assert est.value == pytest.approx(10.0, rel=1e-8)


def test_cycle_mean_same_for_all_queues(ex1):
    # E(C_i) is queue independent even though higher moments are not
    m0 = lst_moment(ex1.queues[0].cycle_handle(), 1).value
    m1 = lst_moment(ex1.queues[1].cycle_handle(), 1).value
    assert m0 == pytest.approx(m1, rel=1e-8)
    assert ex1.cycle_m2(0) != pytest.approx(ex1.cycle_m2(1), rel=1e-3)


def test_intervisit_mean_identity(ex1):
    # E(I_1) = (1 - rho_1) E(C) = 4
    est = lst_moment(ex1.queues[0].intervisit_handle(), 1)
    assert est.value == pytest.approx(4.0, rel=1e-8)


def test_visit_mean_identity(ex1):
    # E(V_i) = rho_i E(C): 6 and 2 on the two-queue benchmark
    assert lst_moment(ex1.queues[0].visit_handle(), 1).value == pytest.approx(6.0, rel=1e-8)
    assert lst_moment(ex1.queues[1].visit_handle(), 1).value == pytest.approx(2.0, rel=1e-8)


def test_completion_time_mean(ex1):
    from priopoll import TransformHandle
    qt = ex1.queues[0]
    est = lst_moment(TransformHandle(qt.completion_complement, qt.h0), 1)
    assert est.value == pytest.approx(1.25, rel=1e-9)  # E(B_L)/(1-rho_H)


def test_unsupported_domains(ex1):
    with pytest.raises(UnsupportedEvaluation):
        ex1.cycle_time_lst(0, 0.5)          # above lambda_low
    with pytest.raises(UnsupportedEvaluation):
        ex1.intervisit_lst(0, 0.25)         # above lambda_high
    with pytest.raises(UnsupportedEvaluation):
        ex1.intervisit_lst(1, 0.01)         # gated queue: no intervisit readout
    with pytest.raises(UnsupportedEvaluation):
        ex1.waiting_lst_high(1, 0.01)       # no high class in queue 2
    with pytest.raises(UnsupportedEvaluation):
        # no low class, although the model gives its service
        Analyzer(single_vacation_queue(MIXED, lam_l=0.0)).completion_time_lst(0, 0.01)
    a_exh = Analyzer(example1(EXHAUSTIVE))
    with pytest.raises(UnsupportedEvaluation):
        a_exh.cycle_time_lst(0, 0.01)       # exhaustive queue: no cycle readout
    no_low = Analyzer(single_vacation_queue(MIXED, lam_l=0.0))
    with pytest.raises(UnsupportedEvaluation):
        no_low.waiting_lst_low(0, 0.01)
    with pytest.raises(UnsupportedEvaluation):
        no_low.qlen_gf_low(0, 0.5)
    with pytest.raises(UnsupportedEvaluation):
        ex1.qlen_gf_high(1, 0.5)            # no high class in queue 2
    for qlen_gf in (ex1.qlen_gf_high, ex1.qlen_gf_low):
        for z in (-0.1, 1.5):
            with pytest.raises(UnsupportedEvaluation, match="z must lie"):
                qlen_gf(0, z)


def _or_none(fn, *args):
    try:
        return fn(*args)
    except UnsupportedEvaluation:
        return None


@pytest.mark.parametrize("model", _published_and_random_models())
def test_exact_period_moments_match_transform_route(model):
    # the exact moment solve against differentiating the period transforms;
    # where no class with arrivals spans the period, both routes refuse, and
    # report() leaves exactly those fields None
    a = Analyzer(model)
    periods = a.report(include_variances=False).periods
    for i, qt in enumerate(a.queues):
        for field, exact, handle in (("cycle_m2", a.cycle_m2, qt.cycle_handle),
                                     ("intervisit_m2", a.intervisit_m2,
                                      qt.intervisit_handle),
                                     ("visit_m2", a.visit_m2, qt.visit_handle)):
            value = _or_none(exact, i)
            route = _or_none(lambda: lst_moment(handle(), 2).value)
            assert (value is None) == (route is None), field
            assert getattr(periods[i], field) == value
            if value is not None:
                assert value == pytest.approx(route, rel=1e-8)


@pytest.mark.parametrize("model", _published_and_random_models(extended_dists=True))
def test_period_complements_match_period_moments(model):
    # the transform of each period T_c against its exact moments: both read
    # the classes the visit clears
    a = Analyzer(model)
    for j, qt in enumerate(a.queues):
        for c, lam in enumerate((qt.lam_h, qt.lam_l)):
            if lam <= 0.0:
                continue
            handle = TransformHandle(lambda w: a.gf.period_complements(j, w)[c], qt.h0)
            for k in (1, 2):
                assert lst_moment(handle, k).value == pytest.approx(
                    a.gf.period_rates[j][k - 1][c] / lam, rel=1e-8)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -0.1])
def test_transforms_reject_arguments_outside_their_domain(ex1, omega):
    # at once, not after a million fixed-point steps ending in NoConvergence;
    # the low wait's own bound omega <= lambda_low is checked first
    for transform in (ex1.visit_time_lst, ex1.waiting_lst_low, ex1.completion_time_lst):
        expected = (UnsupportedEvaluation
                    if transform == ex1.waiting_lst_low and omega == math.inf
                    else ValueError)
        with pytest.raises(expected):
            transform(0, omega)


@pytest.mark.parametrize("model", _published_and_random_models(extended_dists=True))
def test_exact_wait_variance_matches_transform_route(model):
    # E(W^2) from the third visit-beginning moments against differentiating
    # the waiting-time transforms.  The bound is the transform route's own
    # accuracy: on example2 exhaustive/exhaustive its E(W_L^2) is 1.4e-7 off
    # the exact value, which a 60-digit evaluation of the same transform
    # reproduces to 1e-15, while its error estimate reads 4e-10.
    a = Analyzer(model)
    for i, qt in enumerate(a.queues):
        for cls, lam, handle in (("H", qt.lam_h, qt.wait_high_handle),
                                 ("L", qt.lam_l, qt.wait_low_handle)):
            if lam <= 0.0:
                with pytest.raises(UnsupportedEvaluation):
                    a.var_wait(i, cls)
                continue
            assert a.wait_m2(i, cls) == pytest.approx(lst_moment(handle(), 2).value,
                                                      rel=2e-7)



def test_wait_complements_match_golden():
    # the float waiting-time transforms of every class of the published
    # models at omega = f lambda, with lambda the class's own rate
    golden = json.loads((pathlib.Path(__file__).resolve().parent / "golden"
                         / "wait_complements.json").read_text())
    models = published_models()
    assert set(golden["models"]) == set(models)
    for label, classes in golden["models"].items():
        a = Analyzer(models[label])
        got = {}
        for i, qt in enumerate(a.queues):
            for cls, lam, complement in (("H", qt.lam_h, qt.wait_high_complement),
                                         ("L", qt.lam_l, qt.wait_low_complement)):
                if lam > 0.0:
                    got[f"{i + 1}{cls}"] = [complement(f * lam) for f in golden["factors"]]
        assert got.keys() == classes.keys(), label
        for key, values in classes.items():
            assert got[key] == pytest.approx(values, rel=0.0, abs=1e-15), (label, key)

def test_cross_moment_identity_mixed(ex1):
    # cross/(lam_h lam_l E(C)) = (E(I^2) + E(I V)) / E(C)
    cross = ex1.cross_moment(0)
    ei2 = ex1.intervisit_m2(0)
    eiv = 0.5 * (ex1.cycle_m2(0) - ei2 - ex1.visit_m2(0))
    lhs = cross / (0.2 * 0.4 * 10.0)
    rhs = (ei2 + eiv) / 10.0
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_cross_moment_gated_equals_cycle_second_moment():
    # both gated coordinates count the same cycle: E(X_h X_l) = lh*ll*E(C^2)
    a = Analyzer(example1(GATED))
    assert a.cross_moment(0) == pytest.approx(0.2 * 0.4 * a.cycle_m2(0), rel=1e-6)


def test_cross_moment_deterministic_intervisit_factorizes():
    # deterministic everything around queue 1 makes I_1 deterministic, so the
    # visit-beginning counts are independent: E(X_h X_l) = E(X_h) E(X_l)
    from priopoll import Deterministic, PollingModel, QueueSpec
    model = PollingModel(
        queues=(QueueSpec(0.3, 1e-6, Deterministic(1.0), Deterministic(1.0), MIXED),
                QueueSpec(0.0, 1e-9, None, Deterministic(1.0), GATED)),
        switchovers=(Deterministic(2.0), Deterministic(3.0)),
    )
    a = Analyzer(model)
    d = a.derived
    cross = a.cross_moment(0)
    ex_h = 0.3 * d.mean_intervisit[0]
    ex_l = 1e-6 * d.mean_cycle
    assert cross == pytest.approx(ex_h * ex_l, rel=1e-4)


def test_qlen_gf_normalization_and_means(ex1):
    assert ex1.qlen_gf_high(0, 1.0) == 1.0
    assert ex1.qlen_gf_low(0, 1.0) == 1.0
    # derivative at z=1 equals the mean count (Little's law values)
    h = 1e-6
    num_h = (1.0 - ex1.qlen_gf_high(0, 1.0 - h)) / h
    assert num_h == pytest.approx(ex1.mean_qlen(0, "H"), rel=1e-4)
    num_l = (1.0 - ex1.qlen_gf_low(0, 1.0 - h)) / h
    assert num_l == pytest.approx(ex1.mean_qlen(0, "L"), rel=1e-4)
    assert ex1.mean_qlen(0, "H") == pytest.approx(0.2 * (2.338033 + 1.0), rel=1e-5)
    assert ex1.mean_qlen(0, "L") == pytest.approx(0.4 * (14.574575 + 1.25), rel=1e-5)


def test_qlen_gf_low_reduces_to_gated_when_high_removed():
    # mixed with lam_high = 0 must equal the plain gated engine at z = 0.5
    from priopoll import Exponential, PollingModel, QueueSpec
    def variant(disc):
        return Analyzer(PollingModel(
            queues=(QueueSpec(0.0, 0.4, None, Exponential(1.0), disc),
                    QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
            switchovers=(Exponential(1.0), Exponential(1.0))))
    a_mixed, a_gated = variant(MIXED), variant(GATED)
    for z in (0.5, 0.9):
        assert a_mixed.qlen_gf_low(0, z) == pytest.approx(
            a_gated.qlen_gf_low(0, z), rel=1e-10)


def _axiom_probe(transform, omegas):
    vals = [transform(w) for w in omegas]
    assert transform(0.0) == pytest.approx(1.0, abs=1e-12)
    for v in vals:
        assert 0.0 < v <= 1.0
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
    return len(vals) + 1


def test_lst_axioms_randomized_probes():
    """Every exposed transform: value 1 at 0, monotone, range (0, 1]."""
    rng = np.random.default_rng(77)
    probes = 0
    while probes < 1000:
        model = random_model(rng)
        a = Analyzer(model)
        for i, q in enumerate(model.queues):
            qt = a.queues[i]
            probes += _axiom_probe(
                lambda w: a.visit_time_lst(i, w),
                sorted(rng.uniform(0.0, 3.0, size=3)))
            # each span is available up to the rate of the classes counting
            # arrivals over it: the kept classes the cycle, the cleared the
            # intervisit
            for span, classes in ((a.cycle_time_lst, qt.kept),
                                  (a.intervisit_lst, qt.cleared)):
                om = qt.span_rate(classes)
                if om > 0.0:
                    probes += _axiom_probe(lambda w: span(i, w),
                                           sorted(rng.uniform(0.0, om, size=3)))
            if q.lambda_high > 0:
                probes += _axiom_probe(
                    lambda w: a.waiting_lst_high(i, w),
                    sorted(rng.uniform(0.0, qt.lam_h, size=3)))
            if q.lambda_low > 0:
                probes += _axiom_probe(
                    lambda w: a.waiting_lst_low(i, w),
                    sorted(rng.uniform(0.0, qt.lam_l, size=3)))
