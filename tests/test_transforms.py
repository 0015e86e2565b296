"""Period and waiting-time transforms: identities, axioms, domain errors."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zoo import drawn_models, example1, published_models, random_model, single_vacation_queue
from priopoll import (Analyzer, DISCIPLINES, EXHAUSTIVE, GATED, MIXED, PollingModel,
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
    assert ex1.lst(0, "cycle", 0.0) == 1.0
    assert ex1.lst(0, "intervisit", 0.0) == 1.0
    assert ex1.lst(0, "visit", 0.0) == 1.0
    assert ex1.lst(0, "wait_high", 0.0) == 1.0
    assert ex1.lst(0, "wait_low", 0.0) == 1.0


def test_cycle_mean_is_ten(ex1):
    est = lst_moment(ex1.queues[0].handle("cycle"), 1)
    assert est.value == pytest.approx(10.0, rel=1e-8)


def test_cycle_mean_same_for_all_queues(ex1):
    # E(C_i) is queue independent even though higher moments are not
    m0 = lst_moment(ex1.queues[0].handle("cycle"), 1).value
    m1 = lst_moment(ex1.queues[1].handle("cycle"), 1).value
    assert m0 == pytest.approx(m1, rel=1e-8)
    assert ex1.cycle_m2(0) != pytest.approx(ex1.cycle_m2(1), rel=1e-3)


def test_intervisit_mean_identity(ex1):
    # E(I_1) = (1 - rho_1) E(C) = 4
    est = lst_moment(ex1.queues[0].handle("intervisit"), 1)
    assert est.value == pytest.approx(4.0, rel=1e-8)


def test_visit_mean_identity(ex1):
    # E(V_i) = rho_i E(C): 6 and 2 on the two-queue benchmark
    assert lst_moment(ex1.queues[0].handle("visit"), 1).value == pytest.approx(6.0, rel=1e-8)
    assert lst_moment(ex1.queues[1].handle("visit"), 1).value == pytest.approx(2.0, rel=1e-8)


def test_completion_time_mean(ex1):
    handle = ex1.queues[0].handle("completion")
    assert handle.omega_max == math.inf
    est = lst_moment(handle, 1)
    assert est.value == pytest.approx(1.25, rel=1e-9)  # E(B_L)/(1-rho_H)


def test_unsupported_domains(ex1):
    with pytest.raises(UnsupportedEvaluation):
        ex1.lst(0, "cycle", 0.5)            # above lambda_low
    with pytest.raises(UnsupportedEvaluation):
        ex1.lst(0, "intervisit", 0.25)      # above lambda_high
    with pytest.raises(UnsupportedEvaluation):
        ex1.lst(1, "intervisit", 0.01)      # gated queue: no intervisit readout
    with pytest.raises(UnsupportedEvaluation):
        ex1.lst(1, "wait_high", 0.01)       # no high class in queue 2
    with pytest.raises(UnsupportedEvaluation):
        # no low class, although the model gives its service
        Analyzer(single_vacation_queue(MIXED, lam_l=0.0)).lst(0, "completion", 0.01)
    a_exh = Analyzer(example1(EXHAUSTIVE))
    with pytest.raises(UnsupportedEvaluation):
        a_exh.lst(0, "cycle", 0.01)         # exhaustive queue: no cycle readout
    no_low = Analyzer(single_vacation_queue(MIXED, lam_l=0.0))
    with pytest.raises(UnsupportedEvaluation):
        no_low.lst(0, "wait_low", 0.01)
    with pytest.raises(UnsupportedEvaluation):
        no_low.qlen_gf(0, "L", 0.5)
    with pytest.raises(UnsupportedEvaluation):
        ex1.qlen_gf(1, "H", 0.5)            # no high class in queue 2
    for cls in ("H", "L"):
        for z in (-0.1, 1.5):
            with pytest.raises(UnsupportedEvaluation, match="z must lie"):
                ex1.qlen_gf(0, cls, z)
        # a NaN z is no number at all, as a NaN omega or coordinate is
        with pytest.raises(ValueError, match="z must be a number"):
            ex1.qlen_gf(0, cls, math.nan)
    with pytest.raises(ValueError, match="unknown transform 'sojourn'"):
        ex1.lst(0, "sojourn", 0.01)


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
        for field, exact, name in (("cycle_m2", a.cycle_m2, "cycle"),
                                   ("intervisit_m2", a.intervisit_m2, "intervisit"),
                                   ("visit_m2", a.visit_m2, "visit")):
            value = _or_none(exact, i)
            route = _or_none(lambda: lst_moment(qt.handle(name), 2).value)
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


_TRANSFORMS = ("cycle", "intervisit", "visit", "wait_high", "wait_low", "completion")


@pytest.mark.parametrize("omega", [math.nan, math.inf, -0.1, -0.5, -1.0])
def test_transforms_reject_arguments_outside_their_domain(omega):
    # every transform at once, not after a million fixed-point steps ending in
    # NoConvergence, and never a number: an unavailable transform, or omega
    # past its range (inf for the low wait, bounded by lambda_low), raises
    # UnsupportedEvaluation, and any other NaN, negative or infinite omega
    # ValueError
    models = [example1(d) for d in DISCIPLINES]
    models += [single_vacation_queue(d, lam_h, lam_l) for d in DISCIPLINES
               for lam_h, lam_l in ((0.3, 0.5), (0.0, 0.5), (0.3, 0.0))]
    for model in models:
        a = Analyzer(model)
        for i, qt in enumerate(a.queues):
            for name in _TRANSFORMS:
                try:
                    top = qt.omega_max(name)
                except UnsupportedEvaluation:
                    expected = UnsupportedEvaluation
                    with pytest.raises(UnsupportedEvaluation):
                        qt.handle(name)
                else:
                    assert qt.handle(name).omega_max == top
                    expected = UnsupportedEvaluation if omega > top else ValueError
                with pytest.raises(expected):
                    a.lst(i, name, omega)
    # the high wait reads its span up to the span's rate, past lambda_high
    assert Analyzer(example1(GATED)).lst(0, "wait_high", 0.5) == 0.10950188102711245


@pytest.mark.parametrize("model", _published_and_random_models(extended_dists=True))
def test_exact_wait_variance_matches_transform_route(model):
    # E(W^2) from the third visit-beginning moments against differentiating
    # the waiting-time transforms.  The bound is the transform route's own
    # accuracy: on example2 exhaustive/exhaustive its E(W_L^2) is 1.4e-7 off
    # the exact value, which a 60-digit evaluation of the same transform
    # reproduces to 1e-15, while its error estimate reads 4e-10.
    a = Analyzer(model)
    for i, qt in enumerate(a.queues):
        for cls, lam, name in (("H", qt.lam_h, "wait_high"), ("L", qt.lam_l, "wait_low")):
            if lam <= 0.0:
                with pytest.raises(UnsupportedEvaluation):
                    a.var_wait(i, cls)
                continue
            assert a.wait_m2(i, cls) == pytest.approx(lst_moment(qt.handle(name), 2).value,
                                                      rel=2e-7)



def _match_golden(filename, complements):
    # complements(a, qt) yields (key, complement, rate) for each transform of
    # queue qt of analyzer a that is available; the golden holds it at
    # omega = f rate
    golden = json.loads((pathlib.Path(__file__).resolve().parent / "golden"
                         / filename).read_text())
    models = published_models()
    assert set(golden["models"]) == set(models)
    for label, expected in golden["models"].items():
        a = Analyzer(models[label])
        got = {f"{i + 1}{key}": [complement(f * rate) for f in golden["factors"]]
               for i, qt in enumerate(a.queues) for key, complement, rate in complements(a, qt)}
        assert got.keys() == expected.keys(), label
        for key, values in expected.items():
            assert got[key] == pytest.approx(values, rel=0.0, abs=1e-15), (label, key)


def test_wait_complements_match_golden():
    # the float waiting-time transforms of every class of the published
    # models at omega = f lambda, with lambda the class's own rate
    _match_golden("wait_complements.json", lambda a, qt: [
        (cls, complement, lam)
        for cls, lam, complement in (("H", qt.lam_h, qt.wait_high_complement),
                                     ("L", qt.lam_l, qt.wait_low_complement))
        if lam > 0.0])


def test_period_complements_match_golden():
    # the float cycle, intervisit, visit and completion-time transforms of
    # every queue of the published models, where available, at omega = f r,
    # with r the span's rate for a cycle or an intervisit time and the
    # queue's total rate else
    _match_golden("period_complements.json", lambda a, qt: [
        (name, getattr(qt, f"{name}_complement"), rate)
        for name, rate in (("cycle", qt.span_rate(qt.kept)),
                           ("intervisit", qt.span_rate(qt.cleared)),
                           ("visit", qt.lam_h + qt.lam_l),
                           ("completion", qt.lam_h + qt.lam_l))
        if _or_none(qt.omega_max, name) is not None])


def test_qlen_gfs_match_golden():
    # the queue-length GF of every class of the published models at each
    # z = f of the golden (rate 1)
    _match_golden("qlen_gfs.json", lambda a, qt: [
        (cls, lambda z, cls=cls: a.qlen_gf(qt.i, cls, z), 1.0)
        for cls, lam in (("H", qt.lam_h), ("L", qt.lam_l)) if lam > 0.0])


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
    assert ex1.qlen_gf(0, "H", 1.0) == 1.0
    assert ex1.qlen_gf(0, "L", 1.0) == 1.0
    # Little's law values; test_qlen_gf_slope_at_one_is_littles_law holds
    # the GF's slope at z = 1 to them
    assert ex1.mean_qlen(0, "H") == pytest.approx(0.2 * (2.338033 + 1.0), rel=1e-5)
    assert ex1.mean_qlen(0, "L") == pytest.approx(0.4 * (14.574575 + 1.25), rel=1e-5)


def test_qlen_gf_slope_at_one_is_littles_law():
    # the slope of qlen_gf at z = 1 is E(N), which mean_qlen reads as lam
    # (E(W) + E(B)) from the exact mean wait and the period mean, at every
    # class of the published models.  D(h) = (1 - G(1 - h))/h is E(N) less
    # h E(N(N-1))/2 + O(h^2) (up to 4.4e-5 relative off at h = 1e-6), and
    # 2 D(h) - D(2h) drops the O(h) term.  At h = 2^-20 it reads at most
    # 2.6e-9 relative off over the 54 classes: the h^2 term, 2.9e-7 at h = 1e-5.  G's rounding,
    # about 1e-16 absolute, adds at most 2.5e-16/(h E(N)) < 4e-10 (E(N) >= 0.67)
    h = 2.0 ** -20  # 1 - h and 1 - 2h are exact
    for label, model in published_models().items():
        a = Analyzer(model)
        for i, qt in enumerate(a.queues):
            for _, cls, _, _ in qt.q.classes:
                d1, d2 = ((1.0 - a.qlen_gf(i, cls, 1.0 - s)) / s for s in (h, 2.0 * h))
                assert 2.0 * d1 - d2 == pytest.approx(a.mean_qlen(i, cls), rel=1e-8), \
                    (label, i, cls)


def _queue_values(a, i):
    # at queue i of analyzer a: lst of every available transform at half
    # its range (of the queue's total rate where the range is infinite), and
    # qlen_gf of each class at z = 0.5
    qt = a.queues[i]
    out = {cls: a.qlen_gf(i, cls, 0.5) for _, cls, _, _ in qt.q.classes}
    for name in _TRANSFORMS:
        top = _or_none(qt.omega_max, name)
        if top is not None:
            out[name] = a.lst(i, name, 0.5 * (top if top < math.inf else qt.lam_h + qt.lam_l))
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_models(max_n=5, max_load=0.95), st.integers(1, 4))
def test_rotating_the_queues_moves_each_transform_with_its_queue(model, k):
    # renumbering the queues cyclically by k, with their switch-overs, moves
    # every lst and qlen_gf value with its queue.  Checked at the queue
    # that each numbering sweeps first, where a sweep that treats queue 0 or
    # the wrap-around specially shows.  Only the order of the sweeps
    # changes, and so the rounding.  Every value is 1 - a complement, or a
    # product of two, and its rounding is absolute: a difference of
    # complements divided by w E(C) or w E(I) amplifies it, and relative to
    # a small LST it reads up to 250 x 2^-53.  Over 360 draws at every queue
    # the worst absolute move was 18 x 2^-53; the bound is 64 x 2^-53
    n, k = model.n, k % model.n
    a = Analyzer(model)
    b = Analyzer(PollingModel(model.queues[k:] + model.queues[:k],
                              model.switchovers[k:] + model.switchovers[:k]))
    for i, j in ((0, (n - k) % n), (k, 0)):  # queue i of model is queue j of b
        expected, got = _queue_values(a, i), _queue_values(b, j)
        assert got.keys() == expected.keys()
        for key, value in got.items():
            assert value == pytest.approx(expected[key], rel=0.0, abs=64 * 2.0 ** -53), (i, key)


def test_low_class_qlen_gf_reduces_to_gated_when_high_removed():
    # mixed with lam_high = 0 must equal the plain gated engine at z = 0.5
    from priopoll import Exponential, PollingModel, QueueSpec
    def variant(disc):
        return Analyzer(PollingModel(
            queues=(QueueSpec(0.0, 0.4, None, Exponential(1.0), disc),
                    QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
            switchovers=(Exponential(1.0), Exponential(1.0))))
    a_mixed, a_gated = variant(MIXED), variant(GATED)
    for z in (0.5, 0.9):
        assert a_mixed.qlen_gf(0, "L", z) == pytest.approx(
            a_gated.qlen_gf(0, "L", z), rel=1e-10)


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
                lambda w: a.lst(i, "visit", w),
                sorted(rng.uniform(0.0, 3.0, size=3)))
            # each span is available up to the rate of the classes counting
            # arrivals over it: the kept classes the cycle, the cleared the
            # intervisit
            for span, classes in (("cycle", qt.kept), ("intervisit", qt.cleared)):
                om = qt.span_rate(classes)
                if om > 0.0:
                    probes += _axiom_probe(lambda w: a.lst(i, span, w),
                                           sorted(rng.uniform(0.0, om, size=3)))
            if q.lambda_high > 0:
                probes += _axiom_probe(
                    lambda w: a.lst(i, "wait_high", w),
                    sorted(rng.uniform(0.0, qt.lam_h, size=3)))
            if q.lambda_low > 0:
                probes += _axiom_probe(
                    lambda w: a.lst(i, "wait_low", w),
                    sorted(rng.uniform(0.0, qt.lam_l, size=3)))
