"""Busy-period fixed point against an independent bisection oracle."""

import math

import pytest

from oracles import busy_period_by_bisection
from zoo import single_vacation_queue
from priopoll import (MIXED, Analyzer, BusyPeriod, Deterministic, Erlang, Exponential,
                      NonpositiveParameter, PollingModel, QueueSpec, TransformHandle,
                      Uniform, UnstableSystem, lst_moment)
from priopoll.busyperiod import _solve_complement

# root of pi = (1 + 0.5 + 0.5*(1 - pi))^(-1), i.e. 0.5 pi^2 - 2 pi + 1 = 0
_EXP_HALF_ROOT = 2.0 - math.sqrt(2.0)  # 0.5857864376269049


def test_value_at_zero_is_one():
    for dist in (Exponential(1.0), Deterministic(0.7), Erlang(3, 1.2)):
        for lam in (0.0, 0.3, 0.9 / dist.mean):
            assert BusyPeriod(dist, lam).lst(0.0) == 1.0


def test_exponential_fixed_point_closed_form():
    got = BusyPeriod(Exponential(1.0), 0.5).lst(0.5)
    assert got == pytest.approx(_EXP_HALF_ROOT, abs=1e-13)
    oracle = busy_period_by_bisection(Exponential(1.0).lst, 0.5, 0.5)
    assert got == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("dist,lam", [
    (Exponential(1.0), 0.2),
    (Exponential(0.7), 0.9),
    (Deterministic(1.0), 0.6),
    (Erlang(2, 1.5), 0.5),
])
@pytest.mark.parametrize("omega", [0.05, 0.3, 1.7])
def test_fixed_point_matches_bisection(dist, lam, omega):
    got = BusyPeriod(dist, lam).lst(omega)
    oracle = busy_period_by_bisection(dist.lst, lam, omega)
    assert got == pytest.approx(oracle, abs=5e-11)
    assert 0.0 < got <= 1.0


def test_fixed_point_stops_on_a_rounding_two_cycle():
    # plain substitution alternates between 0.14143314500702753 and
    # 0.14143314500702764 here, 7.8e-16 apart: too far for the relative
    # tolerance, so the solve must stop when its steps stop shrinking
    dist = Uniform(0.0, 2.0)
    steps = []

    def lstc(s):
        steps.append(s)
        return dist.lst_complement(s)

    got = _solve_complement(lstc, 0.4, 0.1, 0.0)
    oracle = 1.0 - busy_period_by_bisection(dist.lst, 0.4, 0.1)
    assert got == pytest.approx(oracle, rel=1e-13)
    assert len(steps) < 100
    assert BusyPeriod(dist, 0.4).lst_complement(0.1) == got


def test_mean_busy_period():
    # E = E(B) / (1 - rho): exponential(1), lam = 0.2 -> 1.25
    bp = BusyPeriod(Exponential(1.0), 0.2)
    handle = TransformHandle(bp.lst_complement, h0=1e-4)
    est = lst_moment(handle, 1)
    assert est.value == pytest.approx(1.25, rel=1e-10)
    assert bp.mean == pytest.approx(1.25, rel=1e-15)


def test_unstable_busy_period_rejected():
    with pytest.raises(UnstableSystem):
        BusyPeriod(Exponential(1.0), 1.0)


@pytest.mark.parametrize("args,error", [
    ((Exponential(1.0), -1.0), NonpositiveParameter),
    ((Exponential(1.0), math.nan), NonpositiveParameter),
    ((Exponential(1.0), math.inf), NonpositiveParameter),
    ((Exponential(1.0), 0.0, Deterministic(0.5), 0.0), NonpositiveParameter),
    ((Exponential(1.0), 0.5, Exponential(1.0), -1.0), NonpositiveParameter),
    ((Exponential(1.0), 1.0), UnstableSystem),
    ((Exponential(1.0), 1.5), UnstableSystem),
], ids=["negative", "nan", "inf", "two-zero-rates", "second-negative", "load-1",
        "load-1.5"])
def test_busy_period_rejects_rates_outside_its_domain(args, error, monkeypatch):
    # the constructor refuses before any transform or moment is evaluated
    def refuse(self, omega):
        raise AssertionError("a transform was evaluated")

    for cls in (Exponential, Deterministic):
        monkeypatch.setattr(cls, "lst_complement", refuse)
    with pytest.raises(error):
        BusyPeriod(*args)


def test_busy_period_with_a_zero_rate_answers():
    # one class at rate 0 is its own service; a second class at rate 0 adds nothing
    bp = BusyPeriod(Exponential(1.0), 0.0)
    assert bp.mean == 1.0
    assert bp.lst_complement(0.5) == Exponential(1.0).lst_complement(0.5)
    two = BusyPeriod(Exponential(1.0), 0.3, Deterministic(0.5), 0.0)
    one = BusyPeriod(Exponential(1.0), 0.3)
    assert (two.rho, two.mean, two.moment(3)) == (one.rho, one.mean, one.moment(3))
    assert two.lst(0.5) == one.lst(0.5)


def _completion_queue(lam_h):
    """One mixed queue with Exp(1) services and a low class at rate 0.5; its
    ``Analyzer.lst(0, "completion", w)`` is the engine's completion time."""
    return Analyzer(single_vacation_queue(MIXED, lam_h=lam_h))


@pytest.mark.parametrize("omega", [math.nan, math.inf, -0.1, -1.0])
def test_busy_period_rejects_arguments_outside_its_domain(omega):
    # every public busy-period path goes through BusyPeriod.lst_complement, which
    # refuses at once: no fixed-point steps, no LST above 1
    bp = BusyPeriod(Exponential(1.0), 0.5)
    a = _completion_queue(0.3)
    for evaluate in (bp.lst_complement, bp.lst, lambda w: a.lst(0, "completion", w)):
        with pytest.raises(ValueError, match="omega"):
            evaluate(omega)


def test_completion_time_reduces_without_high_class():
    # no high-priority interference: completion time is the plain service
    dist = Erlang(2, 1.0)
    model = PollingModel(queues=(QueueSpec(0.0, 0.5, None, dist, MIXED),),
                         switchovers=(Deterministic(10.0),))
    a = Analyzer(model)
    for w in (0.0, 0.4, 2.0):
        assert a.lst(0, "completion", w) == pytest.approx(dist.lst(w), rel=1e-14)


def test_completion_time_mean():
    # E(B*) = E(B_low) / (1 - rho_high) = 1/(1 - 0.2) = 1.25 on the benchmark
    def comp_c(w):
        bp = BusyPeriod(Exponential(1.0), 0.2)
        u = bp.lst_complement(w)
        return Exponential(1.0).lst_complement(w + 0.2 * u)

    est = lst_moment(TransformHandle(comp_c, h0=1e-4), 1)
    assert est.value == pytest.approx(1.25, rel=1e-10)


def test_completion_time_value_composes_oracle_root():
    # compose beta_low with a bisection-located busy-period root at omega = 1
    pi = busy_period_by_bisection(Exponential(1.0).lst, 0.2, 1.0)
    expected = Exponential(1.0).lst(1.0 + 0.2 * (1.0 - pi))
    got = _completion_queue(0.2).lst(0, "completion", 1.0)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(0.47506218943955496, abs=1e-9)


@pytest.mark.parametrize("classes", [
    (Exponential(1.0), 0.2),
    (Erlang(2, 1.5), 0.5),
    (Uniform(0.0, 2.0), 0.4),
    (Exponential(1.0), 0.3, Deterministic(0.5), 0.6),
], ids=["exponential", "erlang", "uniform", "two-class-mix"])
def test_exact_moments_match_transform(classes):
    bp = BusyPeriod(*classes)
    handle = TransformHandle(bp.lst_complement, h0=1e-4, omega_max=1.0)
    for k in (1, 2):
        assert bp.moment(k) == pytest.approx(lst_moment(handle, k).value, rel=1e-7)


def test_third_moment_exponential_closed_form():
    # M/M/1 busy period with service rate mu and arrival rate lam:
    # E(Theta^3) = 6 mu (mu + lam) / (mu - lam)^5
    mu, lam = 2.0, 0.7
    bp = BusyPeriod(Exponential(1.0 / mu), lam)
    assert bp.moment(3) == pytest.approx(6.0 * mu * (mu + lam) / (mu - lam) ** 5,
                                         rel=1e-13)
    assert bp.moment(2) == pytest.approx(2.0 * mu / (mu - lam) ** 3, rel=1e-13)
    assert bp.mean == bp.moment(1) == pytest.approx(1.0 / (mu - lam), rel=1e-13)
    with pytest.raises(ValueError, match="k in"):
        bp.moment(4)
