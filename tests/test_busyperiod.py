"""Busy-period fixed point against an independent bisection oracle."""

import math

import pytest

from oracles import busy_period_by_bisection
from priopoll import (BusyPeriod, Deterministic, Erlang, Exponential,
                      TransformHandle, Uniform, busy_period_lst,
                      completion_time_lst, lst_moment)
from priopoll.busyperiod import ServiceMix, _solve_complement

# root of pi = (1 + 0.5 + 0.5*(1 - pi))^(-1), i.e. 0.5 pi^2 - 2 pi + 1 = 0
_EXP_HALF_ROOT = 2.0 - math.sqrt(2.0)  # 0.5857864376269049


def test_value_at_zero_is_one():
    for dist in (Exponential(1.0), Deterministic(0.7), Erlang(3, 1.2)):
        for lam in (0.0, 0.3, 0.9 / dist.mean):
            assert busy_period_lst(dist, lam, 0.0) == 1.0


def test_exponential_fixed_point_closed_form():
    got = busy_period_lst(Exponential(1.0), 0.5, 0.5)
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
    got = busy_period_lst(dist, lam, omega)
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
    assert BusyPeriod(dist, 0.4).complement(0.1) == got


def test_mean_busy_period():
    # E = E(B) / (1 - rho): exponential(1), lam = 0.2 -> 1.25
    bp = BusyPeriod(Exponential(1.0), 0.2)
    handle = TransformHandle(bp.complement, h0=1e-4)
    est = lst_moment(handle, 1)
    assert est.value == pytest.approx(1.25, rel=1e-10)
    assert bp.mean == pytest.approx(1.25, rel=1e-15)


def test_unstable_busy_period_rejected():
    with pytest.raises(ValueError):
        busy_period_lst(Exponential(1.0), 1.0, 0.1)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -0.1, -1.0])
def test_busy_period_rejects_arguments_outside_its_domain(omega):
    # every public busy-period path goes through BusyPeriod.complement, which
    # refuses at once: no fixed-point steps, no LST above 1
    bp = BusyPeriod(Exponential(1.0), 0.5)
    for evaluate in (bp.complement, bp.lst,
                     lambda w: busy_period_lst(Exponential(1.0), 0.5, w),
                     lambda w: completion_time_lst(Exponential(1.0), Exponential(1.0),
                                                   0.3, w)):
        with pytest.raises(ValueError, match="omega"):
            evaluate(omega)


def test_completion_time_reduces_without_high_class():
    # no high-priority interference: completion time is the plain service
    dist = Erlang(2, 1.0)
    for w in (0.0, 0.4, 2.0):
        assert completion_time_lst(dist, Exponential(1.0), 0.0, w) == \
            pytest.approx(dist.lst(w), rel=1e-14)


def test_completion_time_mean():
    # E(B*) = E(B_low) / (1 - rho_high) = 1/(1 - 0.2) = 1.25 on the benchmark
    def comp_c(w):
        bp = BusyPeriod(Exponential(1.0), 0.2)
        u = bp.complement(w)
        return Exponential(1.0).lst_complement(w + 0.2 * u)

    est = lst_moment(TransformHandle(comp_c, h0=1e-4), 1)
    assert est.value == pytest.approx(1.25, rel=1e-10)


def test_completion_time_value_composes_oracle_root():
    # compose beta_low with a bisection-located busy-period root at omega = 1
    pi = busy_period_by_bisection(Exponential(1.0).lst, 0.2, 1.0)
    expected = Exponential(1.0).lst(1.0 + 0.2 * (1.0 - pi))
    got = completion_time_lst(Exponential(1.0), Exponential(1.0), 0.2, 1.0)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(0.47506218943955496, abs=1e-9)


@pytest.mark.parametrize("service,lam", [
    (Exponential(1.0), 0.2),
    (Erlang(2, 1.5), 0.5),
    (Uniform(0.0, 2.0), 0.4),
    (ServiceMix(Exponential(1.0), 0.3, Deterministic(0.5), 0.6), 0.9),
], ids=["exponential", "erlang", "uniform", "two-class-mix"])
def test_exact_moments_match_transform(service, lam):
    bp = BusyPeriod(service, lam)
    handle = TransformHandle(bp.complement, h0=1e-4, omega_max=1.0)
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
