"""Vacation-model closed forms and the discipline crossover rate."""

import math

import pytest

from oracles import bisect_root
from priopoll import GATED, MIXED, vacation_crossover, vacation_mean_wait_low


def test_no_high_class_disciplines_coincide():
    for rho in (0.3, 0.6, 0.9):
        for s in (1.0, 10.0):
            expected = s * (1 + rho) / (2 * (1 - rho)) + rho / (1 - rho)
            assert vacation_mean_wait_low(0.0, rho, s, GATED) == pytest.approx(
                expected, rel=1e-12)
            assert vacation_mean_wait_low(0.0, rho, s, MIXED) == pytest.approx(
                expected, rel=1e-12)


def test_all_high_limit():
    for rho in (0.4, 0.8):
        s = 7.0
        gated = vacation_mean_wait_low(rho, 0.0, s, GATED)
        mixed = vacation_mean_wait_low(rho, 0.0, s, MIXED)
        assert gated == pytest.approx(
            rho * (1 + 2 * rho) / (1 - rho**2) + s * (1 + 2 * rho) / (2 * (1 - rho)),
            rel=1e-12)
        assert mixed == pytest.approx(
            rho / (1 - rho) ** 2 + s * (1 + 2 * rho) / (2 * (1 - rho)), rel=1e-12)
        # gated is always better in this limit, by an s-independent margin
        margin = mixed - gated
        margin2 = (vacation_mean_wait_low(rho, 0.0, s + 5, MIXED)
                   - vacation_mean_wait_low(rho, 0.0, s + 5, GATED))
        assert margin > 0
        assert margin == pytest.approx(margin2, rel=1e-10)


def test_direct_substitution_values():
    # rho = 0.6, rho_high = 0.3, S = 10, evaluated independently:
    # gated (1+rho+rho_h)(S/(2(1-rho)) + rho/(1-rho^2)) = 1.9 * 13.4375
    # mixed rho/((1-rho)(1-rho_h)) + S(1+rho(1-2 rho_h))/(2(1-rho)(1-rho_h))
    assert vacation_mean_wait_low(0.3, 0.3, 10.0, GATED) == pytest.approx(
        25.53125, rel=1e-12)
    assert vacation_mean_wait_low(0.3, 0.3, 10.0, MIXED) == pytest.approx(
        24.285714285714285, rel=1e-12)


def test_gated_is_affine_in_high_rate():
    rho, s = 0.7, 5.0
    w = [vacation_mean_wait_low(x, rho - x, s, GATED) for x in (0.1, 0.2, 0.3)]
    assert w[2] - w[1] == pytest.approx(w[1] - w[0], rel=1e-10)


def test_mixed_is_strictly_convex_in_high_rate():
    rho, s = 0.7, 5.0
    w = [vacation_mean_wait_low(x, rho - x, s, MIXED) for x in (0.1, 0.2, 0.3)]
    assert (w[2] - w[1]) - (w[1] - w[0]) > 0.0


def test_crossover_boundary_absent():
    rho = 0.5
    assert vacation_crossover(rho, 2 * rho / (1 + rho)) is None
    assert vacation_crossover(rho, 0.5 * 2 * rho / (1 + rho)) is None


def test_crossover_formula_value():
    got = vacation_crossover(0.8, 10.0)
    assert got == pytest.approx(0.8 * (10 - 8 / 9) / (10 + 8 / 9), rel=1e-12)
    assert got == pytest.approx(0.6693877551020408, rel=1e-12)


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("s", [1.0, 10.0, 1e6])
def test_crossover_matches_bisection(rho, s):
    star = vacation_crossover(rho, s)
    assert star is not None

    def diff(x):
        return (vacation_mean_wait_low(x, rho - x, s, GATED)
                - vacation_mean_wait_low(x, rho - x, s, MIXED))

    oracle = bisect_root(diff, 1e-9, rho * (1 - 1e-12), tol=1e-13)
    assert star == pytest.approx(oracle, abs=1e-8)


def test_crossover_approaches_rho_for_long_vacations():
    for rho in (0.3, 0.5, 0.8):
        star = vacation_crossover(rho, 1e6)
        assert abs(star - rho) < 1e-3


def test_invalid_arguments():
    with pytest.raises(ValueError):
        vacation_mean_wait_low(0.5, 0.6, 1.0, GATED)  # rho >= 1
    with pytest.raises(ValueError):
        vacation_mean_wait_low(0.1, 0.2, 0.0, MIXED)
    with pytest.raises(ValueError):
        vacation_crossover(1.0, 5.0)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_nonfinite_vacation_length_rejected(s):
    with pytest.raises(ValueError, match="vacation length"):
        vacation_mean_wait_low(0.2, 0.3, s, GATED)
    with pytest.raises(ValueError, match="vacation length"):
        vacation_crossover(0.5, s)
