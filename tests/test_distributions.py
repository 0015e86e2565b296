"""Distribution families: transforms, moments, complements, sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import derivative
from priopoll import (Deterministic, Erlang, Exponential, Hyperexponential,
                      NonpositiveParameter, Uniform, distribution_from_config)

ALL = [
    Deterministic(10.0),
    Exponential(1.0),
    Exponential(0.37),
    Erlang(2, 1.0),
    Erlang(5, 2.5),
    Hyperexponential((0.3, 0.7), (0.5, 2.0)),
    Uniform(0.0, 2.0),
    Uniform(1.0, 3.0),
]


def test_exponential_lst_value():
    assert Exponential(1.0).lst(1.0) == pytest.approx(0.5, abs=1e-15)


def test_deterministic_lst_values():
    d = Deterministic(10.0)
    assert d.lst(0.0) == 1.0
    assert d.lst(0.1) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_erlang_second_moment():
    # differentiate (1 + w/2)^(-2) twice at 0: E(X^2) = 1.5
    assert Erlang(2, 1.0).moment(2) == pytest.approx(1.5, rel=1e-15)
    num = derivative(Erlang(2, 1.0).lst, 0.0, 1e-4, order=2)
    assert num == pytest.approx(1.5, rel=1e-7)


def test_deterministic_second_moment():
    assert Deterministic(10.0).moment(2) == 100.0


def test_exponential_second_moment():
    assert Exponential(1.0).moment(2) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__ + repr(d.to_config()["params"]))
def test_lst_axioms(dist):
    values = [dist.lst(w) for w in (0.0, 0.1, 1.0, 10.0)]
    assert values[0] == 1.0
    for v in values:
        assert 0.0 < v <= 1.0
    for a, b in zip(values, values[1:]):
        assert a >= b


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_complement_consistency(dist):
    for w in (1e-9, 1e-4, 0.1, 1.0, 10.0):
        assert dist.lst_complement(w) == pytest.approx(1.0 - dist.lst(w), abs=1e-12)
        # complement keeps relative precision where 1 - lst would cancel
        assert dist.lst_complement(w) > 0.0


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_lst_derivative_matches_mean(dist):
    # numerical derivative of lst at 0 vs -E(X), 1e-6 relative
    h = 1e-6 / max(1.0, dist.mean)
    num = (3.0 - 4.0 * dist.lst(h) + dist.lst(2 * h)) / (2 * h)
    assert num == pytest.approx(dist.mean, rel=1e-6)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_moments_match_lst_curvature(dist):
    h = 1e-4 / max(1.0, dist.mean)
    num = derivative(dist.lst, 10 * h, h, order=2)  # f'' near 0
    taylor = dist.moment(2) - dist.moment(3) * 10 * h
    assert num == pytest.approx(taylor, rel=5e-4)


def test_deterministic_sampling_constant():
    rng = np.random.default_rng(0)
    assert (Deterministic(10.0).sample_block(rng, 5) == 10.0).all()


def test_exponential_sample_mean_lln():
    rng = np.random.default_rng(42)
    x = Exponential(1.0).sample_block(rng, 10**6)
    assert abs(x.mean() - 1.0) < 0.01


def test_degenerate_hyperexponential_is_exponential():
    hyper = Hyperexponential((1.0,), (0.5,))
    exp = Exponential(0.5)
    for w in (0.0, 0.3, 2.0):
        assert hyper.lst(w) == pytest.approx(exp.lst(w), rel=1e-14)
    for k in (1, 2, 3):
        assert hyper.moment(k) == pytest.approx(exp.moment(k), rel=1e-14)
    rng = np.random.default_rng(7)
    assert abs(hyper.sample_block(rng, 10**5).mean() - 0.5) < 0.01


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_sampling_matches_first_two_moments(dist):
    rng = np.random.default_rng(123)
    x = dist.sample_block(rng, 200_000)
    assert x.min() >= 0.0
    assert x.mean() == pytest.approx(dist.mean, rel=0.02)
    assert np.mean(x * x) == pytest.approx(dist.moment(2), rel=0.05)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_config_roundtrip(dist):
    clone = distribution_from_config(dist.to_config())
    assert clone == dist


def test_invalid_parameters_rejected():
    with pytest.raises(NonpositiveParameter):
        Exponential(0.0)
    with pytest.raises(NonpositiveParameter):
        Deterministic(-1.0)
    with pytest.raises(NonpositiveParameter):
        Erlang(0, 1.0)
    with pytest.raises(NonpositiveParameter):
        Erlang(True, 1.0)  # a bool is an int, but no shape
    with pytest.raises(NonpositiveParameter):
        Hyperexponential((0.5, 0.4), (1.0, 2.0))  # probs sum != 1
    with pytest.raises(NonpositiveParameter):
        Uniform(2.0, 1.0)


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError):
        distribution_from_config({"family": "exponential",
                                  "params": {"mean": 1.0, "rate": 1.0}})
    with pytest.raises(ValueError):
        distribution_from_config({"family": "pareto", "params": {}})
    with pytest.raises(ValueError):
        distribution_from_config({"family": "exponential",
                                  "params": {"mean": 1.0}, "extra": 1})


def _erlang(shape):
    return {"family": "erlang", "params": {"shape": shape, "mean": 1.0}}


@pytest.mark.parametrize("cfg", [
    _erlang(2.7),
    _erlang("3"),
    _erlang(True),
    _erlang(math.inf),
    _erlang(10**400),
    {"family": "hyperexponential", "params": {"probs": 0.5, "means": [1.0]}},
    {"family": "hyperexponential", "params": {"probs": [1.0], "means": ["1.0"]}},
    {"family": "deterministic", "params": {"value": [1.0]}},
    {"family": "exponential", "params": {"mean": None}},
    {"family": "uniform", "params": {"low": 0.0, "high": "2"}},
    "exponential",
    {"family": "exponential", "params": [1.0]},
    {"family": "uniform", "params": {"low": 0.0}},
], ids=["shape-2.7", "shape-str", "shape-bool", "shape-inf", "shape-huge",
        "probs-scalar", "means-str", "value-list", "mean-null", "high-str",
        "config-str", "params-list", "param-missing"])
def test_malformed_config_values_rejected(cfg):
    with pytest.raises(ValueError):
        distribution_from_config(cfg)


def test_whole_number_erlang_shape_accepted():
    assert distribution_from_config(_erlang(3.0)) == Erlang(3, 1.0)
    assert distribution_from_config(_erlang(3)) == Erlang(3, 1.0)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__ + repr(d.to_config()["params"]))
def test_third_moment_matches_scipy(dist):
    stats = pytest.importorskip("scipy.stats")
    if isinstance(dist, Deterministic):
        ref = stats.rv_discrete(values=([dist.value], [1.0])).moment(3)
    elif isinstance(dist, Exponential):
        ref = stats.expon(scale=dist.mean_).moment(3)
    elif isinstance(dist, Erlang):
        ref = stats.gamma(dist.shape, scale=dist.mean_ / dist.shape).moment(3)
    elif isinstance(dist, Hyperexponential):
        ref = sum(p * stats.expon(scale=m).moment(3) for p, m in zip(dist.probs, dist.means))
    else:
        ref = stats.uniform(loc=dist.low, scale=dist.high - dist.low).moment(3)
    assert dist.moment(3) == pytest.approx(ref, rel=1e-12)


def test_uniform_moments_without_cancellation():
    # the difference quotient (b^(k+1) - a^(k+1)) / ((k+1)(b - a)) read this
    # mean 1.3e-8 relative off; the closed form in exact rationals is the
    # reference
    a, b = 1e6, 1e6 + 1e-3
    fa, fb = Fraction(a), Fraction(b)
    for k in (1, 2, 3):
        exact = (fb ** (k + 1) - fa ** (k + 1)) / ((k + 1) * (fb - fa))
        assert abs(Fraction(Uniform(a, b).moment(k)) - exact) <= 2 * math.ulp(float(exact))
    # b^2 alone is past the float range, the mean is not
    assert Uniform(0.0, 1e160).mean == 5e159


def test_uniform_lst_where_its_spread_underflows():
    # (high - low) omega underflows to 0: the ratio (1 - exp(-x))/x is its limit 1
    assert Uniform(0.0, 1e-200).lst(1e-200) == 1.0
    assert Uniform(0.0, 1e-200).lst_complement(1e-200) == 0.0
    assert Uniform(1.0, 3.0).lst(0.0) == 1.0


def test_erlang_mean_is_exact():
    # moment(k) = mean^k (n+1)/n ... (n+k-1)/n, so moment(1) is the mean itself
    rng = np.random.default_rng(27)
    for n, m in zip(rng.integers(1, 51, 20000).tolist(), rng.uniform(0.01, 100.0, 20000).tolist()):
        dist = Erlang(n, m)
        assert dist.mean == m
        exact = Fraction(m) ** 3 * Fraction((n + 1) * (n + 2), n * n)
        assert abs(Fraction(dist.moment(3)) - exact) <= 4 * math.ulp(float(exact))


def test_erlang_with_a_huge_shape_has_the_deterministic_moments():
    # the per-phase scale mean/n underflows and n(n+1)(n+2) overflows; each
    # ratio (n+t)/n rounds to 1
    for k in (1, 2, 3):
        assert Erlang(10**200, 1.5).moment(k) == Deterministic(1.5).moment(k)


def test_moments_are_products_that_overflow_to_inf():
    # ``**`` raises OverflowError past the float range; a product is inf
    for dist in (Deterministic(1e160), Exponential(1e160), Erlang(3, 1e160),
                 Hyperexponential((0.5, 0.5), (1.0, 1e160)), Uniform(0.0, 1e160)):
        assert dist.moment(2) == math.inf
