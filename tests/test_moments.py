"""Moment extraction on transforms with known closed-form moments."""

import math

import pytest

from priopoll import (Deterministic, Erlang, Exponential, IllConditioned,
                      TransformHandle, Uniform, lst_moment)


def _handle(dist, h0=1e-4):
    return TransformHandle(dist.lst_complement, h0=h0, name=type(dist).__name__)


def test_exponential_mean():
    est = lst_moment(_handle(Exponential(1.0)), 1)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert est.error < 1e-8


def test_deterministic_second_moment():
    est = lst_moment(_handle(Deterministic(10.0), h0=1e-5), 2)
    assert est.value == pytest.approx(100.0, rel=1e-6)


@pytest.mark.parametrize("dist", [
    Exponential(0.5), Erlang(3, 2.0), Uniform(0.5, 1.5), Deterministic(2.0),
])
@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_families(dist, k):
    est = lst_moment(_handle(dist, h0=1e-4 / dist.mean), k)
    assert est.value == pytest.approx(dist.moment(k), rel=1e-7)
    assert est.error < 1e-5 * dist.moment(k) + 1e-12


def test_error_estimate_is_honest():
    # inject noise at the 1e-9 scale; estimate must not claim better accuracy
    dist = Exponential(1.0)

    def noisy(w):
        return dist.lst_complement(w) * (1.0 + 1e-9 * math.sin(1e8 * w))

    est = lst_moment(TransformHandle(noisy, h0=1e-6), 1)
    assert abs(est.value - 1.0) < 50.0 * max(est.error, 1e-12)


@pytest.mark.parametrize("k", [0, 3])
def test_unsupported_order_rejected(k):
    with pytest.raises(ValueError, match="first and second"):
        lst_moment(_handle(Exponential(1.0)), k)


def test_degenerate_domain_rejected():
    with pytest.raises(IllConditioned):
        lst_moment(TransformHandle(Exponential(1.0).lst_complement,
                                   h0=1e-4, omega_max=0.0), 1)


def test_tiny_domain_still_works():
    # complement evaluation keeps relative precision at very small steps
    est = lst_moment(TransformHandle(Exponential(1.0).lst_complement,
                                     h0=1e-4, omega_max=1e-9), 1)
    assert est.value == pytest.approx(1.0, rel=1e-9)
