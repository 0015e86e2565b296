"""Single-queue vacation model: closed-form low-priority mean waits.

An M/G/1 queue with two priority classes, unit-mean exponential services and
repeated server vacations of fixed length S.  Low-priority customers are
gated; high-priority customers are either gated as well ("gated") or served
exhaustively with overtaking ("mixed_ge").  These closed forms expose the
crossover arrival rate below which the mixed discipline gives low-priority
customers *shorter* waits than plain gated service, provided the vacation is
long enough (S > 2*rho/(1+rho)).
"""

from __future__ import annotations

import math

from .model import GATED, MIXED

__all__ = ["vacation_mean_wait_low", "vacation_crossover"]


def vacation_mean_wait_low(rho_high: float, rho_low: float, s: float,
                           discipline: str) -> float:
    """Mean low-priority wait for vacation length ``s`` (unit-mean services)."""
    rho = rho_high + rho_low
    if not 0.0 <= rho_high <= rho < 1.0:
        raise ValueError("need 0 <= rho_high <= rho < 1")
    if not 0.0 < s < math.inf:
        raise ValueError(f"vacation length must be finite and > 0, got {s!r}")
    if discipline == GATED:
        return (1.0 + rho + rho_high) * (s / (2.0 * (1.0 - rho))
                                         + rho / (1.0 - rho * rho))
    if discipline == MIXED:
        return (rho / ((1.0 - rho) * (1.0 - rho_high))
                + s * (1.0 + rho * (1.0 - 2.0 * rho_high))
                / (2.0 * (1.0 - rho) * (1.0 - rho_high)))
    raise ValueError(f"unsupported discipline {discipline!r}")


def vacation_crossover(rho: float, s: float) -> float | None:
    """Arrival rate of the high class at which gated and mixed service give
    equal low-priority mean waits; None when gated is better for every
    positive rate (short vacations, s <= 2*rho/(1+rho))."""
    if not 0.0 < rho < 1.0:
        raise ValueError("need 0 < rho < 1")
    if not 0.0 < s < math.inf:
        raise ValueError(f"vacation length must be finite and > 0, got {s!r}")
    c = 2.0 * rho / (1.0 + rho)
    if s <= c:
        return None
    return rho * (s - c) / (s + c)
