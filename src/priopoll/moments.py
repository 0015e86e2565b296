"""Numerical moment extraction from transforms evaluated near 0.

Transforms are handed over as *complement* callables c(w) = 1 - f(w) so the
leading behaviour c(w) = m1*w - m2*w^2/2 + ... is available without
cancellation.  Moments come from polynomial (Neville) extrapolation to w = 0
over a geometric step grid; the returned estimate is the tableau entry with
the smallest spread against its parents, Ridders-style, together with that
spread as the error estimate.  One-sided grids are used throughout because
several transforms are only evaluable on one side of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import IllConditioned

__all__ = ["TransformHandle", "MomentEstimate", "lst_moment"]

_DEFAULT_LEVELS = 12


@dataclass
class TransformHandle:
    """A transform f with f(0) = 1, exposed through its complement 1 - f.

    ``h0`` is the base differencing step and ``omega_max`` the largest
    argument at which the transform may be evaluated.
    """

    complement: Callable[[float], float]
    h0: float
    omega_max: float = math.inf
    name: str = ""

    def value(self, omega: float) -> float:
        return 1.0 - self.complement(omega)


@dataclass(frozen=True)
class MomentEstimate:
    """A moment extracted by ``lst_moment``.

    ``error`` is the spread of the Neville tableau at the chosen entry: a
    heuristic, not a bound.  Where rounding in the complement dominates the
    differences it can understate the true error by orders of magnitude
    (about 350x for E(W_L^2) on a two-queue exhaustive model with E(C) = 200).
    """

    value: float
    error: float


def _neville_to_zero(hs, ys):
    """Extrapolate samples (h, y(h)) to h = 0; best entry plus its spread."""
    n = len(hs)
    prev = list(ys)
    best = ys[0]
    best_err = abs(ys[1] - ys[0]) if n > 1 else math.inf
    for j in range(1, n):
        cur = []
        for i in range(n - j):
            num = hs[i + j] * prev[i] - hs[i] * prev[i + 1]
            val = num / (hs[i + j] - hs[i])
            err = max(abs(val - prev[i]), abs(val - prev[i + 1]))
            if err <= best_err:
                best, best_err = val, err
            cur.append(val)
        prev = cur
    return best, best_err


def _grid(handle: TransformHandle):
    h0 = handle.h0
    hmax = handle.omega_max * 0.5
    if not hmax > 0.0 or not h0 > 0.0:
        raise IllConditioned(
            f"transform {handle.name or '<anon>'} has an empty evaluable range")
    if h0 > hmax:
        h0 = hmax / 2**(_DEFAULT_LEVELS - 1)
    hs = []
    h = h0
    for _ in range(_DEFAULT_LEVELS):
        if h > hmax:
            break
        hs.append(h)
        h *= 2.0
    if len(hs) < 4:
        raise IllConditioned(
            f"transform {handle.name or '<anon>'} has too small an evaluable "
            f"range ({handle.omega_max:.3g}) for moment extraction")
    return hs


def lst_moment(handle: TransformHandle, k: int,
               rel_tol: float | None = None) -> MomentEstimate:
    """k-th raw moment (-1)^k f^(k)(0) of the random variable behind ``handle``.

    k = 1 returns the mean, k = 2 the second raw moment.  The estimate's
    ``error`` is the spread of the Neville tableau, a heuristic rather than a
    bound (see ``MomentEstimate``).  Raises IllConditioned when ``rel_tol``
    is given and that spread exceeds rel_tol * |value|.
    """
    if k not in (1, 2):
        raise ValueError("only first and second moments are supported")
    hs = _grid(handle)
    cs = [handle.complement(h) for h in hs]
    g = [c / h for c, h in zip(cs, hs)]          # m1 - m2/2*h + m3/6*h^2 - ...
    m1, err1 = _neville_to_zero(hs, g)
    if k == 1:
        est = MomentEstimate(m1, err1)
    else:
        q = [2.0 * (m1 - gj) / h for gj, h in zip(g, hs)]  # m2 - m3/3*h + ...
        m2, err2 = _neville_to_zero(hs, q)
        # the shared m1 estimate biases every node by 2*err1/h
        err2 += 2.0 * err1 / hs[len(hs) // 2]
        est = MomentEstimate(m2, err2)
    if rel_tol is not None and est.error > rel_tol * abs(est.value):
        raise IllConditioned(
            f"moment k={k} of {handle.name or '<anon>'}: error estimate "
            f"{est.error:.3g} exceeds {rel_tol:.3g} * |{est.value:.6g}|")
    return est
