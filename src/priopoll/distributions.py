"""Nonnegative service/switch-over time distributions with exact transforms.

Five closed-form families are supported: deterministic, exponential, Erlang,
hyperexponential and uniform.  Every family exposes the Laplace-Stieltjes
transform ``lst``, its complement ``1 - lst`` evaluated without cancellation
(needed when transforms are differenced near 0), raw moments up to order 3,
and reproducible sampling from a caller-owned RNG stream.

A moment is a product of the parameters, never a ``**`` power: a moment past
the float range is then inf, which ``GfEvaluator`` checks for, rather than
an ``OverflowError`` from wherever it is first read, and every moment scales
exactly when every time is scaled by a power of two (libm's ``pow`` does
not).  The uniform's moments are sums of nonnegative terms, without the
cancellation of the textbook difference quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .errors import NonpositiveParameter

if TYPE_CHECKING:  # numpy loads with the first sample_block that needs it
    import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Erlang",
    "Hyperexponential",
    "Uniform",
    "distribution_from_config",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise NonpositiveParameter(msg)


def _power(x: float, k: int) -> float:
    """x^k for k >= 1 by repeated multiplication."""
    p = x
    while k > 1:
        p *= x
        k -= 1
    return p


class Distribution:
    """Base class: a nonnegative random variable with an exact LST."""

    def lst(self, omega: float) -> float:
        """E[exp(-omega X)] for omega >= 0."""
        raise NotImplementedError

    def lst_complement(self, omega: float) -> float:
        """1 - lst(omega), computed to full relative precision."""
        raise NotImplementedError

    def moment(self, k: int) -> float:
        """Raw moment E[X^k] for k in {1, 2, 3}."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.moment(1)

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws from the caller's stream."""
        raise NotImplementedError

    def to_config(self) -> dict:
        """``{"family": ..., "params": {...}}``, as ``distribution_from_config`` reads it."""
        family, keys = next((name, keys) for name, (cls, keys) in _FAMILIES.items()
                            if cls is type(self))
        values = (getattr(self, f.name) for f in fields(self))
        return {"family": family, "params": {
            k: list(v) if isinstance(v, tuple) else v for k, v in zip(keys, values)}}


@dataclass(frozen=True)
class Deterministic(Distribution):
    value: float

    def __post_init__(self):
        _require(0.0 <= self.value < math.inf,
                 f"deterministic value must be finite and >= 0, got {self.value}")

    def lst(self, omega: float) -> float:
        return math.exp(-omega * self.value)

    def lst_complement(self, omega: float) -> float:
        return -math.expm1(-omega * self.value)

    def moment(self, k: int) -> float:
        return _power(self.value, k)

    def sample_block(self, rng, n):
        import numpy as np
        return np.full(n, self.value)


@dataclass(frozen=True)
class Exponential(Distribution):
    mean_: float

    def __post_init__(self):
        _require(0.0 < self.mean_ < math.inf,
                 f"exponential mean must be finite and > 0, got {self.mean_}")

    def lst(self, omega: float) -> float:
        return 1.0 / (1.0 + omega * self.mean_)

    def lst_complement(self, omega: float) -> float:
        om = omega * self.mean_
        return om / (1.0 + om)

    def moment(self, k: int) -> float:
        return math.factorial(k) * _power(self.mean_, k)

    def sample_block(self, rng, n):
        return rng.exponential(self.mean_, n)


@dataclass(frozen=True)
class Erlang(Distribution):
    shape: int
    mean_: float

    def __post_init__(self):
        _require(isinstance(self.shape, int) and not isinstance(self.shape, bool)
                 and self.shape >= 1,
                 f"erlang shape must be an integer >= 1, got {self.shape}")
        _require(0.0 < self.mean_ < math.inf,
                 f"erlang mean must be finite and > 0, got {self.mean_}")

    def lst(self, omega: float) -> float:
        return math.exp(-self.shape * math.log1p(omega * self.mean_ / self.shape))

    def lst_complement(self, omega: float) -> float:
        return -math.expm1(-self.shape * math.log1p(omega * self.mean_ / self.shape))

    def moment(self, k: int) -> float:
        # mean^k (n+1)/n ... (n+k-1)/n: each ratio is one correctly rounded
        # division of ints, so k = 1 is the mean itself and a huge shape
        # gives mean^k, not an underflowed scale times an overflowed product
        n = self.shape
        m = _power(self.mean_, k)
        for t in range(1, k):
            m *= (n + t) / n
        return m

    def sample_block(self, rng, n):
        return rng.gamma(self.shape, self.mean_ / self.shape, n)


@dataclass(frozen=True)
class Hyperexponential(Distribution):
    """Probabilistic mixture of exponentials: branch j with prob p_j, mean m_j."""

    probs: tuple
    means: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        _require(len(self.probs) == len(self.means) and len(self.probs) >= 1,
                 "hyperexponential needs matching, nonempty probs and means")
        _require(all(p > 0.0 for p in self.probs), "branch probabilities must be > 0")
        _require(all(0.0 < m < math.inf for m in self.means), "branch means must be finite and > 0")
        _require(abs(sum(self.probs) - 1.0) < 1e-12,
                 f"branch probabilities must sum to 1, got {sum(self.probs)!r}")

    def lst(self, omega: float) -> float:
        return sum(p / (1.0 + omega * m) for p, m in zip(self.probs, self.means))

    def lst_complement(self, omega: float) -> float:
        return sum(p * omega * m / (1.0 + omega * m) for p, m in zip(self.probs, self.means))

    def moment(self, k: int) -> float:
        fk = math.factorial(k)
        return sum(p * fk * _power(m, k) for p, m in zip(self.probs, self.means))

    def sample_block(self, rng, n):
        import numpy as np
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, rng.random(n), side="right")
        idx = np.minimum(idx, len(self.means) - 1)
        return rng.exponential(1.0, n) * np.asarray(self.means)[idx]


def _one_minus_expm1_ratio(x: float) -> float:
    """1 - (1 - exp(-x))/x for x >= 0, stable near 0."""
    if x < 1e-2:
        # alternating series x/2 - x^2/6 + x^3/24 - x^4/120 + x^5/720 - x^6/5040
        return x * (0.5 + x * (-1.0 / 6 + x * (1.0 / 24 + x * (-1.0 / 120 + x * (1.0 / 720 - x / 5040)))))
    return 1.0 - (-math.expm1(-x)) / x


@dataclass(frozen=True)
class Uniform(Distribution):
    low: float
    high: float

    def __post_init__(self):
        _require(self.low >= 0.0, f"uniform low must be >= 0, got {self.low}")
        _require(self.low < self.high < math.inf,
                 f"uniform needs finite high > low, got [{self.low}, {self.high}]")

    def lst(self, omega: float) -> float:
        # (1 - exp(-x))/x tends to 1 where x = (high - low) omega is 0,
        # underflowed or not
        x = (self.high - self.low) * omega
        e = math.exp(-self.low * omega)
        return e * (-math.expm1(-x)) / x if x else e

    def lst_complement(self, omega: float) -> float:
        if omega == 0.0:
            return 0.0
        c = self.high - self.low
        a = -math.expm1(-self.low * omega)  # 1 - exp(-a*omega)
        return a + (1.0 - a) * _one_minus_expm1_ratio(c * omega)

    def moment(self, k: int) -> float:
        # (b^(k+1) - a^(k+1)) / ((k+1)(b - a)) as (a^k + a^(k-1) b + ... +
        # b^k) / (k+1), by h <- a^i + b h: every term is nonnegative
        a, b = self.low, self.high
        h = a_i = 1.0
        for _ in range(k):
            a_i *= a
            h = a_i + b * h
        return h / (k + 1)

    def sample_block(self, rng, n):
        return rng.uniform(self.low, self.high, n)


# family name: its class and config keys, one per dataclass field in field order
_FAMILIES = {
    "deterministic": (Deterministic, ("value",)),
    "exponential": (Exponential, ("mean",)),
    "erlang": (Erlang, ("shape", "mean")),
    "hyperexponential": (Hyperexponential, ("probs", "means")),
    "uniform": (Uniform, ("low", "high")),
}


def config_number(value, what: str) -> float:
    """A JSON number from a model file as a float; bools, strings and lists are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _config_numbers(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(config_number(v, what) for v in value)


def distribution_from_config(cfg: dict) -> Distribution:
    """Build a Distribution from ``{"family": ..., "params": {...}}``.

    Unknown or non-string families, unknown or missing parameters, parameters
    that are not JSON numbers (lists of numbers for hyperexponential) and a
    fractional Erlang shape are rejected with a ValueError so that malformed
    model files fail loudly.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"distribution config must be an object, got {type(cfg).__name__}")
    unknown = set(cfg) - {"family", "params"}
    if unknown:
        raise ValueError(f"unknown distribution keys: {sorted(unknown)}")
    family = cfg.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown distribution family {family!r}; "
                         f"expected one of {sorted(_FAMILIES)}")
    cls, keys = _FAMILIES[family]
    params = cfg.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"distribution {family!r} needs a params object")
    unknown = set(params) - set(keys)
    if unknown:
        raise ValueError(f"unknown parameters for {family!r}: {sorted(unknown)}")
    missing = set(keys) - set(params)
    if missing:
        raise ValueError(f"missing parameters for {family!r}: {sorted(missing)}")
    read = _config_numbers if family == "hyperexponential" else config_number
    values = [read(params[key], f"{family} {key}") for key in keys]
    if family == "erlang":
        if not values[0].is_integer():
            raise ValueError(f"erlang shape must be a whole number, got {params['shape']!r}")
        values[0] = int(values[0])
    return cls(*values)
