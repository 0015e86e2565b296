"""Polling-system model: queues, disciplines, validation and derived rates.

A model is a cyclic polling system of N queues.  Each queue holds up to two
customer classes (high and low priority, independent Poisson arrivals) and is
served under one of three disciplines:

* ``gated``      -- a gate closes behind both classes at the start of a visit;
                    only customers in front of the gate are served, high
                    priority ones first.
* ``exhaustive`` -- the visit lasts until the queue is completely empty, high
                    priority customers always served first (non-preemptive).
* ``mixed_ge``   -- low priority customers are gated while high priority ones
                    are served exhaustively and may overtake waiting gated
                    customers.

The three differ in one fact, ``CLEARED``: the classes that may pass the
gate during a visit and so are emptied by it (gated: none, mixed: the high
class, exhaustive: both).  Every discipline-specific rule of the analysis
and the simulator reads it: a customer's period is its service extended by
the busy period of the cleared classes, a cleared class's queue length at a
visit beginning counts arrivals over the intervisit time and a kept class's
over the whole cycle, and a visit reads a class's arrival stream after the
gate closes only if that class is cleared.

A single-class queue gives the absent class a zero arrival rate and may omit
its service, which then stays ``None``.  ``QueueSpec.classes`` lists the
classes with arrivals; every layer reads a queue's classes from it and never
touches an absent class's service.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .distributions import Distribution, config_number, distribution_from_config
from .errors import NonpositiveParameter, UnstableSystem, ZeroSwitchover

__all__ = ["GATED", "EXHAUSTIVE", "MIXED", "DISCIPLINES", "CLEARED", "QueueSpec",
           "PollingModel", "DerivedRates", "validate", "load_model",
           "model_from_config", "model_to_config"]

GATED = "gated"
EXHAUSTIVE = "exhaustive"
MIXED = "mixed_ge"
DISCIPLINES = (GATED, EXHAUSTIVE, MIXED)
# per discipline, the classes (0 high, 1 low) a visit empties
CLEARED = {GATED: (), MIXED: (0,), EXHAUSTIVE: (0, 1)}


@dataclass(frozen=True)
class QueueSpec:
    """One queue: per-class arrival rates, service times and the discipline."""

    lambda_high: float
    lambda_low: float
    service_high: Distribution | None
    service_low: Distribution | None
    discipline: str = MIXED

    def __post_init__(self):
        if not (0.0 <= self.lambda_high < math.inf and 0.0 <= self.lambda_low < math.inf):
            raise NonpositiveParameter("arrival rates must be finite and >= 0")
        if self.lambda_high + self.lambda_low <= 0:
            raise NonpositiveParameter("queue needs a positive total arrival rate")
        if self.discipline not in DISCIPLINES:
            raise ValueError(f"unknown discipline {self.discipline!r}")
        if self.lambda_high > 0 and self.service_high is None:
            raise NonpositiveParameter("service_high required when lambda_high > 0")
        if self.lambda_low > 0 and self.service_low is None:
            raise NonpositiveParameter("service_low required when lambda_low > 0")
        for _, label, _, service in self.classes:
            if service.mean <= 0.0:
                raise NonpositiveParameter(
                    f"class {label} has arrivals but a zero-mean service")

    @property
    def classes(self) -> tuple:
        """(c, label, rate, service) of each class with arrivals, high (0,
        "H") before low (1, "L"); a class with zero rate is absent."""
        return tuple(x for x in ((0, "H", self.lambda_high, self.service_high),
                                 (1, "L", self.lambda_low, self.service_low))
                     if x[2] > 0.0)

    @property
    def rho_high(self) -> float:
        return self.lambda_high * self.service_high.mean if self.lambda_high > 0.0 else 0.0

    @property
    def rho_low(self) -> float:
        return self.lambda_low * self.service_low.mean if self.lambda_low > 0.0 else 0.0

    @property
    def rho(self) -> float:
        return self.rho_high + self.rho_low


@dataclass(frozen=True)
class PollingModel:
    """N queues visited cyclically; switchovers[i] follows the visit to queue i."""

    queues: tuple[QueueSpec, ...]
    switchovers: tuple[Distribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "queues", tuple(self.queues))
        object.__setattr__(self, "switchovers", tuple(self.switchovers))
        if len(self.queues) < 1:
            raise NonpositiveParameter("model needs at least one queue")
        if len(self.switchovers) != len(self.queues):
            raise NonpositiveParameter("need exactly one switch-over time per queue")

    @property
    def n(self) -> int:
        return len(self.queues)

    def replace_discipline(self, i: int, discipline: str) -> "PollingModel":
        """Copy of the model with queue i's discipline swapped."""
        queues = list(self.queues)
        queues[i] = replace(queues[i], discipline=discipline)
        return replace(self, queues=tuple(queues))


@dataclass(frozen=True)
class DerivedRates:
    """Closed-form load and mean period lengths implied by a stable model."""

    rho_high: tuple[float, ...]
    rho_low: tuple[float, ...]
    rho_queue: tuple[float, ...]
    rho_total: float
    mean_cycle: float
    mean_intervisit: tuple[float, ...]
    mean_visit: tuple[float, ...]


def validate(model: PollingModel) -> DerivedRates:
    """Check stability and switch-over positivity; return derived rates.

    Raises UnstableSystem when the total load is >= 1 and ZeroSwitchover when
    every switch-over time has zero mean (the cycle would collapse).
    """
    rho_h = tuple(q.rho_high for q in model.queues)
    rho_l = tuple(q.rho_low for q in model.queues)
    rho_q = tuple(h + l for h, l in zip(rho_h, rho_l))
    rho = sum(rho_q)
    if not rho < 1.0:
        raise UnstableSystem(rho)
    s_mean = sum(s.mean for s in model.switchovers)
    if s_mean <= 0.0:
        raise ZeroSwitchover("at least one switch-over time must have positive mean")
    ec = s_mean / (1.0 - rho)
    return DerivedRates(
        rho_high=rho_h,
        rho_low=rho_l,
        rho_queue=rho_q,
        rho_total=rho,
        mean_cycle=ec,
        mean_intervisit=tuple((1.0 - r) * ec for r in rho_q),
        mean_visit=tuple(r * ec for r in rho_q),
    )


_QUEUE_KEYS = {"lambda_high", "lambda_low", "service_high", "service_low", "discipline"}


def model_from_config(cfg: dict) -> PollingModel:
    """Build a PollingModel from a parsed JSON document; unknown keys rejected."""
    if not isinstance(cfg, dict):
        raise ValueError("model config must be an object")
    unknown = set(cfg) - {"queues", "switchovers"}
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    queues_cfg = cfg.get("queues")
    swo_cfg = cfg.get("switchovers")
    if not isinstance(queues_cfg, list) or not queues_cfg:
        raise ValueError("model needs a nonempty 'queues' list")
    if not isinstance(swo_cfg, list):
        raise ValueError("model needs a 'switchovers' list")
    queues = []
    for pos, qc in enumerate(queues_cfg):
        if not isinstance(qc, dict):
            raise ValueError(f"queue {pos}: expected an object")
        unknown = set(qc) - _QUEUE_KEYS
        if unknown:
            raise ValueError(f"queue {pos}: unknown keys {sorted(unknown)}")
        svc_h = qc.get("service_high")
        svc_l = qc.get("service_low")
        queues.append(QueueSpec(
            lambda_high=config_number(qc.get("lambda_high", 0.0), f"queue {pos}: lambda_high"),
            lambda_low=config_number(qc.get("lambda_low", 0.0), f"queue {pos}: lambda_low"),
            service_high=distribution_from_config(svc_h) if svc_h is not None else None,
            service_low=distribution_from_config(svc_l) if svc_l is not None else None,
            discipline=qc.get("discipline", MIXED),
        ))
    switchovers = [distribution_from_config(sc) for sc in swo_cfg]
    return PollingModel(tuple(queues), tuple(switchovers))


def model_to_config(model: PollingModel) -> dict:
    queues = []
    for q in model.queues:
        qc = {"lambda_high": q.lambda_high, "lambda_low": q.lambda_low,
              "discipline": q.discipline}
        for c, _, _, service in q.classes:
            qc[("service_high", "service_low")[c]] = service.to_config()
        queues.append(qc)
    return {"queues": queues,
            "switchovers": [s.to_config() for s in model.switchovers]}


def load_model(path) -> PollingModel:
    """Read a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_config(json.load(fh))
