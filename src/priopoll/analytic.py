"""Analytic performance measures: means, variances, queue lengths, PCL.

The Analyzer wraps one validated model with a shared GF evaluator.  Every
mean rests on the exact first and second factorial moments of the polling
state at visit beginnings (``GfEvaluator.moments``, one linear solve per
model), from which it reads the cycle, intervisit and visit second moments
and the polling-state cross moment.

Mean waiting times per discipline (residual X means E(X^2)/(2E(X))):

* gated:      high  (1 + rho_h) * res(C)
              low   (1 + rho_i + rho_h) * res(C)
* mixed:      high  [rho_h res(B_h) + rho_l res(B_l)]/(1-rho_h)
                       + (1-rho_i)/(1-rho_h) * res(I)
              low   (1 + rho_l/(1-rho_h)) * res(C)
                       + rho_h/(1-rho_h) * cross/(lam_h lam_l E(C))
* exhaustive: high  as mixed but with the exhaustive intervisit
              low   M/G/1 term with completion-time services
                       + high residual-clearing term + res(I)/(1-rho_h)

Variances still come from numerically differentiating the waiting-time
transforms.  ``mean_wait_low_alt`` differentiates the low-priority waiting-time
transform for E(W_low), independent of the exact moments, for the dual-route
checks; no report path calls it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .errors import UnsupportedEvaluation
from .gf import GfEvaluator
from .model import (EXHAUSTIVE, GATED, MIXED, DerivedRates, PollingModel,
                    validate)
from .moments import lst_moment
# no longer called here; perfbench/tracing.py wraps it under this module's name
from .moments import _neville_to_zero  # noqa: F401
from .transforms import QueueTransforms

__all__ = ["Analyzer", "PerfReport", "ClassResult", "QueuePeriods", "pcl_check"]

VAR_REL_TOL = 5e-3  # accept a variance only when its error estimate is below this


@dataclass(frozen=True)
class ClassResult:
    queue: int
    cls: str                 # "H" or "L"
    discipline: str
    mean_wait: float
    var_wait: float
    mean_qlen: float


@dataclass(frozen=True)
class QueuePeriods:
    queue: int
    cycle_m1: float
    cycle_m2: float | None
    intervisit_m1: float
    intervisit_m2: float | None
    visit_m1: float
    visit_m2: float
    cross_moment: float | None


@dataclass(frozen=True)
class PerfReport:
    classes: tuple[ClassResult, ...]
    periods: tuple[QueuePeriods, ...]
    pcl_lhs: float
    pcl_rhs: float
    pcl_residual: float

    def to_csv(self) -> str:
        """Serialize per-class rows plus a system row, 6 significant digits."""
        out = io.StringIO()
        out.write("queue,class,discipline,mean_wait,var_wait,mean_qlen,"
                  "pcl_lhs,pcl_rhs,pcl_residual\n")
        for r in self.classes:
            out.write(f"{r.queue + 1},{r.cls},{r.discipline},"
                      f"{r.mean_wait:.6g},{r.var_wait:.6g},{r.mean_qlen:.6g},,,\n")
        out.write(f"system,,,,,,{self.pcl_lhs:.6g},{self.pcl_rhs:.6g},"
                  f"{self.pcl_residual:.6g}\n")
        return out.getvalue()

    def wait(self, queue: int, cls: str) -> float:
        for r in self.classes:
            if r.queue == queue and r.cls == cls:
                return r.mean_wait
        raise KeyError((queue, cls))

    def var(self, queue: int, cls: str) -> float:
        for r in self.classes:
            if r.queue == queue and r.cls == cls:
                return r.var_wait
        raise KeyError((queue, cls))


class Analyzer:
    """Transform-based performance analysis of one polling model."""

    def __init__(self, model: PollingModel, tol: float = 1e-15):
        self.model = model
        self.derived = validate(model)
        self.gf = GfEvaluator(model, self.derived, tol=tol)
        self.queues = [QueueTransforms(self.gf, i) for i in range(model.n)]
        self._moments = None

    # ------------------------------------------------------------ transforms

    def gf_visit_beginning(self, i: int, z) -> float:
        return self.gf.value(i, z)

    def cycle_time_lst(self, i: int, omega: float) -> float:
        return 1.0 - self.queues[i].cycle_complement(omega)

    def intervisit_lst(self, i: int, omega: float) -> float:
        return 1.0 - self.queues[i].intervisit_complement(omega)

    def visit_time_lst(self, i: int, omega: float) -> float:
        return 1.0 - self.queues[i].visit_complement(omega)

    def waiting_lst_high(self, i: int, omega: float) -> float:
        return 1.0 - self.queues[i].wait_high_complement(omega)

    def waiting_lst_low(self, i: int, omega: float) -> float:
        return 1.0 - self.queues[i].wait_low_complement(omega)

    def completion_time_lst(self, i: int, omega: float) -> float:
        return 1.0 - self.queues[i].completion_complement(omega)

    def qlen_gf_high(self, i: int, z: float) -> float:
        return self.queues[i].qlen_gf_high(z)

    def qlen_gf_low(self, i: int, z: float) -> float:
        return self.queues[i].qlen_gf_low(z)

    # --------------------------------------------------------- period moments

    def _state(self, i: int):
        """Queue i's entry of ``GfEvaluator.moments``, solved once per model."""
        if self._moments is None:
            self._moments = self.gf.moments()
        return self._moments[i]

    def cycle_m2(self, i: int) -> float:
        """E(C^2) of the cycle starting at queue i's visit beginning: the span
        of the low coordinate, which stays gated."""
        qt = self.queues[i]
        if qt.disc == EXHAUSTIVE or (qt.disc == MIXED and qt.lam_l <= 0.0):
            raise UnsupportedEvaluation(
                "cycle second moment unavailable: no coordinate of this queue's "
                "polling state spans a full cycle")
        return self._state(i)[1][2 * i + 1][2 * i + 1]

    def intervisit_m2(self, i: int) -> float:
        """E(I^2) of the intervisit time: the span of the high coordinate,
        which the visit empties."""
        qt = self.queues[i]
        if qt.disc == GATED or (qt.disc == MIXED and qt.lam_h <= 0.0):
            raise UnsupportedEvaluation(
                "intervisit second moment unavailable: no coordinate of this "
                "queue's polling state spans the intervisit time")
        return self._state(i)[1][2 * i][2 * i]

    def visit_m2(self, i: int) -> float:
        """E(V^2): the visit is the sum of one period T_c per class-c customer
        present at its beginning."""
        m, f = self._state(i)
        (a_h, a_l), (b_h, b_l) = self.gf.period_rates[i]
        k = 2 * i
        return (b_h * m[k] + b_l * m[k + 1] + a_h * a_h * f[k][k]
                + 2.0 * a_h * a_l * f[k][k + 1] + a_l * a_l * f[k + 1][k + 1])

    def cross_moment(self, i: int) -> float:
        """E[X_high * X_low] at a visit beginning of queue i."""
        qt = self.queues[i]
        if qt.lam_h <= 0.0 or qt.lam_l <= 0.0:
            raise UnsupportedEvaluation("cross moment needs both classes present")
        return qt.lam_h * qt.lam_l * self._state(i)[1][2 * i][2 * i + 1]

    # ----------------------------------------------------------- mean waits

    def mean_wait_high(self, i: int) -> float:
        qt = self.queues[i]
        if qt.lam_h <= 0.0:
            raise UnsupportedEvaluation("queue has no high-priority class")
        if qt.disc == GATED:
            return (1.0 + qt.rho_h) * self.cycle_m2(i) / (2.0 * qt.ec)
        num = qt.lam_h * qt.svc_h.moment(2)
        if qt.lam_l > 0.0:
            num += qt.lam_l * qt.svc_l.moment(2)
        return (num / (2.0 * (1.0 - qt.rho_h))
                + self.intervisit_m2(i) / (2.0 * qt.ec * (1.0 - qt.rho_h)))

    def mean_wait_low(self, i: int) -> float:
        qt = self.queues[i]
        if qt.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        if qt.disc == GATED:
            return (1.0 + qt.rho_i + qt.rho_h) * self.cycle_m2(i) / (2.0 * qt.ec)
        if qt.disc == MIXED:
            wait = (1.0 + qt.rho_l / (1.0 - qt.rho_h)) * self.cycle_m2(i) / (2.0 * qt.ec)
            if qt.lam_h <= 0.0:
                return wait
            factor = qt.rho_h / (1.0 - qt.rho_h)
            return wait + factor * self.cross_moment(i) / (qt.lam_h * qt.lam_l * qt.ec)
        # exhaustive: M/G/1-with-completion-times plus residual clearing terms
        b2h = qt.svc_h.moment(2)
        one_h = 1.0 - qt.rho_h
        return (qt.lam_l * (qt.svc_l.moment(2) / one_h
                            + qt.lam_h * qt.svc_l.mean * b2h / one_h**2)
                / (2.0 * (1.0 - qt.rho_i))
                + qt.lam_h * b2h / (2.0 * one_h**2)
                + self.intervisit_m2(i) / (2.0 * qt.ei * one_h))

    def mean_wait_low_alt(self, i: int) -> float:
        """E(W_low) by differentiating the waiting-time transform, a route
        independent of ``mean_wait_low``'s exact moments, for checks."""
        if self.queues[i].lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        return lst_moment(self.queues[i].wait_low_handle(), 1).value

    def mean_wait(self, i: int, cls: str) -> float:
        if cls == "H":
            return self.mean_wait_high(i)
        return self.mean_wait_low(i)

    # ------------------------------------------------------------- variances

    def var_wait(self, i: int, cls: str, rel_tol: float = VAR_REL_TOL) -> float:
        qt = self.queues[i]
        handle = qt.wait_high_handle() if cls == "H" else qt.wait_low_handle()
        mean = self.mean_wait(i, cls)
        m2 = lst_moment(handle, 2, rel_tol=rel_tol)
        return m2.value - mean * mean

    # --------------------------------------------------------------- report

    def mean_qlen(self, i: int, cls: str) -> float:
        qt = self.queues[i]
        wait = self.mean_wait(i, cls)
        if cls == "H":
            return qt.lam_h * (wait + qt.svc_h.mean)
        sojourn_svc = qt.svc_l.mean
        if qt.disc != GATED:
            sojourn_svc /= (1.0 - qt.rho_h)
        return qt.lam_l * (wait + sojourn_svc)

    def report(self, include_variances: bool = True) -> PerfReport:
        classes = []
        periods = []
        for i, qt in enumerate(self.queues):
            for cls, lam in (("H", qt.lam_h), ("L", qt.lam_l)):
                if lam <= 0.0:
                    continue
                mean = self.mean_wait(i, cls)
                var = self.var_wait(i, cls) if include_variances else math.nan
                classes.append(ClassResult(i, cls, qt.disc, mean, var,
                                           self.mean_qlen(i, cls)))
            cyc2 = iv2 = cross = None
            if qt.disc == GATED or (qt.disc == MIXED and qt.lam_l > 0.0):
                cyc2 = self.cycle_m2(i)
            if qt.disc == EXHAUSTIVE or (qt.disc == MIXED and qt.lam_h > 0.0):
                iv2 = self.intervisit_m2(i)
            if qt.disc == MIXED and qt.lam_h > 0.0 and qt.lam_l > 0.0:
                cross = self.cross_moment(i)
            periods.append(QueuePeriods(i, qt.ec, cyc2, qt.ei, iv2,
                                        qt.ev, self.visit_m2(i), cross))
        lhs, rhs, residual = pcl_check(self.model, analyzer=self)
        return PerfReport(tuple(classes), tuple(periods), lhs, rhs, residual)


def leftover_work(model: PollingModel, derived: DerivedRates, i: int) -> float:
    """Mean work E(Z) that visits leave at their own queue i: rho_i^2 E(C) for
    gated, rho_low * rho_i * E(C) for mixed and 0 for exhaustive service."""
    rho_i = derived.rho_queue[i]
    disc = model.queues[i].discipline
    if disc == GATED:
        return rho_i * rho_i * derived.mean_cycle
    if disc == MIXED:
        return derived.rho_low[i] * rho_i * derived.mean_cycle
    return 0.0


def _switchover_total_moments(model: PollingModel) -> tuple[float, float]:
    """Mean and second moment of the summed (independent) switch-over times."""
    means = [s.mean for s in model.switchovers]
    var = sum(s.moment(2) - s.mean**2 for s in model.switchovers)
    total = sum(means)
    return total, var + total * total


def pcl_check(model: PollingModel, waits: dict | None = None,
              analyzer: Analyzer | None = None) -> tuple[float, float, float]:
    """Workload conservation identity across all queues and classes.

    Returns (lhs, rhs, relative residual) where lhs is the load-weighted sum
    of mean waits and rhs the closed form built from input moments plus the
    per-discipline leftover work E(Z) of ``leftover_work``.

    ``waits`` may inject mean waits keyed by (queue_index, "H"|"L"); missing
    entries fall back to the analyzer (created on demand).
    """
    derived = validate(model)
    waits = dict(waits) if waits else {}
    need = [(i, cls)
            for i, q in enumerate(model.queues)
            for cls, lam in (("H", q.lambda_high), ("L", q.lambda_low))
            if lam > 0.0 and (i, cls) not in waits]
    if need:
        if analyzer is None:
            analyzer = Analyzer(model)
        for i, cls in need:
            waits[(i, cls)] = analyzer.mean_wait(i, cls)

    lhs = 0.0
    res_service = 0.0
    for i, q in enumerate(model.queues):
        if q.lambda_high > 0.0:
            lhs += derived.rho_high[i] * waits[(i, "H")]
            res_service += derived.rho_high[i] * q.service_high.moment(2) / (2.0 * q.service_high.mean)
        if q.lambda_low > 0.0:
            lhs += derived.rho_low[i] * waits[(i, "L")]
            res_service += derived.rho_low[i] * q.service_low.moment(2) / (2.0 * q.service_low.mean)

    rho = derived.rho_total
    es, es2 = _switchover_total_moments(model)
    rhs = rho / (1.0 - rho) * res_service
    rhs += rho * es2 / (2.0 * es)
    rhs += (rho * rho - sum(r * r for r in derived.rho_queue)) * es / (2.0 * (1.0 - rho))
    for i in range(model.n):
        rhs += leftover_work(model, derived, i)
    residual = abs(lhs - rhs) / rhs
    return lhs, rhs, residual
