"""Analytic performance measures: means, variances, queue lengths, PCL.

The Analyzer wraps one validated model with a shared GF evaluator.  Every
mean and variance rests on the exact factorial moments of the polling state
at visit beginnings up to order three (``GfEvaluator.moments`` and
``third_moments``, each solved once per model), from which it reads the
cycle, intervisit and visit second moments and the polling-state cross
moment.

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

Second moments E(W^2) (``wait_m2``) expand the waiting-time LSTs of
``transforms`` in power series about 0 up to omega^2 (Faa di Bruno): the GF
becomes the moments of queue i's two spans up to order three, and the
service, busy-period and completion-time LSTs their moments up to order
three.  No report path differentiates a transform numerically or evaluates
the GF.  ``mean_wait_low_alt`` differentiates the low-priority waiting-time
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


def _check_class(cls: str) -> None:
    if cls not in ("H", "L"):
        raise ValueError(f"class must be 'H' or 'L', got {cls!r}")


class Analyzer:
    """Transform-based performance analysis of one polling model."""

    def __init__(self, model: PollingModel):
        self.model = model
        self.derived = validate(model)
        self.gf = GfEvaluator(model, self.derived)
        self.queues = [QueueTransforms(self.gf, i) for i in range(model.n)]
        self._moments = None
        self._third_moments = None

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

    def _third(self, i: int):
        """Queue i's entry of ``GfEvaluator.third_moments``, solved once per
        model when a variance first asks for it."""
        if self._third_moments is None:
            self._third_moments = self.gf.third_moments(*self._state(0))
        return self._third_moments[i]

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
        (a_h, a_l), (b_h, b_l), _ = self.gf.period_rates[i]
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
        _check_class(cls)
        if cls == "H":
            return self.mean_wait_high(i)
        return self.mean_wait_low(i)

    # ------------------------------------------------------------- variances

    def wait_m2(self, i: int, cls: str) -> float:
        """E(W^2): twice the omega^2 coefficient of the waiting-time LST of
        ``transforms``, expanded about 0 from exact moments."""
        _check_class(cls)
        qt = self.queues[i]
        lst = self._wait_high_series(qt) if cls == "H" else self._wait_low_series(qt)
        return 2.0 * lst[2]

    def var_wait(self, i: int, cls: str) -> float:
        """Var(W) = E(W^2) - E(W)^2, both exact."""
        mean = self.mean_wait(i, cls)
        return self.wait_m2(i, cls) - mean * mean

    def _span_complement(self, i: int, alpha: list, beta: list) -> list:
        """1 - E exp(-alpha S_H - beta S_L) as a series in omega, for series
        alpha and beta without constant term, where S_H and S_L are the spans
        of queue i's coordinates at its visit beginning: the GF complement
        ``complement_pair(i, zh, zl)`` with alpha = lam_h zh, beta = lam_l zl."""
        m, f = self._state(i)
        t = self._third(i)
        k = (2 * i, 2 * i + 1)
        # E(L_s L_u ...) for L_s = alpha_s S_H + beta_s S_L
        w = [(alpha[s], beta[s]) for s in (1, 2, 3)]

        def e1(u):
            return u[0] * m[k[0]] + u[1] * m[k[1]]

        def e2(u, v):
            return sum(u[a] * v[b] * f[k[a]][k[b]] for a in (0, 1) for b in (0, 1))

        e3 = sum(w[0][a] * w[0][b] * w[0][c] * t[k[a]][k[b]][k[c]]
                 for a in (0, 1) for b in (0, 1) for c in (0, 1))
        return [0.0, e1(w[0]), e1(w[1]) - e2(w[0], w[0]) / 2.0,
                e1(w[2]) - e2(w[0], w[1]) + e3 / 6.0]

    def _wait_high_series(self, qt) -> list:
        """LST of W_H up to omega^2."""
        if qt.lam_h <= 0.0:
            raise UnsupportedEvaluation("queue has no high-priority class")
        i = qt.i
        bc_h = _complement_series(qt.svc_h)
        if qt.disc == GATED:
            tot = qt.lam_h + qt.lam_l
            cycle = self._span_complement(i, _scale(qt.lam_h / tot, _OMEGA),
                                          _scale(qt.lam_l / tot, _OMEGA))
            served = self._span_complement(i, _scale(qt.lam_h, bc_h), _ZERO)
            return _gate_wait(cycle, served, qt.ec, qt.rho_h, bc_h, qt.svc_h.mean)
        # M/G/1 factor times a vacation: an intervisit time, which the high
        # coordinate spans, or a low service
        iv = self._span_complement(i, _OMEGA, _ZERO)
        vac = _scale((1.0 - qt.rho_i) / (1.0 - qt.rho_h), _residual(iv, qt.ei))
        if qt.lam_l > 0.0:
            vac = _add(vac, _scale(qt.rho_l / (1.0 - qt.rho_h),
                                   _residual(_complement_series(qt.svc_l), qt.svc_l.mean)))
        return _div(_scale(1.0 - qt.rho_h, vac),
                    _one_minus(qt.rho_h, _residual(bc_h, qt.svc_h.mean)))

    def _wait_low_series(self, qt) -> list:
        """LST of W_L up to omega^2."""
        if qt.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        i = qt.i
        bc_l = _complement_series(qt.svc_l)
        if qt.disc == GATED:
            a_h = _scale(qt.lam_h, _complement_series(qt.svc_h))
            cycle = self._span_complement(i, a_h, _OMEGA)
            served = self._span_complement(i, a_h, _scale(qt.lam_l, bc_l))
            return _gate_wait(cycle, served, qt.ec, qt.rho_l, bc_l, qt.svc_l.mean)
        # a low service extended by the high busy periods it starts: the
        # completion time B*
        a_h = _scale(qt.lam_h, _complement_series(qt._busy_h))
        bstar = _compose(bc_l, _add(_OMEGA, a_h))
        rho_star = qt.rho_l / (1.0 - qt.rho_h)
        e_bstar = qt.svc_l.mean / (1.0 - qt.rho_h)
        at_omega = self._span_complement(i, a_h, _OMEGA)
        if qt.disc == MIXED:
            served = self._span_complement(i, a_h, _scale(qt.lam_l, bstar))
            return _gate_wait(at_omega, served, qt.ec, rho_star, bstar, e_bstar)
        # exhaustive: both coordinates span the intervisit time
        return _div(_scale((1.0 - rho_star) * (1.0 - qt.rho_h) / qt.ei, at_omega[1:]),
                    _one_minus(rho_star, _residual(bstar, e_bstar)))

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


# Truncated power series in omega: coefficient lists, omega^0 first.

_OMEGA = [0.0, 1.0, 0.0, 0.0]
_ZERO = [0.0] * 4


def _complement_series(x) -> list:
    """1 - E exp(-omega X) up to omega^3, from the moments of X (a
    Distribution or a BusyPeriod)."""
    return [0.0, x.moment(1), -x.moment(2) / 2.0, x.moment(3) / 6.0]


def _residual(c: list, mean: float) -> list:
    """LST c(omega)/(omega E(X)) of the residual of X, from the complement
    series c of X; one order shorter."""
    return [v / mean for v in c[1:]]


def _scale(a: float, x: list) -> list:
    return [a * v for v in x]


def _add(x: list, y: list) -> list:
    return [a + b for a, b in zip(x, y)]


def _one_minus(rho: float, x: list) -> list:
    return [1.0 - rho * x[0]] + [-rho * v for v in x[1:]]


def _mul(x: list, y: list) -> list:
    return [sum(x[k] * y[n - k] for k in range(n + 1)) for n in range(min(len(x), len(y)))]


def _div(x: list, y: list) -> list:
    q = []
    for n in range(min(len(x), len(y))):
        q.append((x[n] - sum(q[k] * y[n - k] for k in range(n))) / y[0])
    return q


def _compose(c: list, x: list) -> list:
    """c(x(omega)) for series c and x without constant term."""
    out = [0.0] * len(x)
    power = [1.0] + [0.0] * (len(x) - 1)
    for ck in c[1:]:
        power = _mul(power, x)
        out = _add(out, _scale(ck, power))
    return out


def _gate_wait(cycle: list, served: list, ec: float, rho: float,
               bc: list, mean: float) -> list:
    """The wait of a gated class, (cycle - served)/(omega E(C) (1 - rho R_B)):
    the GF complements at the cycle and the served arguments, and the
    complement series bc of the class's (extended) service B."""
    num = [(a - b) / ec for a, b in zip(cycle[1:], served[1:])]
    return _div(num, _one_minus(rho, _residual(bc, mean)))


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
