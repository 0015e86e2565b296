"""Analytic performance measures: means, variances, queue lengths, PCL.

The Analyzer wraps one model with a shared GF evaluator, which validates it
and checks its service and switch-over moments; ``pcl_check`` goes through
an Analyzer too.  Every mean and variance rests on the exact factorial moments of the polling state
at visit beginnings (``GfEvaluator.moments`` up to order two and
``third_moments``, each solved once per model, the latter only when a
variance asks for it and only on each queue's distinct spans), from which it
also reads the cycle, intervisit and visit second moments and the
polling-state cross moment.

Each class's waiting-time LST is written once, in
``QueueTransforms.wait_high`` and ``wait_low``, and read here as one power
series about 0 (``_SeriesReading``): the GF becomes the moments of queue i's
one or two spans, and the service, busy-period and completion-time LSTs
their moments composed with their arguments (Faa di Bruno).  E(W) is minus
its omega^1 coefficient and E(W^2) twice its omega^2 coefficient.  A series
taken to omega^k reads moments up to order k + 1, so means never solve
``third_moments``.  No report path differentiates a transform numerically
or evaluates the GF.  ``mean_wait_alt`` differentiates the float reading
of the same transform for E(W); no report path calls it.  The two
readings share the decomposition, so comparing them checks the exact moment
layer against the GF product and the busy-period fixed point, not the
decomposition itself.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import OutOfRange, UnsupportedEvaluation
from .gf import GfEvaluator
from .model import PollingModel
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

    def _row(self, queue: int, cls: str) -> ClassResult:
        for r in self.classes:
            if r.queue == queue and r.cls == cls:
                return r
        raise KeyError((queue, cls))

    def wait(self, queue: int, cls: str) -> float:
        return self._row(queue, cls).mean_wait

    def var(self, queue: int, cls: str) -> float:
        return self._row(queue, cls).var_wait


def _wait_name(cls: str) -> str:
    """The name of class ``cls``'s waiting-time transform."""
    if cls not in ("H", "L"):
        raise ValueError(f"class must be 'H' or 'L', got {cls!r}")
    return "wait_high" if cls == "H" else "wait_low"


class Analyzer:
    """Transform-based performance analysis of one polling model."""

    def __init__(self, model: PollingModel):
        self.model = model
        self.gf = GfEvaluator(model)
        self.derived = self.gf.derived
        self.queues = [QueueTransforms(self.gf, i) for i in range(model.n)]

    # ------------------------------------------------------------ transforms

    def gf_visit_beginning(self, i: int, z) -> float:
        """The joint queue-length GF at queue i's visit beginning, at z in [0, 1]^(2N)."""
        return math.exp(self.gf.log_value(i, [1.0 - float(v) for v in z]))

    def lst(self, i: int, name: str, omega: float) -> float:
        """LST at omega of queue i's transform ``name``, one of the names
        ``QueueTransforms.omega_max`` takes, which also says where it can be
        evaluated."""
        return 1.0 - self.queues[i].handle(name).complement(omega)

    # --------------------------------------------------------- period moments

    @cached_property
    def _states(self) -> list:
        """``GfEvaluator.moments``: per queue, the state (m, f) at its visit
        beginning, solved once per model."""
        return self.gf.moments()

    @cached_property
    def _thirds(self) -> list:
        """``GfEvaluator.third_moments``: per queue, the third moments of the
        spans of its two classes, solved once per model when a variance
        first asks for them."""
        return self.gf.third_moments(self._states)

    def cycle_m2(self, i: int) -> float:
        """E(C^2) of the cycle starting at queue i's visit beginning: the span
        of the classes the visit keeps."""
        return self._span_m2(i, self.queues[i].kept, "cycle")

    def intervisit_m2(self, i: int) -> float:
        """E(I^2) of the intervisit time: the span of the classes the visit
        empties."""
        return self._span_m2(i, self.queues[i].cleared, "intervisit")

    def _span_m2(self, i: int, classes: tuple, name: str) -> float:
        """E(S^2) of the span ``classes``' coordinates count arrivals over,
        available where its transform is (``omega_max`` raises elsewhere)."""
        self.queues[i].omega_max(name)
        k = 2 * i + classes[0]
        return self._states[i][1][k][k]

    def visit_m2(self, i: int) -> float:
        """E(V^2): the visit is the sum of one period T_c per class-c customer
        present at its beginning."""
        m, f = self._states[i]
        (a_h, a_l), (b_h, b_l), _ = self.gf.period_rates[i]
        k = 2 * i
        return (b_h * m[k] + b_l * m[k + 1] + a_h * a_h * f[k][k]
                + 2.0 * a_h * a_l * f[k][k + 1] + a_l * a_l * f[k + 1][k + 1])

    def cross_moment(self, i: int) -> float:
        """E[X_high * X_low] at a visit beginning of queue i."""
        qt = self.queues[i]
        if len(qt.q.classes) < 2:
            raise UnsupportedEvaluation("cross moment needs both classes present")
        cross = qt.lam_h * qt.lam_l * self._states[i][1][2 * i][2 * i + 1]
        if not math.isfinite(cross):
            raise OutOfRange(f"queue {i + 1}: the cross moment {cross!r} does not fit in a float")
        return cross

    # ------------------------------------------------------- waiting times

    def mean_wait_alt(self, i: int, cls: str) -> float:
        """E(W) by differentiating the float reading of the waiting-time
        transform, for checks.  It shares the decomposition with
        ``mean_wait`` but none of its moments: the two check the exact
        moment layer against the GF product and the busy-period fixed point."""
        return lst_moment(self.queues[i].handle(_wait_name(cls)), 1).value

    def mean_wait(self, i: int, cls: str) -> float:
        """E(W): minus the omega^1 coefficient of the waiting-time LST."""
        return -self._wait_series(i, cls, 1)[1]

    def wait_m2(self, i: int, cls: str) -> float:
        """E(W^2): twice the omega^2 coefficient of the waiting-time LST."""
        return 2.0 * self._wait_series(i, cls, 2)[2]

    def var_wait(self, i: int, cls: str) -> float:
        """Var(W) = E(W^2) - E(W)^2, both from one series."""
        return _variance(self._wait_series(i, cls, 2))

    def _wait_series(self, i: int, cls: str, order: int) -> list:
        """LST of queue i's class ``cls`` waiting time, expanded about 0 from
        exact moments up to omega^order (1 or 2).  Raises OutOfRange unless
        every coefficient is finite, the mean positive and, at order 2, the
        variance nonnegative."""
        qt = self.queues[i]
        name = _wait_name(cls)
        qt.omega_max(name)  # raises without the class
        r = _SeriesReading(self, qt, order + 2)  # inputs reach one order further
        series = getattr(qt, name)(r, r.omega)
        # moments that fit in a float can still overflow in their products
        if not all(map(math.isfinite, series)):
            raise OutOfRange(
                f"queue {i + 1} class {cls}: a waiting-time moment does not fit in a float")
        # and times too small for a float can underflow in them
        if not -series[1] > 0.0 or order == 2 and _variance(series) < 0.0:
            raise OutOfRange(
                f"queue {i + 1} class {cls}: the waiting-time moments {series[1:]!r} give "
                "no positive mean and nonnegative variance: the model's times underflow "
                "a float")
        return series

    def _span_complement(self, i: int, alpha: list, beta: list) -> list:
        """1 - E exp(-alpha S_H - beta S_L) as a series in omega, for series
        alpha and beta without constant term and of equal length 3 or 4, where
        S_H and S_L are the spans of queue i's coordinates at its visit
        beginning: the GF complement ``complement_pair(i, zh, zl)`` with
        alpha = lam_h zh, beta = lam_l zl.  The series are first folded onto
        the distinct spans (``GfEvaluator.spans``): where both coordinates
        span one period S it is 1 - E exp(-(alpha + beta) S), read from E(S),
        E(S^2) and E(S^3).  Only the omega^3 term reads the third moments."""
        m, f = self._states[i]
        # E(L_s L_u ...) for L_s the omega^s coefficient of the exponent,
        # a combination of the spans at coordinates k
        if self.gf.spans[i][1]:
            k = (2 * i, 2 * i + 1)
            w = list(zip(alpha[1:], beta[1:]))
        else:
            k = (2 * i,)
            w = [(a + b,) for a, b in zip(alpha[1:], beta[1:])]
        idx = range(len(k))

        def e1(u):
            return sum(u[a] * m[k[a]] for a in idx)

        def e2(u, v):
            return sum(u[a] * v[b] * f[k[a]][k[b]] for a in idx for b in idx)

        out = _Series([0.0, e1(w[0]), e1(w[1]) - e2(w[0], w[0]) / 2.0])
        if len(w) > 2:
            t = self._thirds[i]
            e3 = sum(w[0][a] * w[0][b] * w[0][c] * t[a][b][c]
                     for a in idx for b in idx for c in idx)
            out.append(e1(w[2]) - e2(w[0], w[1]) + e3 / 6.0)
        return out

    # --------------------------------------------------------------- report

    def mean_qlen(self, i: int, cls: str) -> float:
        return _little(self.queues[i], cls, self.mean_wait(i, cls))

    def qlen_gf(self, i: int, cls: str, z: float) -> float:
        """E[z^(number of class ``cls`` customers at queue i)], waiting or in
        service, for z in [0, 1]: the waiting-time LST times that of the
        service at lam (1 - z).  Where the visit clears the high class,
        high-priority overtaking extends a low customer's service to the
        completion time, as in ``_little``."""
        name = _wait_name(cls)
        qt = self.queues[i]
        qt.omega_max(name)  # raises without the class
        if math.isnan(z):
            raise ValueError(f"z must be a number, got {z!r}")
        if not 0.0 <= z <= 1.0:
            raise UnsupportedEvaluation("z must lie in [0, 1]")
        if z == 1.0:
            return 1.0
        high = cls == "H"
        omega = (qt.lam_h if high else qt.lam_l) * (1.0 - z)
        wait = self.lst(i, name, omega)
        if not high and 0 in qt.cleared:
            return wait * self.lst(i, "completion", omega)
        return wait * (qt.svc_h if high else qt.svc_l).lst(omega)

    def report(self, include_variances: bool = True) -> PerfReport:
        classes = []
        periods = []
        waits = {}
        order = 2 if include_variances else 1
        for i, qt in enumerate(self.queues):
            for _, cls, _, _ in qt.q.classes:
                series = self._wait_series(i, cls, order)
                mean = waits[(i, cls)] = -series[1]
                var = _variance(series) if include_variances else math.nan
                classes.append(ClassResult(i, cls, qt.q.discipline, mean, var,
                                           _little(qt, cls, mean)))
            cyc2 = iv2 = cross = None
            if _available(qt, "cycle"):
                cyc2 = self.cycle_m2(i)
            if _available(qt, "intervisit"):
                iv2 = self.intervisit_m2(i)
            if cyc2 is not None and iv2 is not None:
                # the coordinates span different periods; where both span
                # one, the cross moment is lam_h lam_l times its E(S^2)
                cross = self.cross_moment(i)
            periods.append(QueuePeriods(i, qt.ec, cyc2, qt.ei, iv2,
                                        qt.ev, self.visit_m2(i), cross))
        lhs, rhs, residual = _pcl(self, waits)
        return PerfReport(tuple(classes), tuple(periods), lhs, rhs, residual)


def _available(qt, name: str) -> bool:
    """Whether queue qt's transform ``name`` can be evaluated, as
    ``omega_max`` decides it."""
    try:
        qt.omega_max(name)
    except UnsupportedEvaluation:
        return False
    return True


def _variance(series: list) -> float:
    """E(W^2) - E(W)^2 from a waiting-time LST series up to omega^2."""
    return 2.0 * series[2] - series[1] * series[1]


def _little(qt, cls: str, wait: float) -> float:
    """Mean number of class ``cls`` customers at queue qt, waiting or in
    service (its period B for a low class), by Little's law from its mean wait."""
    qlen = qt.lam_h * (wait + qt.svc_h.mean) if cls == "H" else qt.lam_l * (wait + qt.eb)
    if not math.isfinite(qlen):
        raise OutOfRange(f"queue {qt.i + 1} class {cls}: the mean queue length {qlen!r} "
                         "does not fit in a float")
    return qlen


class _Series(list):
    """A power series in omega, omega^0 first, truncated after its last
    coefficient.  Binary operations truncate to the shorter operand, and a
    float on either side acts as a constant series.  A divisor needs a
    nonzero constant term: ``_SeriesReading.residual`` divides by omega."""

    def __add__(self, y):
        if isinstance(y, _Series):
            return _Series(map(operator.add, self, y))
        return _Series([self[0] + y, *self[1:]])

    __radd__ = __add__

    def __sub__(self, y):
        if isinstance(y, _Series):
            return _Series(map(operator.sub, self, y))
        return _Series([self[0] - y, *self[1:]])

    def __rsub__(self, y):
        return _Series([y - self[0], *[-v for v in self[1:]]])

    def __mul__(self, y):
        if isinstance(y, _Series):
            return _Series(sum(self[k] * y[n - k] for k in range(n + 1))
                           for n in range(min(len(self), len(y))))
        return _Series([v * y for v in self])

    __rmul__ = __mul__

    def __truediv__(self, y):
        if not isinstance(y, _Series):
            return _Series([v / y for v in self])
        q = _Series()
        for n in range(min(len(self), len(y))):
            q.append((self[n] - sum(q[k] * y[n - k] for k in range(n))) / y[0])
        return q

    def __rtruediv__(self, y):
        return _Series([y] + [0.0] * (len(self) - 1)) / self

    # not list's in-place concatenation and repetition
    __iadd__ = __add__
    __imul__ = __mul__


class _SeriesReading:
    """The reading of ``QueueTransforms.wait_high``/``wait_low`` that expands
    them in power series about 0 up to omega^(n - 1), from exact moments: the
    GF complement becomes the moments of queue qt's one or two spans
    (``Analyzer._span_complement``), a service's or a busy period's
    complement its moments composed with the argument (Faa di Bruno)."""

    def __init__(self, analyzer, qt, n: int):
        self.analyzer = analyzer
        self.qt = qt
        self.n = n
        self.omega = _Series([0.0, 1.0, 0.0, 0.0][:n])
        self.zero = _Series([0.0] * n)

    def complement(self, x, arg):
        """1 - E exp(-arg X) for a Distribution or BusyPeriod X and a series
        ``arg`` without constant term: the series of X's moments composed
        with ``arg`` (Faa di Bruno, up to omega^3).  A busy-period moment past
        the float range is inf, which ``_wait_series`` checks for."""
        c = [(-1) ** (k + 1) * x.moment(k) / math.factorial(k) for k in range(1, self.n)]
        a1, a2 = arg[1], arg[2]
        out = _Series([0.0, c[0] * a1, c[0] * a2 + c[1] * (a1 * a1)])
        if self.n > 3:
            out.append(c[0] * arg[3] + c[1] * (2.0 * a1 * a2) + c[2] * (a1 * a1 * a1))
        return out

    def residual(self, c, w, mean):
        """c/(omega mean): the complement series c shifted down one order."""
        return _Series([v / mean for v in c[1:]])

    def gf_complement(self, zh, zl):
        """1 - GF at z-complements zh, zl of queue qt's own coordinates, a
        float 0 for an inert one: the exponents are lam_h zh and lam_l zl."""
        qt = self.qt
        return self.analyzer._span_complement(qt.i, *(
            lam * z if isinstance(z, _Series) else self.zero
            for lam, z in ((qt.lam_h, zh), (qt.lam_l, zl))))

    def span(self, classes, w):
        """1 - LST of the span of ``classes``: the exponent on the first of
        their coordinates, which all span it."""
        pair = (w, self.zero) if classes[0] == 0 else (self.zero, w)
        return self.analyzer._span_complement(self.qt.i, *pair)


def leftover_work(qt: QueueTransforms) -> float:
    """Mean work E(Z) that visits leave at their own queue: the load of the
    classes the visit keeps times rho_i E(C) (rho_i^2 E(C) for gated, rho_low
    rho_i E(C) for mixed and 0 for exhaustive service)."""
    return sum((qt.rho_h, qt.rho_l)[c] for c in qt.kept) * qt.rho_i * qt.ec


def _switchover_total_moments(model: PollingModel) -> tuple[float, float]:
    """Mean and second moment of the summed (independent) switch-over times."""
    means = [s.mean for s in model.switchovers]
    var = sum(s.moment(2) - s.mean * s.mean for s in model.switchovers)
    total = sum(means)
    return total, var + total * total


def pcl_check(model: PollingModel,
              waits: dict | None = None) -> tuple[float, float, float]:
    """Workload conservation identity across all queues and classes.

    Returns (lhs, rhs, relative residual) where lhs is the load-weighted sum
    of mean waits and rhs the closed form built from input moments plus the
    per-discipline leftover work E(Z) of ``leftover_work``.

    ``waits`` may inject finite mean waits keyed by the model's classes
    (queue_index, "H"|"L"); missing entries come from the ``Analyzer`` of the
    model, which first validates it and checks its moments.
    """
    analyzer = Analyzer(model)
    keys = [(i, cls) for i, q in enumerate(model.queues) for _, cls, _, _ in q.classes]
    given = waits or {}
    for key, wait in given.items():
        if key not in keys or not math.isfinite(wait):
            raise ValueError(f"waits[{key!r}] = {wait!r}: not a finite mean wait "
                             "of a class of the model")
    waits = {key: given[key] if key in given else analyzer.mean_wait(*key) for key in keys}
    return _pcl(analyzer, waits)


def _pcl(analyzer: Analyzer, waits: dict) -> tuple[float, float, float]:
    """``pcl_check`` of the analyzer's model, given every class's mean wait."""
    model, derived = analyzer.model, analyzer.derived
    lhs = 0.0
    res_service = 0.0
    for i, q in enumerate(model.queues):
        for _, cls, lam, svc in q.classes:
            lhs += lam * svc.mean * waits[(i, cls)]
            res_service += lam * svc.mean * svc.moment(2) / (2.0 * svc.mean)

    rho = derived.rho_total
    es, es2 = _switchover_total_moments(model)
    rhs = rho / (1.0 - rho) * res_service
    rhs += rho * es2 / (2.0 * es)
    rhs += (rho * rho - sum(r * r for r in derived.rho_queue)) * es / (2.0 * (1.0 - rho))
    for qt in analyzer.queues:
        rhs += leftover_work(qt)
    if not rhs > 0.0:
        raise OutOfRange(f"conservation sum {rhs!r} is not positive: the "
                         "model's loads and times underflow a float")
    residual = abs(lhs - rhs) / rhs
    return lhs, rhs, residual
