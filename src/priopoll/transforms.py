"""Per-queue transform assembly: cycle, intervisit, visit and waiting times.

Everything is built from the visit-beginning GF plus closed-form service
transforms.  The two queue-i coordinates of the GF read off different periods
by one span rule, from the classes ``CLEARED`` says a visit empties:

* a cleared class's coordinate counts arrivals over the previous
  *intervisit* time, because the visit ends with none of that class left;
* a kept class's coordinate counts arrivals over the previous *cycle*,
  because a gated customer waits exactly one cycle between gate placements.

So under gated service both coordinates span the cycle, under exhaustive
service both span the intervisit time, and under mixed service the high one
the intervisit and the low one the cycle.  A span's transform splits the
exponent across its classes with arrivals; with none it is unavailable.

Waiting-time transforms follow the decomposition of a vacation queue: an
M/G/1 factor for the customer's own class (with completion-time services
where high-priority overtaking extends a low-priority customer's effective
service) times a residual term for the periods in which the class is not
served.  ``wait_high`` and ``wait_low`` write it once, one branch per
discipline, against a reading ``r``: ``complement`` of a service or a busy
period, ``gf_complement`` at the queue's own z-complements, ``span`` and
``residual``; plain arithmetic does the rest.  ``QueueTransforms`` itself is
the float reading, and ``analytic`` reads the same code as power series in
omega.  The period evaluators return complements assembled from complement
building blocks, so small-w differencing stays accurate; the waiting-time
complements are 1 - W, about 1e-16 off in absolute terms.
"""

from __future__ import annotations

import math

from .busyperiod import BusyPeriod
from .errors import UnsupportedEvaluation
from .model import CLEARED, GATED, MIXED
from .moments import TransformHandle

__all__ = ["QueueTransforms"]


class QueueTransforms:
    """Transforms of one queue in a validated model.

    Parameters come from the owning analyzer: the shared GfEvaluator, the
    derived rates, and the queue index.
    """

    def __init__(self, gf, i: int):
        self.gf = gf
        self.i = i
        q = gf.model.queues[i]
        d = gf.derived
        self.q = q
        self.disc = q.discipline
        self.lam_h = q.lambda_high
        self.lam_l = q.lambda_low
        self.rho_h = d.rho_high[i]
        self.rho_l = d.rho_low[i]
        self.rho_i = d.rho_queue[i]
        self.ec = d.mean_cycle
        self.ei = d.mean_intervisit[i]
        self.ev = d.mean_visit[i]
        self.svc_h = q.service_high
        self.svc_l = q.service_low
        # the high busy period that extends a low service; None without highs
        self._busy_h = BusyPeriod(q.service_high, q.lambda_high) if q.lambda_high > 0.0 else None
        # the span rule: the classes a visit clears (0 high, 1 low) count
        # arrivals over the intervisit time, the kept ones over the cycle.
        # Two coordinates share a span exactly when both are kept or both
        # cleared (``GfEvaluator.spans``), and the exact moments read it once
        self.cleared = CLEARED[q.discipline]
        self.kept = tuple(c for c in (0, 1) if c not in self.cleared)
        # base differencing step: keeps GF arguments well inside [0, 1]
        self.h0 = 1e-3 * min(min(lam for _, _, lam, _ in q.classes), 1.0) / max(1.0, self.ec)

    # ------------------------------------------------------------- periods

    def span_rate(self, classes) -> float:
        """The total arrival rate of ``classes``: the largest argument at
        which the span they count arrivals over is evaluable, zero where
        that span is unavailable."""
        return sum((self.lam_h, self.lam_l)[c] for c in classes)

    def span(self, classes, omega: float) -> float:
        """1 - LST of the span that ``classes``' coordinates count arrivals
        over: the exponent split across them in proportion to their rates,
        so each stays within its own rate bound (a class without arrivals
        has an inert coordinate)."""
        name = "cycle" if classes == self.kept else "intervisit"
        tot = self.span_rate(classes)
        if tot <= 0.0:
            raise UnsupportedEvaluation(
                f"{name} transform unavailable at queue {self.i + 1}: no class "
                "with arrivals counts them over it")
        if omega == 0.0:
            return 0.0
        if omega > tot:
            raise UnsupportedEvaluation(
                f"{name} transform evaluable only for omega <= {tot}")
        return self.gf.complement_pair(
            self.i, *(omega / tot if c in classes else 0.0 for c in (0, 1)))

    def cycle_complement(self, omega: float) -> float:
        """1 - LST of the cycle time anchored at this queue's visit beginning."""
        return self.span(self.kept, omega)

    def intervisit_complement(self, omega: float) -> float:
        """1 - LST of the intervisit time (visit end to next visit start)."""
        return self.span(self.cleared, omega)

    def visit_complement(self, omega: float) -> float:
        """1 - LST of the visit time: the sum of one period T_c per class-c
        customer present at the visit beginning."""
        if omega == 0.0:
            return 0.0
        zh, zl, _ = self.gf.period_complements(self.i, omega)
        return self.gf.complement_pair(self.i, zh, zl)

    # ------------------------------------------------------- waiting times

    # the float reading of ``wait_high`` and ``wait_low``, with ``span``

    def complement(self, x, arg: float) -> float:
        """1 - E exp(-arg X) of a service or a busy period X."""
        return x.lst_complement(arg)

    def gf_complement(self, zh: float, zl: float) -> float:
        """1 - GF at z-complements zh, zl of this queue's own coordinates."""
        return self.gf.complement_pair(self.i, zh, zl)

    def residual(self, c: float, omega: float, mean: float) -> float:
        """LST of the residual of a period X, from its complement c at omega."""
        return c / (omega * mean)

    def _completion(self, r, w):
        """(u, B*): the complement u of the high busy period at w, and that
        of the completion time B*, a low service extended by the high busy
        periods it starts, at w."""
        u = r.complement(self._busy_h, w) if self._busy_h is not None else 0.0
        return u, r.complement(self.svc_l, w + self.lam_h * u)

    def completion_complement(self, omega: float) -> float:
        """1 - LST of a low service extended by high busy periods."""
        if self.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        return self._completion(self, omega)[1]

    def wait_high(self, r, w):
        """LST of the high-priority waiting time at w, read by ``r``: gated,
        or an M/G/1 factor with vacations that are a low service (weight
        rho_l/(1 - rho_h)) or an intervisit time (weight (1 - rho_i)/(1 - rho_h))."""
        c_h = r.complement(self.svc_h, w)
        if self.disc == GATED:
            # the residual cycle, less the services of the earlier high
            # arrivals of the customer's own cycle
            served = r.gf_complement(c_h, 0.0)
            return (r.residual(r.span(self.kept, w) - served, w, self.ec)
                    / (1.0 - self.rho_h * r.residual(c_h, w, self.svc_h.mean)))
        # M/G/1 factor times a vacation: an intervisit time, which the high
        # coordinate spans, or a low service
        vac = ((1.0 - self.rho_i) / (1.0 - self.rho_h)
               * r.residual(r.span(self.cleared, w), w, self.ei))
        if self.lam_l > 0.0:
            vac = vac + (self.rho_l / (1.0 - self.rho_h)
                         * r.residual(r.complement(self.svc_l, w), w, self.svc_l.mean))
        return ((1.0 - self.rho_h) * vac
                / (1.0 - self.rho_h * r.residual(c_h, w, self.svc_h.mean)))

    def wait_low(self, r, w):
        """LST of the low-priority waiting time at w, read by ``r``."""
        if self.disc == GATED:
            # the residual cycle, less the services of every high arrival
            # and of the earlier low arrivals of the customer's own cycle
            c_h = r.complement(self.svc_h, w) if self.lam_h > 0.0 else 0.0
            c_l = r.complement(self.svc_l, w)
            served = r.gf_complement(c_h, c_l)
            return (r.residual(r.gf_complement(c_h, w / self.lam_l) - served, w, self.ec)
                    / (1.0 - self.rho_l * r.residual(c_l, w, self.svc_l.mean)))
        # the low class waits gated-like in the completion time B*
        u, c_star = self._completion(r, w)
        rho_star = self.rho_l / (1.0 - self.rho_h)
        at_w = r.gf_complement(u, w / self.lam_l)
        den = 1.0 - rho_star * r.residual(c_star, w, self.svc_l.mean / (1.0 - self.rho_h))
        if self.disc == MIXED:
            return r.residual(at_w - r.gf_complement(u, c_star), w, self.ec) / den
        # exhaustive: both coordinates span the intervisit time
        p = (1.0 - rho_star) / den
        return p * (1.0 - self.rho_h) * r.residual(at_w, w, self.ei)

    def wait_high_complement(self, omega: float) -> float:
        """1 - LST of the high-priority waiting time (``wait_high``)."""
        if self.lam_h <= 0.0:
            raise UnsupportedEvaluation("queue has no high-priority class")
        if omega == 0.0:
            return 0.0
        return 1.0 - self.wait_high(self, omega)

    def wait_low_complement(self, omega: float) -> float:
        """1 - LST of the low-priority waiting time (``wait_low``)."""
        if self.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        if omega == 0.0:
            return 0.0
        if omega > self.lam_l:
            raise UnsupportedEvaluation(
                f"low-priority wait evaluable only for omega <= {self.lam_l}")
        return 1.0 - self.wait_low(self, omega)

    # ------------------------------------------------------------ handles

    def _handle(self, complement, omega_max: float, name: str) -> TransformHandle:
        """A handle on ``complement``, evaluable up to ``omega_max``: the rate
        that scales the transform's GF arguments, so zero means the transform
        is unavailable, as its complement says for any positive argument."""
        if omega_max <= 0.0:
            raise UnsupportedEvaluation(
                f"transform {name}[{self.i}] unavailable: its evaluable range is empty "
                "(zero arrival rate)")
        return TransformHandle(complement, self.h0, omega_max, name=f"{name}[{self.i}]")

    def cycle_handle(self) -> TransformHandle:
        return self._handle(self.cycle_complement, self.span_rate(self.kept),
                            "cycle")

    def intervisit_handle(self) -> TransformHandle:
        return self._handle(self.intervisit_complement,
                            self.span_rate(self.cleared), "intervisit")

    def visit_handle(self) -> TransformHandle:
        return self._handle(self.visit_complement, math.inf, "visit")

    def wait_high_handle(self) -> TransformHandle:
        om = self.lam_h if 0 in self.cleared else max(self.lam_h, self.lam_l)
        return self._handle(self.wait_high_complement, om, "wait_high")

    def wait_low_handle(self) -> TransformHandle:
        return self._handle(self.wait_low_complement, self.lam_l, "wait_low")

    # -------------------------------------------------- queue-length GFs

    def qlen_gf_high(self, z: float) -> float:
        """E[z^(number of high-priority customers present)]."""
        if self.lam_h <= 0.0:
            raise UnsupportedEvaluation("queue has no high-priority class")
        if not 0.0 <= z <= 1.0:
            raise UnsupportedEvaluation("z must lie in [0, 1]")
        if z == 1.0:
            return 1.0
        omega = self.lam_h * (1.0 - z)
        wait = 1.0 - self.wait_high_complement(omega)
        return wait * self.svc_h.lst(omega)

    def qlen_gf_low(self, z: float) -> float:
        """E[z^(number of low-priority customers present)].

        Where the visit clears the high class, high-priority overtaking
        extends a low customer's effective service and the sojourn uses the
        completion time.
        """
        if self.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        if not 0.0 <= z <= 1.0:
            raise UnsupportedEvaluation("z must lie in [0, 1]")
        if z == 1.0:
            return 1.0
        omega = self.lam_l * (1.0 - z)
        wait = 1.0 - self.wait_low_complement(omega)
        if 0 in self.cleared:
            return wait * (1.0 - self.completion_complement(omega))
        return wait * self.svc_l.lst(omega)
