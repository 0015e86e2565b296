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
served.  All evaluators return complements 1 - f(w) assembled from
complement building blocks so small-w differencing stays accurate.
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

    # ------------------------------------------------------------- helpers

    def _residual(self, complement_at, mean, omega):
        """(R, 1 - R) of the residual time of a period with given complement."""
        r = complement_at / (omega * mean)
        return r, 1.0 - r

    def completion_complement(self, omega: float) -> float:
        """1 - LST of a low service extended by high busy periods."""
        if self.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        u = self._busy_h.complement(omega) if self._busy_h is not None else 0.0
        return self.svc_l.lst_complement(omega + self.lam_h * u)

    # ------------------------------------------------------------- periods

    def span_rate(self, classes) -> float:
        """The total arrival rate of ``classes``: the largest argument at
        which the span they count arrivals over is evaluable, zero where
        that span is unavailable."""
        return sum((self.lam_h, self.lam_l)[c] for c in classes)

    def _span_complement(self, classes, omega: float, name: str) -> float:
        """1 - LST of the span that ``classes``' coordinates count arrivals
        over: the exponent split across them in proportion to their rates,
        so each stays within its own rate bound (a class without arrivals
        has an inert coordinate)."""
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
        return self._span_complement(self.kept, omega, "cycle")

    def intervisit_complement(self, omega: float) -> float:
        """1 - LST of the intervisit time (visit end to next visit start)."""
        return self._span_complement(self.cleared, omega, "intervisit")

    def visit_complement(self, omega: float) -> float:
        """1 - LST of the visit time: the sum of one period T_c per class-c
        customer present at the visit beginning."""
        if omega == 0.0:
            return 0.0
        zh, zl, _ = self.gf.period_complements(self.i, omega)
        return self.gf.complement_pair(self.i, zh, zl)

    # ------------------------------------------------------- waiting times

    def wait_high_complement(self, omega: float) -> float:
        """1 - LST of the high-priority waiting time (mixed or exhaustive).

        Vacation decomposition: M/G/1 factor for the high class, vacations
        being a low service (weight rho_l/(1-rho_h)) or an intervisit period
        (weight (1-rho_i)/(1-rho_h)).
        """
        if self.lam_h <= 0.0:
            raise UnsupportedEvaluation("queue has no high-priority class")
        if self.disc == GATED:
            return self._wait_gated_complement(omega, high=True)
        if omega == 0.0:
            return 0.0
        r_bh, rc_bh = self._residual(self.svc_h.lst_complement(omega),
                                     self.svc_h.mean, omega)
        w_i = (1.0 - self.rho_i) / (1.0 - self.rho_h)
        r_ic = self.intervisit_complement(omega)
        _, rc_i = self._residual(r_ic, self.ei, omega)
        acc = w_i * rc_i
        if self.lam_l > 0.0:
            w_bl = self.rho_l / (1.0 - self.rho_h)
            _, rc_bl = self._residual(self.svc_l.lst_complement(omega),
                                      self.svc_l.mean, omega)
            acc += w_bl * rc_bl
        num = self.rho_h * rc_bh + (1.0 - self.rho_h) * acc
        return num / (1.0 - self.rho_h * r_bh)

    def wait_low_complement(self, omega: float) -> float:
        """1 - LST of the low-priority waiting time (discipline specific)."""
        if self.lam_l <= 0.0:
            raise UnsupportedEvaluation("queue has no low-priority class")
        if self.disc == GATED:
            return self._wait_gated_complement(omega, high=False)
        if omega == 0.0:
            return 0.0
        if omega > self.lam_l:
            raise UnsupportedEvaluation(
                f"low-priority wait evaluable only for omega <= {self.lam_l}")
        u = self._busy_h.complement(omega) if self._busy_h is not None else 0.0
        bstar_c = self.svc_l.lst_complement(omega + self.lam_h * u)
        rho_star = self.rho_l / (1.0 - self.rho_h)
        e_bstar = self.svc_l.mean / (1.0 - self.rho_h)
        r_bstar = bstar_c / (omega * e_bstar)
        if self.disc == MIXED:
            vc_served = self.gf.complement_pair(self.i, u, bstar_c)
            vc_cycle = self.gf.complement_pair(self.i, u, omega / self.lam_l)
            f = (vc_cycle - vc_served) / (omega * self.ec * (1.0 - rho_star * r_bstar))
        else:  # exhaustive
            vc = self.gf.complement_pair(self.i, u, omega / self.lam_l)
            p = (1.0 - rho_star) / (1.0 - rho_star * r_bstar)
            f = p * (1.0 - self.rho_h) * vc / (omega * self.ei)
        return 1.0 - f

    def _wait_gated_complement(self, omega: float, high: bool) -> float:
        """Gated queue: wait = residual cycle + services scheduled ahead.

        A high customer waits behind the earlier high arrivals of its own
        cycle; a low customer additionally waits behind every high arrival of
        that cycle.
        """
        if omega == 0.0:
            return 0.0
        lam = self.lam_h if high else self.lam_l
        svc = self.svc_h if high else self.svc_l
        zh_served = self.svc_h.lst_complement(omega) if self.lam_h > 0 else 0.0
        if high:
            vc_served = self.gf.complement_pair(self.i, zh_served, 0.0)
            vc_cycle = self.cycle_complement(omega)
        else:
            zl_served = self.svc_l.lst_complement(omega)
            vc_served = self.gf.complement_pair(self.i, zh_served, zl_served)
            if omega > self.lam_l:
                raise UnsupportedEvaluation(
                    f"low-priority wait evaluable only for omega <= {self.lam_l}")
            vc_cycle = self.gf.complement_pair(self.i, zh_served, omega / self.lam_l)
        r_b = svc.lst_complement(omega) / (omega * svc.mean)
        rho_own = lam * svc.mean
        f = (vc_cycle - vc_served) / (omega * self.ec * (1.0 - rho_own * r_b))
        return 1.0 - f

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
