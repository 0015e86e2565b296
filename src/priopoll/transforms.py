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
M/G/1 factor for the customer's own class (in the completion time B* where
high-priority overtaking extends a low-priority service) times a residual
term for the periods in which the class is not served.  ``wait_high`` and
``wait_low`` write it with one rule for a class the visit keeps (gated-like,
over the residual cycle) and one for a class it clears, against a reading
``r``: ``complement`` of a service or a busy period, ``gf_complement`` at
the queue's own z-complements, ``span`` and ``residual``; plain arithmetic
does the rest.  ``QueueTransforms`` itself is the float reading, and
``analytic`` reads the same code as power series in omega.  The period
evaluators return complements assembled from complement building blocks,
so small-w differencing stays accurate; the waiting-time complements are
1 - W, about 1e-16 off in absolute terms.

``QueueTransforms.omega_max(name)`` says where each float transform can be
evaluated; every complement applies one argument rule against it, and
``handle(name)`` hands a complement with that range to ``lst_moment``.
"""

from __future__ import annotations

import math
from functools import cached_property

from .busyperiod import BusyPeriod
from .errors import UnsupportedEvaluation
from .model import CLEARED
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
        # the span rule: the classes a visit clears (0 high, 1 low) count
        # arrivals over the intervisit time, the kept ones over the cycle.
        # Two coordinates share a span exactly when both are kept or both
        # cleared (``GfEvaluator.spans``), and the exact moments read it once
        self.cleared = CLEARED[q.discipline]
        self.kept = tuple(c for c in (0, 1) if c not in self.cleared)
        # the high busy periods (None without highs) stretch a low service to
        # B*, of mean E(B_L)/(1 - rho_h), where the visit clears the high class
        self._busy_h = BusyPeriod(q.service_high, q.lambda_high) if q.lambda_high > 0.0 else None
        self._stretch = 1.0 - self.rho_h if 0 in self.cleared else 1.0

    # ------------------------------------------------------------- periods

    def span_rate(self, classes) -> float:
        """The total arrival rate of ``classes``, which scales the span they
        count arrivals over into their GF coordinates (``omega_max`` reads it
        as the span transform's range)."""
        return sum((self.lam_h, self.lam_l)[c] for c in classes)

    def omega_max(self, name: str) -> float:
        """The largest argument at which transform ``name`` (``cycle``,
        ``intervisit``, ``visit``, ``wait_high``, ``wait_low`` or
        ``completion``) can be evaluated.  Raises UnsupportedEvaluation where
        it is unavailable: a span no class counts arrivals over, or a wait
        or completion time without its class."""
        if name in ("cycle", "intervisit"):
            rate = self.span_rate(self.kept if name == "cycle" else self.cleared)
            if rate <= 0.0:
                raise UnsupportedEvaluation(
                    f"{name} transform unavailable at queue {self.i + 1}: no class "
                    f"with arrivals counts them over the {name}")
            return rate
        if name == "wait_high":
            if self.lam_h <= 0.0:
                raise UnsupportedEvaluation("queue has no high-priority class")
            return self.omega_max("cycle" if 0 in self.kept else "intervisit")
        if name in ("wait_low", "completion"):
            if self.lam_l <= 0.0:
                raise UnsupportedEvaluation("queue has no low-priority class")
            return self.lam_l if name == "wait_low" else math.inf
        if name == "visit":
            return math.inf
        raise ValueError(f"unknown transform {name!r}")

    def _nonzero(self, name: str, omega: float) -> bool:
        """The argument rule of every complement: whether omega, in transform
        ``name``'s domain, is nonzero (the complement is 0 at 0).  A NaN or
        negative omega, or inf where the range is infinite, raises ValueError;
        one past ``omega_max(name)`` UnsupportedEvaluation."""
        top = self.omega_max(name)
        if not omega >= 0.0:
            raise ValueError(f"{name} transform needs omega >= 0, got {omega!r}")
        if omega > top:
            raise UnsupportedEvaluation(
                f"{name} transform evaluable only for omega <= {top}")
        if omega == math.inf:
            raise ValueError(f"{name} transform needs a finite omega, got {omega!r}")
        return omega != 0.0

    def span(self, classes, omega: float) -> float:
        """1 - LST of the span that ``classes``' coordinates count arrivals
        over, for 0 < omega <= their rate: the exponent split across them in
        proportion to their rates (a class without arrivals is inert)."""
        tot = self.span_rate(classes)
        return self.gf.complement_pair(
            self.i, *(omega / tot if c in classes else 0.0 for c in (0, 1)))

    def cycle_complement(self, omega: float) -> float:
        """1 - LST of the cycle time anchored at this queue's visit beginning."""
        return self.span(self.kept, omega) if self._nonzero("cycle", omega) else 0.0

    def intervisit_complement(self, omega: float) -> float:
        """1 - LST of the intervisit time (visit end to next visit start)."""
        return self.span(self.cleared, omega) if self._nonzero("intervisit", omega) else 0.0

    def visit_complement(self, omega: float) -> float:
        """1 - LST of the visit time: the sum of one period T_c per class-c
        customer present at the visit beginning."""
        if not self._nonzero("visit", omega):
            return 0.0
        return self.gf_complement(*self.gf.period_complements(self.i, omega)[:2])

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
        """(u, B*): the complements at w of the high busy period and of the
        completion time B*, a low service extended by the busy periods it starts."""
        u = r.complement(self._busy_h, w) if self._busy_h is not None else 0.0
        return u, r.complement(self.svc_l, w + self.lam_h * u)

    def completion_complement(self, omega: float) -> float:
        """1 - LST of a low service extended by high busy periods."""
        return self._completion(self, omega)[1] if self._nonzero("completion", omega) else 0.0

    def wait_high(self, r, w):
        """LST of the high-priority waiting time at w, read by ``r``: an M/G/1
        factor times the residual cycle (kept) or vacations (cleared) that are a low
        service, weight rho_l/(1 - rho_h), or an intervisit, weight (1 - rho_i)/(1 - rho_h)."""
        c_h = r.complement(self.svc_h, w)
        den = 1.0 - self.rho_h * r.residual(c_h, w, self.svc_h.mean)
        if 0 in self.kept:
            # the residual cycle, less the services of the earlier high
            # arrivals of the customer's own cycle
            served = r.gf_complement(c_h, 0.0)
            return r.residual(r.span(self.kept, w) - served, w, self.ec) / den
        vac = ((1.0 - self.rho_i) / (1.0 - self.rho_h)
               * r.residual(r.span(self.cleared, w), w, self.ei))
        if self.lam_l > 0.0:
            vac = vac + (self.rho_l / (1.0 - self.rho_h)
                         * r.residual(r.complement(self.svc_l, w), w, self.svc_l.mean))
        return (1.0 - self.rho_h) * vac / den

    @cached_property
    def eb(self) -> float:
        """E(B), the mean of a low customer's period: its service, or B*."""
        return self.svc_l.mean / self._stretch

    def wait_low(self, r, w):
        """LST of the low-priority waiting time at w, read by ``r``, with an
        M/G/1 factor in the low period B (``eb``).  Where the visit clears the
        high class, B is B* and a high customer present adds its busy period."""
        if 0 in self.cleared:
            u, c_b = self._completion(r, w)
        else:
            u = r.complement(self.svc_h, w) if self.lam_h > 0.0 else 0.0
            c_b = r.complement(self.svc_l, w)
        rho_b = self.rho_l / self._stretch
        at_w = r.gf_complement(u, w / self.lam_l)
        den = 1.0 - rho_b * r.residual(c_b, w, self.eb)
        if 1 in self.kept:
            # the residual cycle, less the periods of every high arrival and
            # of the earlier low arrivals of the customer's own cycle
            return r.residual(at_w - r.gf_complement(u, c_b), w, self.ec) / den
        # both coordinates span the intervisit time
        return (1.0 - rho_b) / den * self._stretch * r.residual(at_w, w, self.ei)

    def wait_high_complement(self, omega: float) -> float:
        """1 - LST of the high-priority waiting time (``wait_high``)."""
        return 1.0 - self.wait_high(self, omega) if self._nonzero("wait_high", omega) else 0.0

    def wait_low_complement(self, omega: float) -> float:
        """1 - LST of the low-priority waiting time (``wait_low``)."""
        return 1.0 - self.wait_low(self, omega) if self._nonzero("wait_low", omega) else 0.0

    # ------------------------------------------------------------ handles

    @cached_property
    def h0(self) -> float:
        """The base differencing step of ``handle``: keeps GF arguments well
        inside [0, 1]."""
        return 1e-3 * min(min(lam for _, _, lam, _ in self.q.classes), 1.0) / max(1.0, self.ec)

    def handle(self, name: str) -> TransformHandle:
        """A handle on the complement of transform ``name``, evaluable up to
        ``omega_max(name)``, for ``lst_moment``."""
        top = self.omega_max(name)
        return TransformHandle(getattr(self, f"{name}_complement"), self.h0, top,
                               name=f"{name}[{self.i}]")
