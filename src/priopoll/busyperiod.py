"""Busy-period transform and moments for M/G/1-type workloads.

The busy-period LST pi(omega) initiated by one service B in a queue with
Poisson rate lam solves pi = beta(omega + lam*(1 - pi)).  We iterate the
equivalent complement form u = 1 - pi,

    u <- betac(omega + lam*u),        betac = 1 - beta,

which starts from u = 0 (pi = 1), increases monotonically to the root in
(0, 1], and keeps full relative precision for small omega where 1 - pi is
tiny.  Successive substitution is a global contraction with factor
lam*E(B) < 1, which ``BusyPeriod`` checks on construction, so any warm
start in [0, 1] converges, each step smaller than the one before; the
iteration stops at the first step that is not, where rounding has taken
over.  A low-priority service extended by high-priority busy periods (the
completion time) is composed from these by ``QueueTransforms``.
"""

from __future__ import annotations

import math

from .distributions import Distribution
from .errors import NoConvergence, NonpositiveParameter, UnstableSystem

__all__ = ["BusyPeriod"]

_CAP = 1_000_000
_RTOL = 5e-16


def _solve_complement(lstc, lam: float, omega: float, warm: float) -> float:
    if omega == 0.0:
        return 0.0
    u = warm if 0.0 <= warm <= 1.0 else 0.0
    step = math.inf
    for _ in range(_CAP):
        u_next = lstc(omega + lam * u)
        new_step = abs(u_next - u)
        # a contraction shrinks every step; one that does not is rounding noise
        # (a 2-cycle one ulp wide, say) that _RTOL may never accept
        if new_step <= _RTOL * u_next or new_step >= step:
            return u_next
        u, step = u_next, new_step
    raise NoConvergence(
        f"busy-period fixed point still moving after {_CAP} steps (lam={lam:.6g}, "
        f"omega={omega:.6g}, last step {step:.3g}): the busy period's load "
        "lam*E(B) is too close to 1")


class BusyPeriod:
    """Busy period of an M/G/1 queue serving ``service`` at Poisson rate ``lam``.

    ``more`` may add a second class's service and rate.  The time to empty
    the queue does not depend on the order of service, so two classes make
    the busy period of one service, class c's with probability lam_c / lam,
    at the total rate lam; one class is read directly, so its rate may be 0.

    The constructor checks its input before any transform is evaluated: a
    rate that is negative, NaN or infinite, or two rates that sum to 0,
    raise ``NonpositiveParameter``, and a load lam E(B) that is not below 1
    raises ``UnstableSystem``.

    ``lst_complement(omega)`` returns 1 - pi(omega) for 0 <= omega < inf
    and raises ValueError otherwise; an optional warm start (a complement
    value from a nearby argument) cuts the iteration count when the
    transform is evaluated along a slowly varying path.  ``moment(k)`` is
    exact for k <= 3.
    """

    def __init__(self, service: Distribution, lam: float, *more):
        if not 0.0 <= lam < math.inf:
            raise NonpositiveParameter(f"busy-period rate must be finite and >= 0, got {lam!r}")
        if more:
            service_2, lam_2 = more
            if not 0.0 <= lam_2 < math.inf:
                raise NonpositiveParameter(
                    f"busy-period rate must be finite and >= 0, got {lam_2!r}")
            total = lam + lam_2
            if total == 0.0:
                raise NonpositiveParameter("a two-class busy period needs a positive rate")
            p, p_2 = lam / total, lam_2 / total
            c, c_2 = service.lst_complement, service_2.lst_complement
            self._lstc = lambda w: p * c(w) + p_2 * c_2(w)
            self._service_moment = lambda k: p * service.moment(k) + p_2 * service_2.moment(k)
            lam = total
        else:
            self._lstc = service.lst_complement
            self._service_moment = service.moment
        self.lam = lam
        self.rho = lam * self._service_moment(1)
        if not self.rho < 1.0:
            raise UnstableSystem(self.rho)

    def lst_complement(self, omega: float, warm: float = 0.0) -> float:
        if not 0.0 <= omega < math.inf:
            raise ValueError(f"busy-period transform needs 0 <= omega < inf, got {omega!r}")
        return _solve_complement(self._lstc, self.lam, omega, warm)

    def lst(self, omega: float) -> float:
        return 1.0 - self.lst_complement(omega)

    def moment(self, k: int) -> float:
        """Raw moment E(Theta^k) for k in {1, 2, 3}, from the service moments
        b_k: b1/(1-rho), b2/(1-rho)^3 and b3/(1-rho)^4 + 3 lam b2^2/(1-rho)^5."""
        b = self._service_moment
        one = 1.0 - self.rho
        if k == 1:
            return b(1) / one
        if k == 2:
            return b(2) / one**3
        if k == 3:
            b2 = b(2)
            return b(3) / one**4 + 3.0 * self.lam * b2 * b2 / one**5
        raise ValueError("busy-period moments are exact for k in {1, 2, 3}")

    @property
    def mean(self) -> float:
        return self.moment(1)

