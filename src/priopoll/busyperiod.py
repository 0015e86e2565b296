"""Busy-period and completion-time transforms for M/G/1-type workloads.

The busy-period LST pi(omega) initiated by one service B in a queue with
Poisson rate lam solves pi = beta(omega + lam*(1 - pi)).  We iterate the
equivalent complement form u = 1 - pi,

    u <- betac(omega + lam*u),        betac = 1 - beta,

which starts from u = 0 (pi = 1), increases monotonically to the root in
(0, 1], and keeps full relative precision for small omega where 1 - pi is
tiny.  Successive substitution is a global contraction with factor
lam*E(B) < 1, so any warm start in [0, 1] converges, each step smaller than
the one before; the iteration stops at the first step that is not, where
rounding has taken over.
"""

from __future__ import annotations

import math

from .distributions import Distribution
from .errors import NoConvergence

__all__ = ["BusyPeriod", "busy_period_lst", "completion_time_lst"]

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

    ``lst_complement(omega)`` returns 1 - pi(omega) for 0 <= omega < inf
    and raises ValueError otherwise; an optional warm start (a complement
    value from a nearby argument) cuts the iteration count when the
    transform is evaluated along a slowly varying path.  ``moment(k)`` is
    exact for k <= 3.
    """

    def __init__(self, service: Distribution, lam: float, *more):
        if more:
            service_2, lam_2 = more
            total = lam + lam_2
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
            return b(3) / one**4 + 3.0 * self.lam * b(2) ** 2 / one**5
        raise ValueError("busy-period moments are exact for k in {1, 2, 3}")

    @property
    def mean(self) -> float:
        return self.moment(1)


def busy_period_lst(service: Distribution, lam: float, omega: float) -> float:
    """pi(omega) in (0, 1]; requires lam * E(B) < 1 and omega >= 0."""
    if lam * service.mean >= 1.0:
        raise ValueError("busy period requires lam * E(B) < 1")
    return BusyPeriod(service, lam).lst(omega)


def completion_time_lst(service_low: Distribution, service_high: Distribution,
                        lam_high: float, omega: float) -> float:
    """LST of a low-priority service extended by high-priority busy periods.

    The extended service absorbs the clearing of every high-priority customer
    arriving while the low-priority one is served; its mean is
    E(B_low) / (1 - lam_high * E(B_high)).
    """
    u = BusyPeriod(service_high, lam_high).lst_complement(omega)
    return service_low.lst(omega + lam_high * u)
