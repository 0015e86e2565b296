"""Exception types shared across the package."""


class PriopollError(Exception):
    """Base class for all priopoll errors."""


class NonpositiveParameter(PriopollError):
    """A parameter that must be strictly positive (or nonnegative) is not."""


class ZeroSwitchover(PriopollError):
    """Every switch-over time in the model has zero mean."""


class UnstableSystem(PriopollError):
    """Total offered load is >= 1, no stationary regime exists."""

    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"system is unstable: total load rho = {rho:.6g} >= 1")


class NoConvergence(PriopollError):
    """A fixed-point or product iteration hit its cap without converging,
    or a simulation's expected work passes the simulator's cap."""


class OutOfRange(PriopollError):
    """A quantity of the model does not fit in a float.  The analytic engine
    raises it for a service or switch-over moment past about 1.8e308
    (``GfEvaluator`` checks them as it reads them), for a waiting-time
    moment, mean queue length or cross moment that is not finite, for a mean
    wait that is not positive or a variance that is negative (lost to
    underflow), and for a workload conservation sum that underflows to 0.
    The simulator raises it for a horizon that its clock cannot advance by
    the model's shortest mean time."""


class UnsupportedEvaluation(PriopollError):
    """A transform was requested where it is unavailable (a waiting time
    of a class without arrivals, say), or at an argument past its range
    (``QueueTransforms.omega_max``)."""


class IllConditioned(PriopollError):
    """A result cannot be vouched for: a transform whose evaluable range is
    too small for numerical moment extraction (``lst_moment``), or exact
    moments whose rounding bound 2^-53/(1 - rho) passes tolerance on a load
    too close to saturation (``GfEvaluator.moments``)."""
