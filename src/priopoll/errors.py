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
    """A fixed-point or product iteration hit its cap without converging."""


class OutOfRange(PriopollError):
    """A moment of the model's times does not fit in a float: a service,
    switch-over or busy-period moment past about 1.8e308."""


class UnsupportedEvaluation(PriopollError):
    """A transform was requested outside its evaluable domain."""


class IllConditioned(PriopollError):
    """A result's error bound is above tolerance: a numerically extracted
    moment's error estimate, or the rounding bound 2^-53/(1 - rho) of the
    exact moments on a load too close to saturation (``GfEvaluator.moments``)."""
