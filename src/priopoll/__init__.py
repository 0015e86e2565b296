"""Performance analysis of cyclic polling systems with two priority classes.

Exact transform-based measures (waiting-time means/variances, queue lengths,
cycle/visit/intervisit moments, workload conservation) and an independent
discrete-event simulator for cross-validation.

The analytic modules load with the package.  The simulator (``SimStats``,
``run``, ``replicate``) and numpy load on first use, so a process that only
analyses models never imports them.
"""

from .analytic import Analyzer, ClassResult, PerfReport, QueuePeriods, pcl_check
from .busyperiod import BusyPeriod
from .distributions import (Deterministic, Distribution, Erlang, Exponential,
                            Hyperexponential, Uniform, distribution_from_config)
from .errors import (IllConditioned, NoConvergence, NonpositiveParameter,
                     OutOfRange, PriopollError, UnstableSystem,
                     UnsupportedEvaluation, ZeroSwitchover)
from .gf import GfEvaluator
from .model import (DISCIPLINES, EXHAUSTIVE, GATED, MIXED, DerivedRates,
                    PollingModel, QueueSpec, load_model, model_from_config,
                    model_to_config, validate)
from .moments import MomentEstimate, TransformHandle, lst_moment
from .vacation import vacation_crossover, vacation_mean_wait_low

__all__ = [
    "Analyzer", "PerfReport", "ClassResult", "QueuePeriods", "pcl_check",
    "BusyPeriod",
    "Distribution", "Deterministic", "Exponential", "Erlang",
    "Hyperexponential", "Uniform", "distribution_from_config",
    "GfEvaluator", "TransformHandle", "MomentEstimate", "lst_moment",
    "PollingModel", "QueueSpec", "DerivedRates", "validate", "load_model",
    "model_from_config", "model_to_config",
    "GATED", "EXHAUSTIVE", "MIXED", "DISCIPLINES",
    "SimStats", "run", "replicate",
    "vacation_mean_wait_low", "vacation_crossover",
    "PriopollError", "NonpositiveParameter", "ZeroSwitchover",
    "UnstableSystem", "NoConvergence", "UnsupportedEvaluation", "IllConditioned",
    "OutOfRange",
]

__version__ = "0.1.0"

_SIM_NAMES = ("SimStats", "run", "replicate")


def __getattr__(name):
    """Import the simulator on first access to one of its names (PEP 562)."""
    if name in _SIM_NAMES:
        from . import sim
        for attr in _SIM_NAMES:
            globals()[attr] = getattr(sim, attr)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
