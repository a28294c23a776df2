"""Energy-optimal frame allocation for an RF-harvesting device that decodes
downlink data and either computes on it locally or offloads it to a nearby
fog server, plus multi-frame storage simulation and brute-force verification
of every closed-form optimum.  The root re-exports the run entry points;
every other name is imported from the module that defines it."""

from .params import SystemParams, load_params
from .sim import SweepAxis, monte_carlo, run_trace, sweep

__version__ = "0.1.0"

__all__ = ["SweepAxis", "SystemParams", "load_params", "monte_carlo",
           "run_trace", "sweep"]
