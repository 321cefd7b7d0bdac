"""Discrete LTI plant models, discretisation and disturbance processes."""

from repro.systems.discretize import euler_discretize, zoh_discretize
from repro.systems.disturbance import SinusoidalDisturbance
from repro.systems.lti import DiscreteLTISystem, SimulationResult

__all__ = [
    "DiscreteLTISystem",
    "SimulationResult",
    "euler_discretize",
    "zoh_discretize",
    "SinusoidalDisturbance",
]
