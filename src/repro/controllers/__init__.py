"""Safe controllers: linear feedback / LQR and robust MPC (paper Eq. 5)."""

from repro.controllers.base import ConstantController, Controller
from repro.controllers.feasible import rmpc_feasible_set, rmpc_invariant_set
from repro.controllers.linear import LinearFeedback, lqr_gain
from repro.controllers.rmpc import (
    RMPCInfeasibleError,
    RMPCSolution,
    RobustMPC,
    build_terminal_set,
    verify_plan_equivalence,
)
from repro.controllers.tightening import tightened_constraints

__all__ = [
    "Controller",
    "ConstantController",
    "LinearFeedback",
    "lqr_gain",
    "RobustMPC",
    "RMPCSolution",
    "RMPCInfeasibleError",
    "build_terminal_set",
    "verify_plan_equivalence",
    "rmpc_feasible_set",
    "rmpc_invariant_set",
    "tightened_constraints",
]
