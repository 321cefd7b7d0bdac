"""Invariant sets and backward reachability (paper Sec. III-A)."""

from repro.invariance.pre import pre_autonomous, pre_controllable, pre_fixed_input
from repro.invariance.rci import (
    InvarianceResult,
    is_rci,
    is_rpi,
    maximal_rci,
    maximal_rpi,
)
from repro.invariance.reach import (
    backward_reachable_zero,
    k_step_strengthened_sets,
    strengthened_safe_set,
)
from repro.invariance.verify import (
    VerificationReport,
    verify_invariance_under_controller,
)

__all__ = [
    "VerificationReport",
    "verify_invariance_under_controller",
    "pre_autonomous",
    "pre_fixed_input",
    "pre_controllable",
    "maximal_rpi",
    "maximal_rci",
    "is_rpi",
    "is_rci",
    "InvarianceResult",
    "backward_reachable_zero",
    "strengthened_safe_set",
    "k_step_strengthened_sets",
]
