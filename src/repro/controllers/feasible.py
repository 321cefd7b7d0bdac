"""Feasible region of the RMPC — the paper's Proposition 1.

The feasible set ``X_F`` of the RMPC (Eq. 5) is computed exactly by the
standard backward controllable-set recursion over the *nominal* dynamics
with the tightened constraints:

    C_0 = X_t ∩ X(N),
    C_{j+1} = {x ∈ X(N-j-1) : ∃ u ∈ U,  A x + B u ∈ C_j},
    X_F = C_N.

Proposition 1 states ``X_F`` is a robust control invariant set of the
closed loop under κ_R, so the framework can use ``XI = X_F``.  Because
that proof leans on the terminal set's properties, :func:`rmpc_invariant_set`
re-certifies the result with the library's RCI certificate and, if needed,
trims it by the maximal-RCI iteration — the returned set is always a
*certified* RCI set.
"""

from __future__ import annotations

import numpy as np

from repro.controllers.rmpc import RobustMPC
from repro.geometry import HPolytope
from repro.invariance.pre import pre_controllable
from repro.invariance.rci import is_rci, maximal_rci
from repro.systems.lti import DiscreteLTISystem

__all__ = ["rmpc_feasible_set", "rmpc_invariant_set"]


def rmpc_feasible_set(controller: RobustMPC) -> HPolytope:
    """Exact feasible region ``X_F`` of the RMPC optimisation.

    Each recursion step projects the lifted nominal one-step problem onto
    the state (Fourier–Motzkin), intersects with the matching tightened
    constraint and prunes redundancy once, on the intersection.
    """
    system = controller.system
    N = controller.horizon
    zero_disturbance = HPolytope.singleton(np.zeros(system.n))
    current = controller.terminal_set.intersect(controller.tightened[N])
    current = current.remove_redundancies()
    for j in range(N):
        pre = pre_controllable(
            system.A, system.B, system.input_set, current, zero_disturbance
        )
        stage = controller.tightened[N - j - 1]
        current = pre.intersect(stage).remove_redundancies()
        if current.is_empty():
            raise ValueError(
                "RMPC feasible set is empty — terminal set or tightening "
                "is too restrictive"
            )
    return current


def rmpc_invariant_set(
    controller: RobustMPC, verify: bool = True
) -> HPolytope:
    """Certified robust control invariant set for the RMPC (``XI``).

    Starts from ``X_F`` (Prop. 1) and certifies robust control
    invariance; if the certificate fails (numerically or because the
    simplified tightening breaks the proposition's premise), the maximal
    RCI subset of ``X_F`` is computed instead, which is certified by
    construction.

    Args:
        controller: A constructed :class:`RobustMPC`.
        verify: Skip certification when False (trust Prop. 1 blindly).

    Returns:
        A polytope ``XI ⊆ X_F ⊆ X`` that is certified RCI.
    """
    system = controller.system
    feasible = rmpc_feasible_set(controller)
    if not verify:
        return feasible
    if is_rci(
        system.A,
        system.B,
        feasible,
        system.input_set,
        system.disturbance_set,
        tol=1e-6,
    ):
        return feasible
    result = maximal_rci(
        system.A,
        system.B,
        feasible,
        system.input_set,
        system.disturbance_set,
    )
    return result.invariant_set
