"""Robust backward reachable sets (Definition 2) and the strengthened
safe set (Definition 3).

For the skipping framework only two one-step backward maps matter:

* ``B(Y, 0)`` — the set of states from which applying the *skip input*
  keeps the system inside ``Y`` for every disturbance;
* ``B(Y, 1)`` — same under the safe controller κ.  For linear feedback
  this is polytopic; for a general κ (e.g. RMPC) the robust control
  invariant set itself already certifies ``XI ⊆ B(XI, 1)``, so the
  framework never needs the exact ``B(Y, 1)``.

The strengthened safe set is ``X' = B(XI, 0) ∩ XI`` (Eq. 4).  States in
``X'`` may freely skip: both choices land inside ``XI`` next step, which
is the content of the paper's Theorem 1.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import HPolytope
from repro.invariance.pre import pre_fixed_input
from repro.systems.lti import DiscreteLTISystem

__all__ = [
    "backward_reachable_zero",
    "strengthened_safe_set",
    "k_step_strengthened_sets",
]


def backward_reachable_zero(
    system: DiscreteLTISystem,
    target: HPolytope,
    skip_input=None,
) -> HPolytope:
    """``B(target, z=0)``: robust one-step predecessor under the skip input.

    The paper uses the literal zero input and the formula
    ``A⁻¹(target ⊖ W)``; this implementation is the invertibility-free
    generalisation ``{x : A x + B u_skip ⊕ W ⊆ target}`` with
    ``u_skip = 0`` by default.
    """
    if skip_input is None:
        skip_input = np.zeros(system.m)
    return pre_fixed_input(
        system.A, system.B, skip_input, target, system.disturbance_set
    )


def strengthened_safe_set(
    system: DiscreteLTISystem,
    invariant_set: HPolytope,
    skip_input=None,
) -> HPolytope:
    """Strengthened safe set ``X' = B(XI, 0) ∩ XI`` (Definition 3).

    Args:
        system: The constrained plant.
        invariant_set: A robust (control) invariant set ``XI`` of the
            underlying safe controller.  Invariance is the caller's
            responsibility (use :mod:`repro.invariance.rci` certificates).
        skip_input: The constant input applied when skipping (default 0).

    Returns:
        The polytope ``X'``, irredundant.
    """
    reach = backward_reachable_zero(system, invariant_set, skip_input)
    return reach.intersect(invariant_set).remove_redundancies()


def k_step_strengthened_sets(
    system: DiscreteLTISystem,
    invariant_set: HPolytope,
    depth: int,
    skip_input=None,
) -> list:
    """Nested sets allowing ``k`` consecutive guaranteed skips.

    ``S_1 = X'`` as in the paper; ``S_{k+1} = B(S_k, 0) ∩ S_k`` is the set
    of states from which ``k+1`` consecutive zero inputs provably stay in
    ``XI``.  This extends the paper's one-step construction and powers the
    multi-skip ablation bench.

    Returns:
        List ``[S_1, …, S_depth]`` (each a subset of its predecessor).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    sets = [strengthened_safe_set(system, invariant_set, skip_input)]
    for _ in range(depth - 1):
        previous = sets[-1]
        reach = backward_reachable_zero(system, previous, skip_input)
        sets.append(reach.intersect(previous).remove_redundancies())
    return sets
