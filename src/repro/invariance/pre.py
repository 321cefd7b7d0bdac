"""One-step predecessor (Pre) operators.

All invariance and reachability computations reduce to three predecessor
maps for the dynamics ``x⁺ = A x + B u + w`` with ``w ∈ W``:

* ``pre_autonomous``: closed loop ``x⁺ = M x + w`` (e.g. ``M = A + B K``);
* ``pre_fixed_input``: a constant input (the skip input of the paper);
* ``pre_controllable``: existential input ``∃ u ∈ U`` (general RCI / the
  feasible-set recursion), computed exactly by Fourier–Motzkin projection.

Each returns ``{x : ∀ w ∈ W, x⁺ ∈ target}`` — the *robust* predecessor.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import HPolytope, project_onto
from repro.utils.validation import as_matrix, as_vector

__all__ = ["pre_autonomous", "pre_fixed_input", "pre_controllable"]


def pre_autonomous(M, target: HPolytope, disturbance: HPolytope) -> HPolytope:
    """``{x : M x ⊕ W ⊆ target}`` for autonomous dynamics ``x⁺ = M x + w``.

    Exact: erode the target by ``W`` then take the linear preimage.
    """
    M = as_matrix(M, "M")
    eroded = target.pontryagin_difference(disturbance)
    return eroded.linear_preimage(M)


def pre_fixed_input(
    A, B, fixed_input, target: HPolytope, disturbance: HPolytope
) -> HPolytope:
    """``{x : A x + B u₀ ⊕ W ⊆ target}`` for a constant input ``u₀``.

    This is the paper's backward reachable set ``B(target, z=0)`` when
    ``u₀`` is the skip input (``A⁻¹(XI ⊖ W)`` in the paper's notation for
    ``u₀ = 0`` — our preimage form needs no invertibility).
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    u0 = as_vector(fixed_input, "fixed_input")
    eroded = target.pontryagin_difference(disturbance)
    return eroded.linear_preimage(A, offset=B @ u0)


def pre_controllable(
    A,
    B,
    input_set: HPolytope,
    target: HPolytope,
    disturbance: HPolytope,
) -> HPolytope:
    """``{x : ∃ u ∈ U, A x + B u ⊕ W ⊆ target}``.

    Built as the projection onto ``x`` of the lifted polytope

        {(x, u) : H_T (A x + B u) <= h_T - support_W,  H_U u <= h_U},

    which Fourier–Motzkin eliminates exactly (input dimension is small in
    every use of this library).  The result is deduplicated but may hold
    redundant rows (:func:`repro.geometry.project_onto`): every caller
    intersects it with another set and prunes once, or only tests
    containment.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    m = B.shape[1]
    if input_set.dim != m:
        raise ValueError("input_set dimension must match B's column count")
    eroded = target.pontryagin_difference(disturbance)
    # Lifted constraints over (x, u).
    H_dyn = np.hstack([eroded.H @ A, eroded.H @ B])
    h_dyn = eroded.h
    H_u = np.hstack([np.zeros((input_set.num_constraints, n)), input_set.H])
    h_u = input_set.h
    lifted = HPolytope(np.vstack([H_dyn, H_u]), np.concatenate([h_dyn, h_u]))
    return project_onto(lifted, keep=n)
