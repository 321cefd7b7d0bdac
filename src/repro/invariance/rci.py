"""Robust (control) invariant set computations (Definition 1).

Two maximal-set iterations are provided:

* :func:`maximal_rpi` — largest robust *positively* invariant subset of a
  constraint set for an autonomous closed loop ``x⁺ = M x + w``.  This is
  the natural ``XI`` for a linear feedback controller: start from
  ``S = X ∩ {x : K x ∈ U}`` so the invariant set also respects input
  limits.
* :func:`maximal_rci` — largest robust *control* invariant subset, with
  the input free in ``U`` (the textbook Definition 1).  Uses the
  Fourier–Motzkin predecessor.

Both compute ``Ω_{k+1} = Ω_k ∩ Pre(Ω_k)`` from ``Ω_0 = S`` and stop when
``Ω_k ⊆ Ω_{k+1}`` (set convergence) or when the iteration budget runs
out — in the latter case the last iterate is returned only if it is
verified invariant, otherwise an error is raised, because an unverified
"invariant" set would silently void the paper's Theorem 1.  Convergence
is tested one way only: ``Ω_{k+1} ⊆ Ω_k`` holds by construction, since
``Ω_{k+1}`` is ``Ω_k`` with rows added.

:func:`maximal_rpi` builds the sequence incrementally (Gilbert & Tan,
IEEE TAC 1991).  The autonomous ``Pre`` maps each halfspace on its own,
so it distributes over intersection, and ``Pre(Ω_{k-1}) ⊇ Ω_k``; hence
``Ω_{k+1} = Ω_k ∩ Pre(N_k)``, where ``N_k`` are the rows step ``k``
added.  Each step maps only those rows and keeps a mapped row iff it cuts
``Ω_k`` — its support over ``Ω_k`` exceeds its offset by more than
``tol``, all rows screened by one stacked LP.  The set has converged when
no row cuts; one redundancy removal then runs on the result.  The
textbook loop, which maps and reduces the whole set every step, is kept
as :func:`repro.geometry.reference.maximal_rpi_reference`, the
differential oracle.  :func:`maximal_rci` prunes each step once, after
intersecting ``Ω_k`` with the (deduplicated, unpruned) projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import HPolytope
from repro.geometry.hpolytope import EmptySetError
from repro.invariance.pre import pre_autonomous, pre_controllable
from repro.utils.lp import LPError
from repro.utils.validation import as_matrix

__all__ = ["maximal_rpi", "maximal_rci", "is_rpi", "is_rci", "InvarianceResult"]


@dataclass
class InvarianceResult:
    """Outcome of a maximal-invariant-set iteration.

    Attributes:
        invariant_set: The computed invariant polytope.
        iterations: Number of Pre-iterations performed.
        converged: Whether the fixed point was certified (as opposed to
            hitting the iteration budget with a still-shrinking set).
    """

    invariant_set: HPolytope
    iterations: int
    converged: bool


def maximal_rpi(
    M,
    constraint: HPolytope,
    disturbance: HPolytope,
    max_iterations: int = 100,
    tol: float = 1e-7,
) -> InvarianceResult:
    """Maximal robust positively invariant subset of ``constraint``
    for ``x⁺ = M x + w``, ``w ∈ W``.

    Raises:
        ValueError: If the iteration exhausts its budget without producing
            a certified invariant set, or the set becomes empty (no RPI
            subset exists).
    """
    M = as_matrix(M, "M")
    current = constraint
    added = constraint
    for iteration in range(1, max_iterations + 1):
        cutting = _cutting_predecessors(M, current, added, disturbance, tol, iteration)
        if cutting is None:
            return InvarianceResult(
                current.remove_redundancies(), iteration, converged=True
            )
        current = current.intersect(cutting)
        # Map the added rows as the intersection renormalised them, as
        # the textbook loop does, so the rows stay bitwise-equal to its rows.
        count = cutting.num_constraints
        added = HPolytope(current.H[-count:], current.h[-count:], normalize=False)
    current = current.remove_redundancies()
    if is_rpi(M, current, disturbance, tol=max(tol, 1e-6)):
        return InvarianceResult(current, max_iterations, converged=False)
    raise ValueError(
        f"maximal_rpi did not converge within {max_iterations} iterations"
    )


def _cutting_predecessors(M, current, added, disturbance, tol, iteration):
    """The rows of ``Pre(added)`` that cut ``current`` by more than
    ``tol``, or None when none does (one stacked support LP).

    Raises:
        ValueError: If ``current`` is empty or ``Pre(added)`` is empty by
            construction.
    """
    try:
        mapped = pre_autonomous(M, added, disturbance)
    except EmptySetError:
        # A predecessor so restrictive it is empty by construction
        # (e.g. the disturbance support exceeds the target's extent).
        raise ValueError("no robust positively invariant subset exists") from None
    except ValueError:
        if iteration == 1:
            raise
        # The shapes passed step 1, so every added row maps onto a
        # trivially true constraint (M is singular along it).
        return None
    try:
        cuts = current.support_batch(mapped.H) > mapped.h + tol
    except LPError:
        if current.is_empty():
            raise ValueError(
                "no robust positively invariant subset exists"
            ) from None
        raise
    if not np.any(cuts):
        return None
    return HPolytope(mapped.H[cuts], mapped.h[cuts], normalize=False)


def maximal_rci(
    A,
    B,
    constraint: HPolytope,
    input_set: HPolytope,
    disturbance: HPolytope,
    max_iterations: int = 50,
    tol: float = 1e-7,
) -> InvarianceResult:
    """Maximal robust control invariant subset of ``constraint`` (Def. 1
    with the input existentially quantified over ``U``).

    Raises:
        ValueError: As in :func:`maximal_rpi`.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    current = constraint
    for iteration in range(1, max_iterations + 1):
        try:
            pre = pre_controllable(A, B, input_set, current, disturbance)
            nxt = current.intersect(pre).remove_redundancies()
        except EmptySetError:
            raise ValueError(
                "no robust control invariant subset exists"
            ) from None
        if nxt.is_empty():
            raise ValueError("no robust control invariant subset exists")
        if nxt.contains_polytope(current, tol):
            return InvarianceResult(nxt, iteration, converged=True)
        current = nxt
    if is_rci(A, B, current, input_set, disturbance, tol=max(tol, 1e-6)):
        return InvarianceResult(current, max_iterations, converged=False)
    raise ValueError(
        f"maximal_rci did not converge within {max_iterations} iterations"
    )


def is_rpi(M, candidate: HPolytope, disturbance: HPolytope, tol: float = 1e-7) -> bool:
    """Certify ``M · candidate ⊕ W ⊆ candidate`` (robust positive invariance)."""
    pre = pre_autonomous(as_matrix(M, "M"), candidate, disturbance)
    return pre.contains_polytope(candidate, tol)


def is_rci(
    A,
    B,
    candidate: HPolytope,
    input_set: HPolytope,
    disturbance: HPolytope,
    tol: float = 1e-7,
) -> bool:
    """Certify robust control invariance of ``candidate`` (Def. 1)."""
    pre = pre_controllable(
        as_matrix(A, "A"), as_matrix(B, "B"), input_set, candidate, disturbance
    )
    return pre.contains_polytope(candidate, tol)
