"""Serial reference implementations, kept as differential oracles.

:meth:`repro.geometry.HPolytope.remove_redundancies` decides the rows
of 1-D and 2-D polytopes by closed-form certificates where one holds,
and every other row with warm re-solves of one HiGHS model (cold LPs
only where a warm value is too close to call); it matches near-duplicate
rows with a vectorised closeness matrix.  Both must return bitwise what
the original loops below return.  :meth:`~repro.geometry.HPolytope.is_empty`
decides 1-D and 2-D polytopes, and
:meth:`~repro.geometry.HPolytope.contains_polytope` 2-D ones, by checked
certificates where one clears its margin; the loops below decide
emptiness and containment by the LP route those fall back to
(``_empty_by_lp``, ``_contains_by_lp``), so a wrong certificate shows up
as a mismatch instead of being shared by both sides.
:func:`repro.invariance.rci.maximal_rpi` maps only the rows each
step added; it must return a set equivalent to the textbook loop's
(:func:`rpi_mismatch` states the contract).  The feasible-set recursion
and :func:`repro.invariance.rci.maximal_rci` prune once per Pre step,
after intersecting; :func:`rmpc_feasible_set_two_prune` and
:func:`maximal_rci_two_prune` also prune the projection first, as they
used to.  These are verbatim copies of the original loops (the tests and
``benchmarks/bench_synthesis.py`` compare against them); nothing in the
library calls them.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hpolytope import (
    EmptySetError,
    HPolytope,
    _contains_by_lp,
    _empty_by_lp,
)
from repro.invariance.pre import pre_autonomous, pre_controllable
from repro.invariance.rci import InvarianceResult, is_rpi
from repro.utils.lp import LPError, maximize
from repro.utils.validation import as_matrix

__all__ = [
    "remove_redundancies_serial",
    "dedupe_rows_serial",
    "unique_rows_serial",
    "maximal_rpi_reference",
    "rpi_mismatch",
    "pre_controllable_two_prune",
    "is_rci_two_prune",
    "rmpc_feasible_set_two_prune",
    "maximal_rci_two_prune",
]

#: Set-equivalence contract of :func:`rpi_mismatch`: largest row
#: difference after the canonical sort, and the mutual-containment
#: tolerance.
ROW_ATOL = 1e-12
CONTAINMENT_TOL = 1e-9


def remove_redundancies_serial(H: np.ndarray, h: np.ndarray, tol: float = 1e-9) -> tuple:
    """``(H, h)`` of the irredundant representation: one LP per row, in order."""
    H, h = dedupe_rows_serial(H, h)
    keep = np.ones(len(h), dtype=bool)
    for i in range(len(h)):
        if not keep[i]:
            continue
        mask = keep.copy()
        mask[i] = False
        if not np.any(mask):
            continue
        try:
            value = maximize(H[i], H[mask], h[mask]).value
        except LPError:
            # Unbounded without this row: the row is essential.
            continue
        if value <= h[i] + tol:
            keep[i] = False
    if np.all(keep):
        return H, h
    return H[keep], h[keep]


def dedupe_rows_serial(H: np.ndarray, h: np.ndarray, tol: float = 1e-10) -> tuple:
    """Collapse duplicate normals, keeping the tightest offset for each."""
    keep_H = []
    keep_h = []
    for a, b in zip(H, h):
        for idx, existing in enumerate(keep_H):
            if np.allclose(existing, a, atol=tol):
                keep_h[idx] = min(keep_h[idx], b)
                break
        else:
            keep_H.append(a.copy())
            keep_h.append(b)
    return np.array(keep_H), np.array(keep_h)


def unique_rows_serial(arr: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Deduplicate rows of ``arr`` up to ``tol`` (order-preserving)."""
    out: list = []
    for row in arr:
        if not any(np.allclose(row, prev, atol=tol) for prev in out):
            out.append(row)
    return np.array(out)


def maximal_rpi_reference(
    M, constraint, disturbance, max_iterations: int = 100, tol: float = 1e-7
):
    """The textbook maximal-RPI loop: ``Ω_{k+1} = Ω_k ∩ Pre(Ω_k)``, mapped
    whole and reduced every step, converged when the two sets contain
    each other."""
    M = as_matrix(M, "M")
    current = constraint
    for iteration in range(1, max_iterations + 1):
        try:
            pre = pre_autonomous(M, current, disturbance)
            nxt = current.intersect(pre).remove_redundancies()
        except EmptySetError:
            # A predecessor so restrictive it is empty by construction
            # (e.g. the disturbance support exceeds the target's extent).
            raise ValueError(
                "no robust positively invariant subset exists"
            ) from None
        if _empty_by_lp(nxt):
            raise ValueError("no robust positively invariant subset exists")
        if _contains_by_lp(current, nxt, tol) and _contains_by_lp(nxt, current, tol):
            return InvarianceResult(nxt, iteration, converged=True)
        current = nxt
    if is_rpi(M, current, disturbance, tol=max(tol, 1e-6)):
        return InvarianceResult(current, max_iterations, converged=False)
    raise ValueError(
        f"maximal_rpi did not converge within {max_iterations} iterations"
    )


def pre_controllable_two_prune(A, B, input_set, target, disturbance):
    """:func:`repro.invariance.pre.pre_controllable` with the projection
    pruned, as it was before callers took over the prune."""
    return pre_controllable(A, B, input_set, target, disturbance).remove_redundancies()


def rmpc_feasible_set_two_prune(controller):
    """:func:`repro.controllers.feasible.rmpc_feasible_set` pruning each
    Pre step twice: the projection, then its intersection with the
    stage constraint."""
    system = controller.system
    N = controller.horizon
    zero_disturbance = HPolytope.singleton(np.zeros(system.n))
    current = controller.terminal_set.intersect(controller.tightened[N])
    current = current.remove_redundancies()
    for j in range(N):
        pre = pre_controllable_two_prune(
            system.A, system.B, system.input_set, current, zero_disturbance
        )
        stage = controller.tightened[N - j - 1]
        current = pre.intersect(stage).remove_redundancies()
        if _empty_by_lp(current):
            raise ValueError(
                "RMPC feasible set is empty — terminal set or tightening "
                "is too restrictive"
            )
    return current


def maximal_rci_two_prune(
    A, B, constraint, input_set, disturbance, max_iterations: int = 50,
    tol: float = 1e-7,
):
    """:func:`repro.invariance.rci.maximal_rci` pruning each Pre step
    twice: the projection, then its intersection with the current set."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    current = constraint
    for iteration in range(1, max_iterations + 1):
        try:
            pre = pre_controllable_two_prune(A, B, input_set, current, disturbance)
            nxt = current.intersect(pre).remove_redundancies()
        except EmptySetError:
            raise ValueError(
                "no robust control invariant subset exists"
            ) from None
        if _empty_by_lp(nxt):
            raise ValueError("no robust control invariant subset exists")
        if _contains_by_lp(nxt, current, tol):
            return InvarianceResult(nxt, iteration, converged=True)
        current = nxt
    if is_rci_two_prune(A, B, current, input_set, disturbance, tol=max(tol, 1e-6)):
        return InvarianceResult(current, max_iterations, converged=False)
    raise ValueError(
        f"maximal_rci did not converge within {max_iterations} iterations"
    )


def is_rci_two_prune(A, B, candidate, input_set, disturbance, tol: float = 1e-7):
    """:func:`repro.invariance.rci.is_rci` against the pruned projection."""
    pre = pre_controllable_two_prune(
        as_matrix(A, "A"), as_matrix(B, "B"), input_set, candidate, disturbance
    )
    return _contains_by_lp(pre, candidate, tol)


def _canonical_rows(poly) -> np.ndarray:
    """``[H | h]`` in lexicographic row order; the sort keys are rounded
    to 1e-9 so last-ulp noise cannot swap two rows."""
    rows = np.column_stack([poly.H, poly.h])
    return rows[np.lexsort(np.round(rows, 9).T[::-1])]


def rpi_mismatch(fast, reference):
    """Why two :class:`~repro.invariance.rci.InvarianceResult` s are not
    set-equivalent, or None when they are: equal iteration counts and
    convergence flags, equal row counts, rows within :data:`ROW_ATOL`
    after the canonical sort, and mutual containment at
    :data:`CONTAINMENT_TOL`."""
    if (fast.iterations, fast.converged) != (reference.iterations, reference.converged):
        return (f"iterations/converged {(fast.iterations, fast.converged)} "
                f"!= {(reference.iterations, reference.converged)}")
    a, b = fast.invariant_set, reference.invariant_set
    if a.num_constraints != b.num_constraints:
        return f"{a.num_constraints} rows != {b.num_constraints} rows"
    gap = float(np.max(np.abs(_canonical_rows(a) - _canonical_rows(b))))
    if gap > ROW_ATOL:
        return f"sorted rows differ by {gap:.3g} > {ROW_ATOL:g}"
    if not (_contains_by_lp(a, b, CONTAINMENT_TOL)
            and _contains_by_lp(b, a, CONTAINMENT_TOL)):
        return f"not mutually contained at {CONTAINMENT_TOL:g}"
    return None
