"""Module-level set operations built on :class:`HPolytope`.

These free functions mirror the notation of the paper (⊕, ⊖, affine maps,
iterated sums) and add the aggregate operations — iterated Minkowski sums
and set scaling — used by the invariant-set algorithms in
:mod:`repro.invariance`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.hpolytope import HPolytope
from repro.utils.validation import as_matrix

__all__ = [
    "minkowski_sum",
    "pontryagin_difference",
    "intersection",
    "affine_preimage",
    "affine_image",
    "iterated_sum",
    "matrix_power_sum",
    "box_hull",
    "support_vector",
]


def minkowski_sum(*polytopes: HPolytope) -> HPolytope:
    """Minkowski sum of one or more polytopes (left fold of ``⊕``)."""
    if not polytopes:
        raise ValueError("need at least one polytope")
    acc = polytopes[0]
    for poly in polytopes[1:]:
        acc = acc.minkowski_sum(poly)
    return acc


def pontryagin_difference(left: HPolytope, right: HPolytope) -> HPolytope:
    """``left ⊖ right = {x : x + right ⊆ left}`` (exact in H-rep)."""
    return left.pontryagin_difference(right)


def intersection(*polytopes: HPolytope) -> HPolytope:
    """Intersection of one or more polytopes."""
    if not polytopes:
        raise ValueError("need at least one polytope")
    acc = polytopes[0]
    for poly in polytopes[1:]:
        acc = acc.intersect(poly)
    return acc


def affine_preimage(poly: HPolytope, A, offset=None) -> HPolytope:
    """``{x : A x + offset ∈ poly}`` — exact for any ``A``."""
    return poly.linear_preimage(A, offset)


def affine_image(poly: HPolytope, A) -> HPolytope:
    """``{A x : x ∈ poly}`` (see :meth:`HPolytope.linear_image` caveats)."""
    return poly.linear_image(A)


def iterated_sum(terms: Sequence[HPolytope]) -> HPolytope:
    """Minkowski sum over a sequence, reducing pairwise in tree order.

    Tree-order reduction keeps intermediate vertex counts smaller than a
    left fold when summing many similar terms (the mRPI construction sums
    ``n`` rotated copies of the disturbance set).
    """
    items = list(terms)
    if not items:
        raise ValueError("need at least one term")
    while len(items) > 1:
        paired = []
        for i in range(0, len(items) - 1, 2):
            paired.append(items[i].minkowski_sum(items[i + 1]))
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def matrix_power_sum(M, base: HPolytope, count: int) -> HPolytope:
    """Compute ``base ⊕ M·base ⊕ M²·base ⊕ … ⊕ M^(count-1)·base``.

    This is the truncated series of the minimal robust positively
    invariant (mRPI) set construction of Raković et al. (2005) for the
    closed-loop matrix ``M = A + B K`` and disturbance set ``base = W``.

    Args:
        M: Square matrix applied repeatedly.
        base: The disturbance polytope ``W`` (must contain the origin for
            the mRPI interpretation, but this is not enforced here).
        count: Number of terms (>= 1).

    Returns:
        The Minkowski sum of the ``count`` mapped copies.
    """
    M = as_matrix(M, "M")
    if count < 1:
        raise ValueError("count must be >= 1")
    terms = []
    current = base
    power = np.eye(M.shape[0])
    for _ in range(count):
        terms.append(current)
        power = M @ power
        current = _image_any(base, power)
    return iterated_sum(terms)


def _image_any(poly: HPolytope, A: np.ndarray) -> HPolytope:
    """Image under ``A`` that tolerates singular square maps in 2-D.

    ``M^k`` of a stable closed loop can become numerically singular; for
    the 1-D/2-D sets used by the mRPI construction we then go through
    (possibly degenerate) vertex images, bloated into a thin box.
    """
    if A.shape[0] == A.shape[1] and abs(np.linalg.det(A)) > 1e-12:
        return poly.linear_image(A)
    V = poly.vertices() @ A.T
    lower = V.min(axis=0)
    upper = V.max(axis=0)
    spread = upper - lower
    if poly.dim <= 2 and np.all(spread > 1e-12):
        return HPolytope.from_vertices(V)
    # Degenerate image: thin axis-aligned box (outer approximation).
    pad = 1e-12
    return HPolytope.from_box(lower - pad, upper + pad)


def box_hull(poly: HPolytope) -> HPolytope:
    """Smallest axis-aligned box containing ``poly``."""
    lower, upper = poly.bounding_box()
    return HPolytope.from_box(lower, upper)


def support_vector(poly: HPolytope, directions) -> np.ndarray:
    """Support values of ``poly`` along each row of ``directions``
    (:meth:`HPolytope.support_batch`: one stacked LP, none for a box)."""
    return poly.support_batch(directions)
