"""Module-level set operations built on :class:`HPolytope`.

These free functions mirror the notation of the paper (⊕, ⊖, ∩) as
variadic folds over the :class:`HPolytope` methods.
"""

from __future__ import annotations

from repro.geometry.hpolytope import HPolytope

__all__ = [
    "minkowski_sum",
    "pontryagin_difference",
    "intersection",
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
