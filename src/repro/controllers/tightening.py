"""Recursive constraint tightening for robust MPC (paper Eq. 5).

The paper defines, for the safe set ``X`` and disturbance ``W``:

    X(0) = X,
    X(k) = {x ∈ X(k-1) : x ⊕ A^{k-1} W ⊆ X(k-1)},  k >= 1,

i.e. ``X(k) = X(k-1) ⊖ A^{k-1} W`` (the intersection with ``X(k-1)`` is
implied because ``0 ∈ W``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry import HPolytope
from repro.utils.validation import as_matrix

__all__ = ["tightened_constraints"]


def tightened_constraints(
    safe_set: HPolytope,
    disturbance: HPolytope,
    horizon: int,
    propagation,
) -> list:
    """Tightened state-constraint sequence ``[X(0), …, X(horizon)]``.

    Args:
        safe_set: ``X(0) = X``.
        disturbance: ``W``.
        horizon: Number of tightening steps ``N``.
        propagation: Matrix propagating the disturbance between steps
            (the system matrix ``A`` in Eq. 5).

    Returns:
        List of ``horizon + 1`` polytopes, nested by construction.

    Raises:
        ValueError: If any tightened set becomes empty (horizon too long
            for the disturbance magnitude).
    """
    M = as_matrix(propagation, "propagation")
    sets = [safe_set]
    mapped = disturbance
    for k in range(1, horizon + 1):
        tightened = sets[-1].pontryagin_difference(mapped)
        if tightened.is_empty():
            raise ValueError(
                f"tightened constraint X({k}) is empty; shorten the horizon "
                "or reduce the disturbance set"
            )
        sets.append(tightened.remove_redundancies())
        # Next step erodes by M^k W: map the current eroding set once more.
        vertices_ok = mapped.dim <= 2
        if vertices_ok:
            V = mapped.vertices() @ M.T
            spread = V.max(axis=0) - V.min(axis=0)
            if np.all(spread > 1e-12):
                mapped = HPolytope.from_vertices(V)
            else:
                pad = 1e-12
                mapped = HPolytope.from_box(V.min(axis=0) - pad, V.max(axis=0) + pad)
        else:
            mapped = mapped.linear_image(M)
    return sets
