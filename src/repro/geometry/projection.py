"""Fourier–Motzkin elimination for orthogonal polytope projection.

The Pre-operator used for maximal robust control invariant sets needs the
projection of ``{(x, u) : constraints}`` onto the ``x`` block.  We use
classic Fourier–Motzkin elimination with LP-based redundancy pruning
*between* eliminated variables to keep the representation from exploding;
after the last elimination only duplicate rows are collapsed, because
every caller intersects the projection with another set and prunes the
intersection once.  For the low input dimensions of this library (``m`` =
1–2) this is fast and exact.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hpolytope import HPolytope, _dedupe_rows, _trivial_rows

__all__ = ["eliminate_variable", "project_onto"]


def eliminate_variable(H: np.ndarray, h: np.ndarray, index: int, tol: float = 1e-12) -> tuple:
    """Eliminate variable ``index`` from ``H x <= h`` by Fourier–Motzkin.

    Args:
        H: Constraint matrix ``(m, n)``.
        h: Offsets ``(m,)``.
        index: Column (variable) to eliminate.
        tol: Coefficients below this magnitude count as zero.

    Returns:
        ``(H', h')`` describing the projection onto the remaining
        variables, with the eliminated column removed.  The output may be
        redundant; callers should prune.
    """
    col = H[:, index]
    pos = col > tol
    neg = col < -tol
    zero = ~(pos | neg)

    rows = [np.delete(H[zero], index, axis=1)]
    offs = [h[zero]]

    H_pos = H[pos] / col[pos][:, None]
    h_pos = h[pos] / col[pos]
    H_neg = H[neg] / (-col[neg][:, None])
    h_neg = h[neg] / (-col[neg])

    # Combine every (upper bound on x_j) with every (lower bound on x_j):
    #   a_p x + x_j <= b_p   and   a_n x - x_j <= b_n
    #   =>  (a_p + a_n) x <= b_p + b_n.
    if len(h_pos) and len(h_neg):
        combined_H = (
            H_pos[:, None, :] + H_neg[None, :, :]
        ).reshape(-1, H.shape[1])
        combined_h = (h_pos[:, None] + h_neg[None, :]).reshape(-1)
        rows.append(np.delete(combined_H, index, axis=1))
        offs.append(combined_h)

    H_out = np.vstack([r for r in rows if r.size]) if any(r.size for r in rows) else np.zeros((0, H.shape[1] - 1))
    h_out = np.concatenate([o for o in offs if o.size]) if any(o.size for o in offs) else np.zeros(0)
    return H_out, h_out


def project_onto(poly: HPolytope, keep: int) -> HPolytope:
    """Project ``poly`` onto its first ``keep`` coordinates.

    Eliminates trailing variables one at a time, pruning redundant rows
    between eliminations (Fourier–Motzkin can square the row count per
    step, so pruning is essential beyond one variable).  After the last
    elimination the rows are only deduplicated (:func:`_dedupe_rows`, the
    first step of :meth:`HPolytope.remove_redundancies`): callers prune.

    Args:
        poly: Polytope over ``(x, y)`` with ``x`` the first ``keep`` axes.
        keep: Number of leading coordinates to keep (must be < dim).

    Returns:
        The exact orthogonal projection as a deduplicated, possibly
        redundant :class:`HPolytope`.

    Raises:
        ValueError: If ``keep`` is not in ``[1, dim)``.
        EmptySetError: If an elimination leaves a row ``0·x <= c`` with
            ``c < 0``.
    """
    if not 1 <= keep < poly.dim:
        raise ValueError(f"keep must be in [1, {poly.dim}), got {keep}")
    H, h = poly.H.copy(), poly.h.copy()
    for index in range(poly.dim - 1, keep - 1, -1):
        H, h = eliminate_variable(H, h, index)
        if _trivial_rows(H, h)[1].all():
            # No non-trivial row is left: the projection is all of
            # R^keep; encode it as a huge box.
            big = 1e12
            return HPolytope.from_box([-big] * keep, [big] * keep)
        normalized = HPolytope(H, h)
        if index > keep:
            pruned = normalized.remove_redundancies()
            H, h = pruned.H, pruned.h
        else:
            H, h = _dedupe_rows(normalized.H, normalized.h)
    return HPolytope(H, h, normalize=False)
