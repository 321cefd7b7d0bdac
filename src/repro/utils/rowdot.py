"""The row-dot kernel behind every bitwise matvec of the library.

``rowdot(M, X)`` returns ``M x`` for one point or ``X Mᵀ`` for a batch of
points.  Membership tests (:meth:`HPolytope.contains` and friends), the
LTI dynamics and linear feedback all evaluate their matvecs through it, so
a batch row equals the scalar result bit for bit — the lockstep engine's record-for-record determinism contract
rests on that.

Why not BLAS ``@``: BLAS picks different gemv/gemm kernels (blocking,
FMA, accumulation order) for different shapes and batch heights, so a
batch row of ``X @ M.T`` need not equal ``M @ x`` at that row.

What the kernel computes: each entry is the left-to-right sum

    ``(((+0.0 + x_0 M_r0) + x_1 M_r1) + …) + x_{n-1} M_r(n-1)``

of the correctly rounded products.  For fewer than 8 terms that is also
what numpy's reduction computes (its pairwise summation is a plain loop
from ``+0.0`` below that length), so there the kernel returns the bytes
of the earlier ``np.sum(M * X[:, None, :], axis=-1)`` expression; every
registered scenario has state and input dimension at most 4.  The
``+0.0`` start matters: without it a ``-0.0`` first product that no later
term changes stays ``-0.0``, where numpy gives ``+0.0``.  From 8 terms on
numpy regroups the sum and the two may differ in the last ulp; the
kernel stays left to right, which keeps scalar ≡ batch for every length.

How it is evaluated: one ``(T, rows)`` buffer (``(rows,)`` for a point)
is accumulated column by column, ``n`` elementwise passes in all.  A
point and a batch take the same passes, so a batch row equals the scalar
result by construction.  ``np.sum`` over the contraction axis would
instead pay one tiny inner reduction per (point, row) pair — ``T·rows``
per call — which is several times slower on the lockstep engine's
per-step monitor check.  ``tests/test_rowdot.py`` checks the kernel
against that expression byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rowdot"]


def rowdot(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row dots of ``M`` with one point or with every row of a batch.

    Args:
        M: ``(rows, n)`` float matrix.
        X: ``(n,)`` point or ``(T, n)`` float batch.

    Returns:
        ``(rows,)`` array ``M x`` for a point; ``(T, rows)`` array whose row
        ``t`` equals ``rowdot(M, X[t])`` bitwise for a batch.

    Raises:
        ValueError: if the last axis of ``X`` is not ``n`` long.
    """
    n = M.shape[1]
    if X.shape[-1] != n:
        raise ValueError(
            f"points have dimension {X.shape[-1]}, matrix has {n} columns"
        )
    if n == 0:
        return np.zeros(X.shape[:-1] + (M.shape[0],))
    out = X[..., 0:1] * M[:, 0]
    out += 0.0
    for k in range(1, n):
        out += X[..., k : k + 1] * M[:, k]
    return out
