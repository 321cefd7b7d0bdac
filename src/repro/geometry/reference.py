"""Serial reference implementations, kept as differential oracles.

:meth:`repro.geometry.HPolytope.remove_redundancies` screens rows with one
stacked LP and matches near-duplicate rows with a vectorised closeness
matrix; both must return bitwise what the original loops below return.
These are verbatim copies of those loops (the tests and
``benchmarks/bench_synthesis.py`` compare against them); nothing in the
library calls them.
"""

from __future__ import annotations

import numpy as np

from repro.utils.lp import LPError, maximize

__all__ = ["remove_redundancies_serial", "dedupe_rows_serial", "unique_rows_serial"]


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
