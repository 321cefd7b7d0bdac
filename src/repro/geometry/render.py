"""ASCII rendering of 2-D polytopes.

No plotting stack is available offline, so examples and demos render the
nested safe sets (paper Fig. 1) as character grids: each cell is tested
against the polytopes in order and painted with the glyph of the
innermost set containing it.  Trajectory points are overlaid last.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.geometry.hpolytope import HPolytope

__all__ = ["ascii_sets"]


def ascii_sets(
    polytopes: Sequence[HPolytope],
    glyphs: Sequence[str],
    width: int = 64,
    height: int = 24,
    bounds: Optional[tuple] = None,
    points: Optional[np.ndarray] = None,
    point_glyph: str = "o",
) -> str:
    """Render nested 2-D polytopes as an ASCII grid.

    Args:
        polytopes: Sets ordered outermost → innermost (later sets paint
            over earlier ones).
        glyphs: One display character per polytope.
        width: Grid columns.
        height: Grid rows.
        bounds: ``(lower, upper)`` drawing window; defaults to the first
            polytope's bounding box padded by 5%.
        points: Optional ``(N, 2)`` array of points to overlay.
        point_glyph: Character used for overlaid points.

    Returns:
        The rendered multi-line string (top row = largest y).

    Raises:
        ValueError: On dimension/length mismatches.
    """
    if len(polytopes) != len(glyphs):
        raise ValueError("need exactly one glyph per polytope")
    if any(p.dim != 2 for p in polytopes):
        raise ValueError("ascii_sets renders 2-D polytopes only")
    if bounds is None:
        lower, upper = polytopes[0].bounding_box()
        pad = 0.05 * (upper - lower)
        lower, upper = lower - pad, upper + pad
    else:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)

    xs = np.linspace(lower[0], upper[0], width)
    ys = np.linspace(lower[1], upper[1], height)
    grid = np.full((height, width), " ", dtype="<U1")
    cells = np.array([[x, y] for y in ys for x in xs])
    for poly, glyph in zip(polytopes, glyphs):
        inside = poly.contains_batch(cells).reshape(height, width)
        grid[inside] = glyph
    if points is not None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        for px, py in pts:
            col = int(round((px - lower[0]) / max(upper[0] - lower[0], 1e-12) * (width - 1)))
            row = int(round((py - lower[1]) / max(upper[1] - lower[1], 1e-12) * (height - 1)))
            if 0 <= row < height and 0 <= col < width:
                grid[row, col] = point_glyph
    # Row 0 of the grid is the smallest y; print top-down.
    lines = ["".join(grid[r]) for r in range(height - 1, -1, -1)]
    return "\n".join(lines)
