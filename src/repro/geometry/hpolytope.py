"""Convex polytopes in halfspace (H-) representation.

An :class:`HPolytope` is the set ``{x in R^n : H x <= h}``.  This module is
the geometric kernel of the library: robust invariant sets, backward
reachable sets, tightened MPC constraints and the strengthened safe set of
the paper are all built from the operations defined here.

Every operation that needs optimisation uses LPs through
:mod:`repro.utils.lp` (HiGHS), except supports over an axis box, which
are closed-form (:meth:`HPolytope.support_batch`), and the redundancy
checks of 1-D and 2-D polytopes that a certificate decides.  Vertex
enumeration is used for reporting, sampling and exact 2-D Minkowski sums
(:meth:`HPolytope.vertices`, on Qhull) and, in 2-D, by redundancy
removal: a sorted half-plane intersection (:func:`_vertex_cycle`, no LP
and no Qhull) gives the polygon's vertex cycle, from which each row gets
a certificate.  No certificate is trusted on the cycle's word: each one
is checked against the rows the serial loop still keeps when it decides
that row, and a row without a certificate that holds is decided as before
— by re-solving one warm HiGHS model row by row
(:class:`repro.utils.lp.HighsModel`), then by a cold LP for every row
the warm solve cannot decide.  The result is the serial loop's bitwise
(:meth:`HPolytope.remove_redundancies`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.observability.metrics import registry as _telemetry
from repro.utils.lp import (
    HighsModel,
    LPError,
    lp_feasible,
    maximize,
    maximize_batch,
    solve_lp,
)
from repro.utils.rowdot import rowdot
from repro.utils.validation import as_matrix, as_vector

__all__ = ["HPolytope", "MembershipTester", "EmptySetError"]

# Default numerical tolerance for membership / containment tests.  Set
# computations chain many LPs, so this is deliberately looser than solver
# precision.
DEFAULT_TOL = 1e-7

#: Redundancy-removal LPs by ``phase`` (``warm`` / ``cold``).
REDUNDANCY_LPS_METRIC = "geometry_redundancy_lps_total"

#: Relative margin a warm redundancy maximum must clear, above or below
#: ``h_i + tol``, to decide its row without a cold LP.
_DECISION_MARGIN = 1e-6

#: ``linprog``'s status code of an unbounded LP (:attr:`LPError.status`).
_UNBOUNDED = 3

#: Redundancy checks of 1-D and 2-D polytopes decided by a certificate,
#: without an LP.
REDUNDANCY_CLOSED_FORM_METRIC = "geometry_redundancy_closed_form_total"

#: Smallest ``|det|`` of the two unit normals a redundancy certificate or
#: a corner is built from; a nearer-parallel pair gives neither.
_PAIR_MIN_DET = 1e-6

#: Smallest ``|det|`` of two unit normals :func:`_vertex_cycle` meets.
_CYCLE_MIN_DET = 1e-12

#: Half-width of the box :func:`_vertex_cycle` clips the polygon to,
#: relative to ``1 + max |h_i|``.
_CYCLE_BOX = 1e6

#: Fraction of its step an essential-row witness is pulled back by, so
#: that it lies strictly inside the row that stopped it.
_PULLBACK = 1e-9


class EmptySetError(ValueError):
    """Raised when an operation requires a non-empty polytope."""


class HPolytope:
    """A convex polytope ``{x : H x <= h}`` in halfspace representation.

    The representation is normalised on construction: each row of ``H`` is
    scaled to unit Euclidean norm (together with the matching entry of
    ``h``), and rows that are identically zero are dropped if trivially
    satisfied (``0 <= h_i``) or flagged as infeasible otherwise.

    Instances are immutable by convention: all operations return new
    polytopes.

    Attributes:
        H: Constraint normals, shape ``(m, n)``, rows unit-norm.
        h: Constraint offsets, shape ``(m,)``.
        dim: Ambient dimension ``n``.
    """

    __slots__ = (
        "H", "h", "_vertices_cache", "_cheb_cache", "_bbox_cache", "_box_cache"
    )

    def __init__(self, H, h, normalize: bool = True):
        H = as_matrix(H, "H")
        h = as_vector(h, "h")
        if H.shape[0] != h.shape[0]:
            raise ValueError(
                f"H has {H.shape[0]} rows but h has {h.shape[0]} entries"
            )
        if normalize:
            H, h = _normalize_rows(H, h)
        self.H = H
        self.h = h
        self._vertices_cache = None
        self._cheb_cache = None
        self._bbox_cache = None
        self._box_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_box(cls, lower, upper) -> "HPolytope":
        """Axis-aligned box ``{x : lower <= x <= upper}``.

        Raises:
            ValueError: If any ``lower[i] > upper[i]``.
        """
        lower = as_vector(lower, "lower")
        upper = as_vector(upper, "upper")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(lower > upper):
            raise ValueError("box has lower > upper in some coordinate")
        n = lower.size
        eye = np.eye(n)
        H = np.vstack([eye, -eye])
        h = np.concatenate([upper, -lower])
        return cls(H, h)

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple]) -> "HPolytope":
        """Box from a sequence of ``(low, high)`` pairs (one per axis)."""
        lower = [b[0] for b in bounds]
        upper = [b[1] for b in bounds]
        return cls.from_box(lower, upper)

    @classmethod
    def from_vertices(cls, vertices) -> "HPolytope":
        """Convex hull of a point set, as an H-polytope.

        Uses ``scipy.spatial.ConvexHull`` for full-dimensional inputs in
        dimension >= 2 and direct interval construction in 1-D.

        Raises:
            ValueError: If the hull is degenerate (not full-dimensional);
                callers should bloat degenerate sets slightly instead.
        """
        V = as_matrix(np.atleast_2d(np.asarray(vertices, dtype=float)), "vertices")
        n = V.shape[1]
        if n == 1:
            return cls.from_box([V.min()], [V.max()])
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(V)
        except QhullError as exc:
            raise ValueError(
                "vertex set is degenerate (not full-dimensional); "
                "bloat it before building an HPolytope"
            ) from exc
        # Qhull returns facets as [normal, offset] with normal.x + offset <= 0.
        H = hull.equations[:, :-1]
        h = -hull.equations[:, -1]
        poly = cls(H, h)
        return poly.remove_redundancies()

    @classmethod
    def singleton(cls, point, radius: float = 0.0) -> "HPolytope":
        """Box of half-width ``radius`` centred at ``point``.

        With the default radius 0 this is the degenerate singleton ``{point}``
        (still a valid H-polytope, just not full-dimensional).
        """
        p = as_vector(point, "point")
        return cls.from_box(p - radius, p + radius)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Ambient dimension ``n``."""
        return self.H.shape[1]

    @property
    def num_constraints(self) -> int:
        """Number of halfspaces ``m`` in the current representation."""
        return self.H.shape[0]

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        """Return True iff ``point`` satisfies every halfspace within ``tol``.

        ``H x`` is evaluated by :func:`~repro.utils.rowdot.rowdot`, so
        :meth:`contains_batch` rows reproduce it bit for bit.
        """
        x = as_vector(point, "point")
        if x.size != self.dim:
            raise ValueError(
                f"point has dimension {x.size}, polytope has {self.dim}"
            )
        return bool(np.all(rowdot(self.H, x) <= self.h + tol))

    def contains_batch(self, points, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Vectorised membership test for a ``(T, n)`` array of points.

        One broadcast replaces ``T`` scalar :meth:`contains` calls; this
        is the primitive the batch runner and the safety monitor's
        trajectory scans are built on.

        Returns:
            Boolean array of shape ``(T,)``; entry ``t`` is the exact
            (bitwise) value :meth:`contains` would return for
            ``points[t]`` (both evaluate ``H x`` by
            :func:`~repro.utils.rowdot.rowdot`).
        """
        X = self._as_batch(points)
        return np.all(rowdot(self.H, X) <= self.h + tol, axis=1)

    def contains_points(self, points, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Alias of :meth:`contains_batch` (original spelling, kept for
        backwards compatibility)."""
        return self.contains_batch(points, tol)

    def violation_batch(self, points) -> np.ndarray:
        """Largest constraint violation per row of a ``(T, n)`` array.

        Returns:
            Float array of shape ``(T,)``; entry ``t`` equals
            :meth:`violation` at ``points[t]`` bitwise (<= 0 means
            inside); both evaluate ``H x`` by
            :func:`~repro.utils.rowdot.rowdot`.
        """
        X = self._as_batch(points)
        return np.max(rowdot(self.H, X) - self.h, axis=1)

    def _as_batch(self, points) -> np.ndarray:
        """Validate and reshape ``points`` into a ``(T, n)`` float array."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        if X.ndim != 2:
            raise ValueError(
                f"points must be a (T, {self.dim}) array, got shape {X.shape}"
            )
        if X.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {X.shape[1]}, polytope has {self.dim}"
            )
        return X

    def violation(self, point) -> float:
        """Largest constraint violation at ``point`` (<= 0 means inside).

        Evaluated like :meth:`contains` so :meth:`violation_batch` rows
        match bitwise.
        """
        x = as_vector(point, "point")
        return float(np.max(rowdot(self.H, x) - self.h))

    def is_empty(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff the polytope has no point (within ``tol`` slack)."""
        return not lp_feasible(self.H, self.h + tol)

    def is_bounded(self) -> bool:
        """True iff the polytope is bounded (support finite along +/- axes).

        All ``2n`` axis supports are solved as one stacked LP
        (:meth:`support_batch`); any unbounded direction (or an empty set)
        fails the stack, which is exactly the False case.
        """
        eye = np.eye(self.dim)
        try:
            self.support_batch(np.vstack([eye, -eye]))
        except LPError:
            return False
        return True

    def support(self, direction) -> float:
        """Support function ``h_P(a) = max {a.x : x in P}``.

        Raises:
            repro.utils.lp.LPError: If the polytope is empty or unbounded
                in ``direction``.
        """
        a = as_vector(direction, "direction")
        return maximize(a, self.H, self.h).value

    def support_batch(self, directions) -> np.ndarray:
        """Support values for every row of a ``(k, n)`` direction array.

        One stacked block-diagonal LP (:func:`repro.utils.lp.maximize_batch`)
        instead of ``k`` sequential solves — the primitive behind
        :meth:`pontryagin_difference`, :meth:`minkowski_sum`,
        :meth:`bounding_box` and :meth:`is_bounded`.

        A non-empty axis box (every row ``±e_k``, every axis bounded both
        ways; every zoo ``W`` and ``U``) needs no LP for two or more
        directions: the stacked LP's value is ``dᵀx`` at the box vertex
        ``x = where(d > 0, upper, lower)``, which this returns in the
        same arithmetic, so the values are equal (a zero support may
        differ in sign, as the LP's vertex along ``d_k = 0`` axes is
        arbitrary).  A single direction still goes through
        :func:`~repro.utils.lp.solve_lp`, whose objective HiGHS sums in its
        own order; half-open and empty boxes go through the LP and raise.

        Raises:
            repro.utils.lp.LPError: If the polytope is empty or unbounded
                in any of the directions.
        """
        D = np.atleast_2d(np.asarray(directions, dtype=float))
        if D.shape[1] != self.dim:
            raise ValueError(
                f"directions have dimension {D.shape[1]}, polytope has {self.dim}"
            )
        if len(D) > 1:
            if self._box_cache is None:  # False: not such a box
                self._box_cache = _axis_box_bounds(self.H, self.h) or False
            if self._box_cache:
                lower, upper = self._box_cache
                return np.einsum("ij,ij->i", D, np.where(D > 0, upper, lower))
        return maximize_batch(D, self.H, self.h)

    def support_point(self, direction) -> np.ndarray:
        """An argmax of the support function in ``direction``."""
        a = as_vector(direction, "direction")
        return maximize(a, self.H, self.h).x

    def chebyshev_center(self) -> tuple:
        """Centre and radius of the largest inscribed ball.

        Returns:
            ``(center, radius)``.  ``radius < 0`` implies emptiness.

        Raises:
            EmptySetError: If the LP itself is infeasible (empty interior
                and empty set).
        """
        if self._cheb_cache is not None:
            return self._cheb_cache
        m, n = self.H.shape
        # Variables: (x, r); maximise r s.t. Hx + ||H_i|| r <= h.  Rows are
        # unit-norm after construction, so the coefficient on r is 1.
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A = np.hstack([self.H, np.ones((m, 1))])
        try:
            sol = solve_lp(c, a_ub=A, b_ub=self.h)
        except LPError as exc:
            raise EmptySetError(f"Chebyshev LP infeasible: {exc}") from exc
        center = sol.x[:-1]
        radius = sol.x[-1]
        self._cheb_cache = (center, float(radius))
        return self._cheb_cache

    def contains_polytope(self, other: "HPolytope", tol: float = DEFAULT_TOL) -> bool:
        """True iff ``other`` is a subset of ``self``.

        Checked by LP: ``other ⊆ self`` iff for every halfspace ``(a, b)``
        of ``self``, the support of ``other`` in direction ``a`` is at most
        ``b``.  All facet supports are solved as one stacked LP
        (:meth:`support_batch`).  Only if the stack fails is ``other``
        tested for emptiness (an empty set is a subset of anything); a
        non-empty ``other`` then goes through the per-facet loop, where a
        facet along which ``other`` is unbounded decides False.

        Raises:
            repro.utils.lp.LPError: If a per-facet LP fails other than by
                unboundedness.
        """
        try:
            supports = other.support_batch(self.H)
        except LPError:
            if other.is_empty():
                return True
            for a, b in zip(self.H, self.h):
                try:
                    value = other.support(a)
                except LPError as exc:
                    if exc.status == _UNBOUNDED:
                        return False
                    raise
                if value > b + tol:
                    return False
            return True
        return bool(np.all(supports <= self.h + tol))

    def equals(self, other: "HPolytope", tol: float = DEFAULT_TOL) -> bool:
        """Mutual containment within ``tol``."""
        return self.contains_polytope(other, tol) and other.contains_polytope(
            self, tol
        )

    def interior_point(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """A point in the (relative) interior — the Chebyshev centre.

        Raises:
            EmptySetError: If the set is empty.
        """
        center, radius = self.chebyshev_center()
        if radius < -tol:
            raise EmptySetError("polytope is empty")
        return center

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "HPolytope") -> "HPolytope":
        """Intersection (stack the halfspaces of both polytopes)."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in intersection")
        return HPolytope(
            np.vstack([self.H, other.H]), np.concatenate([self.h, other.h])
        )

    def translate(self, offset) -> "HPolytope":
        """Translate by ``offset``: ``{x + offset : x in P}``."""
        t = as_vector(offset, "offset")
        return HPolytope(self.H, self.h + self.H @ t, normalize=False)

    def scale(self, factor: float) -> "HPolytope":
        """Scale about the origin by ``factor > 0``: ``{factor * x : x in P}``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return HPolytope(self.H, self.h * factor, normalize=False)

    def pontryagin_difference(self, other: "HPolytope") -> "HPolytope":
        """Pontryagin (Minkowski) difference ``P ⊖ Q = {x : x + Q ⊆ P}``.

        Exact in H-representation: each offset shrinks by the support of
        ``Q`` in the facet-normal direction.
        """
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in Pontryagin difference")
        shrink = other.support_batch(self.H)
        return HPolytope(self.H, self.h - shrink, normalize=False)

    def minkowski_sum(self, other: "HPolytope") -> "HPolytope":
        """Minkowski sum ``P ⊕ Q``.

        In 1-D and 2-D the result is exact, computed as the convex hull of
        pairwise vertex sums.  In higher dimension we fall back to the
        support-function outer approximation on the union of both normal
        sets; that is a tight outer approximation (exact whenever the sum's
        normal fan is covered by the operands' normals, e.g. for boxes).
        """
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in Minkowski sum")
        if self.dim <= 2:
            V = self.vertices()
            W = other.vertices()
            sums = (V[:, None, :] + W[None, :, :]).reshape(-1, self.dim)
            if self.dim == 1:
                return HPolytope.from_box([sums.min()], [sums.max()])
            spread = sums.max(axis=0) - sums.min(axis=0)
            if np.any(spread < 1e-12):
                # Degenerate (flat) sum: return a thin box around it.
                return HPolytope.from_box(sums.min(axis=0), sums.max(axis=0))
            return HPolytope.from_vertices(sums)
        normals = np.vstack([self.H, other.H])
        offsets = self.support_batch(normals) + other.support_batch(normals)
        return HPolytope(normals, offsets).remove_redundancies()

    def linear_preimage(self, A, offset=None) -> "HPolytope":
        """Preimage under an affine map: ``{x : A x + offset ∈ P}``.

        Exact for any matrix ``A`` (square or not, singular or not) because
        the halfspaces compose: ``H (A x + t) <= h`` is ``(H A) x <= h - H t``.
        """
        A = as_matrix(A, "A")
        if A.shape[0] != self.dim:
            raise ValueError(
                f"map output dimension {A.shape[0]} != polytope dimension {self.dim}"
            )
        h = self.h.copy()
        if offset is not None:
            t = as_vector(offset, "offset")
            h = h - self.H @ t
        return HPolytope(self.H @ A, h)

    def linear_image(self, A) -> "HPolytope":
        """Image under ``x -> A x``.

        Exact for invertible ``A`` (via the preimage of the inverse).  For
        non-square or singular maps with output dimension <= 2 the image is
        built exactly from mapped vertices; otherwise a ValueError is
        raised (the library never needs that case).
        """
        A = as_matrix(A, "A")
        if A.shape[1] != self.dim:
            raise ValueError(
                f"map input dimension {A.shape[1]} != polytope dimension {self.dim}"
            )
        if A.shape[0] == A.shape[1]:
            det = np.linalg.det(A)
            if abs(det) > 1e-12:
                return HPolytope(self.H @ np.linalg.inv(A), self.h)
        if A.shape[0] <= 2:
            V = self.vertices() @ A.T
            if A.shape[0] == 1:
                return HPolytope.from_box([V.min()], [V.max()])
            return HPolytope.from_vertices(V)
        raise ValueError(
            "linear_image requires an invertible map or output dimension <= 2"
        )

    def remove_redundancies(self, tol: float = 1e-9) -> "HPolytope":
        """Return an irredundant representation of the same set.

        A halfspace is redundant iff maximising its normal over the
        remaining constraints (with the row itself dropped) cannot exceed
        its offset by more than ``tol``.  Near-duplicate rows are
        collapsed first (:func:`_dedupe_rows`); then the rows are checked
        in order, each against the rows still kept (the *serial loop*), so
        an earlier removal widens every later check.  An unbounded check
        keeps its row, and so does an infeasible one (the serial loop's
        ``LPError``): on an empty set every row whose check region is
        empty is kept.

        **Certificates (n <= 2).**  With ``M`` the rows still kept minus
        row ``i``, and ``m_i = 1e-6·(1 + |h_i|)`` the decision margin,
        row ``i`` is decided without an LP by one of
        (:class:`_RowCertificates`):

        * *redundant*: two rows ``j, k`` of ``M`` with ``H_i = λ_j H_j +
          λ_k H_k``, ``λ >= 0``, and ``λ·h < h_i + tol - m_i``, plus a
          point of the set as the feasibility witness (an empty check
          region keeps the row, whatever ``λ`` says);
        * *essential (point)*: a point inside every row of ``M`` with
          ``H_i x > h_i + tol + m_i``;
        * *essential (ray)*: a direction ``d`` with ``H_j d <= 0`` for
          every ``j`` in ``M`` and ``H_i d > 0`` (the check is unbounded,
          or infeasible).

        The pair ``j, k`` and the points come from the polygon's vertex
        cycle (:func:`_vertex_cycle`), built once per call; a 1-D set's
        deduplicated rows are one ``±1`` pair, which rays decide.  The
        cycle only proposes: two shortcuts it suggests are unsound on
        their own.  A facet's value is not always its neighbours' corner,
        and its neighbours opening by π does not make it ``+inf``,
        because another kept row can cut off that corner or bound that
        ray.  So every point and ray is checked against every row of the
        *current* ``M`` before it decides: first against every row but
        ``i``, a superset of any ``M`` the loop reaches, then against
        ``M`` itself.  An essential point is the corner, or where the
        segment to it from the facet's midpoint first leaves a checked
        row, pulled back inside.  A row with no
        certificate that holds — a value inside the margin, near-parallel
        rows, several lines through one vertex, a corner cut off by a
        kept non-facet row, an empty set, a non-unit row or a non-finite
        offset — keeps the LP route below.

        **LP route.**  The first such row builds one warm HiGHS model over
        the deduplicated rows (:class:`repro.utils.lp.HighsModel`),
        with the rows already dropped freed: row ``i`` is freed, the cost
        set to ``-H_i``, and the model re-run from the previous basis; a
        dropped row keeps its ``+inf`` bound, which is the serial loop's
        running mask.  The warm LP has the serial check's feasible region
        and objective, so its optimum differs from the cold one only by
        solver error.  A warm maximum above ``h_i + tol + m_i`` therefore
        keeps the row and one below ``h_i + tol - m_i`` drops it, exactly
        as the cold check would; an unbounded warm LP keeps the row, as
        the serial loop does.  Every other row — a value inside the
        margin, an infeasible or failed solve, a point that fails the
        residual check, or no bundled core — is re-solved cold with the
        serial loop's own ``maximize(H[i], H[mask], h[mask])``.

        The result is the serial loop's bitwise.  Each certified row
        counts one ``geometry_redundancy_closed_form_total``, and each LP
        one ``geometry_redundancy_lps_total{phase}`` (``warm`` /
        ``cold``).
        """
        H, h = _dedupe_rows(self.H, self.h)
        reg = _telemetry()
        certificates = _RowCertificates.build(H, h, tol)
        model, built = None, False
        keep = np.ones(len(h), dtype=bool)
        kept, certified = len(h), 0
        for i in range(len(h)):
            if kept == 1:
                continue  # row i is the only row left: nothing to check
            redundant = None
            if certificates is not None:
                redundant = certificates.decide(i, keep)
            if redundant is not None:
                certified += 1
                if redundant and model is not None:
                    model.free_row(i)
            else:
                mask = keep.copy()
                mask[i] = False
                if not built:
                    built, model = True, HighsModel.over(H, h)
                    if model is not None:
                        for j in np.flatnonzero(~keep):
                            model.free_row(j)
                if model is not None:
                    reg.inc(REDUNDANCY_LPS_METRIC, phase="warm")
                    redundant = _warm_redundant(
                        model.maximize_freed(i, H[i]), h[i], tol
                    )
                if redundant is None:
                    reg.inc(REDUNDANCY_LPS_METRIC, phase="cold")
                    try:
                        redundant = maximize(H[i], H[mask], h[mask]).value <= h[i] + tol
                    except LPError:
                        # Unbounded without this row: the row is essential.
                        redundant = False
                if not redundant and model is not None:
                    model.restore_row(i)
            if redundant:
                keep[i] = False
                kept -= 1
        if certified:
            reg.inc(REDUNDANCY_CLOSED_FORM_METRIC, certified)
        if np.all(keep):
            return HPolytope(H, h, normalize=False)
        return HPolytope(H[keep], h[keep], normalize=False)

    def bounding_box(self) -> tuple:
        """Tight axis-aligned bounding box ``(lower, upper)``.

        Cached after the first call (polytopes are immutable); callers
        receive copies, so mutating the result cannot poison the cache.

        Raises:
            repro.utils.lp.LPError: If unbounded or empty.
        """
        if self._bbox_cache is None:
            eye = np.eye(self.dim)
            values = self.support_batch(np.vstack([eye, -eye]))
            self._bbox_cache = (-values[self.dim :], values[: self.dim])
        lower, upper = self._bbox_cache
        return lower.copy(), upper.copy()

    # ------------------------------------------------------------------
    # Vertices and sampling
    # ------------------------------------------------------------------
    def vertices(self) -> np.ndarray:
        """Vertex enumeration, shape ``(k, n)``.

        Uses ``scipy.spatial.HalfspaceIntersection`` seeded with the
        Chebyshev centre.  For (near-)degenerate polytopes whose Chebyshev
        radius is ~0 the halfspace intersection is ill-posed; we then fall
        back to pairwise facet intersection (exact for n <= 2).

        Raises:
            EmptySetError: If the polytope is empty.
        """
        if self._vertices_cache is not None:
            return self._vertices_cache
        center, radius = self.chebyshev_center()
        if radius < -DEFAULT_TOL:
            raise EmptySetError("cannot enumerate vertices of an empty set")
        if self.dim == 1:
            lo = -self.support(np.array([-1.0]))
            hi = self.support(np.array([1.0]))
            verts = np.array([[lo], [hi]])
        elif radius > 1e-9:
            from scipy.spatial import HalfspaceIntersection

            halfspaces = np.hstack([self.H, -self.h[:, None]])
            hs = HalfspaceIntersection(halfspaces, center)
            verts = _unique_rows(hs.intersections)
        elif self.dim == 2:
            verts = self._vertices_by_facet_pairs()
        else:
            raise EmptySetError(
                "degenerate polytope in dimension > 2: vertex enumeration "
                "unsupported (bloat the set first)"
            )
        self._vertices_cache = verts
        return verts

    def _vertices_by_facet_pairs(self) -> np.ndarray:
        """Exact 2-D vertex enumeration by intersecting facet pairs."""
        points = []
        m = self.num_constraints
        for i in range(m):
            for j in range(i + 1, m):
                A = np.vstack([self.H[i], self.H[j]])
                if abs(np.linalg.det(A)) < 1e-12:
                    continue
                p = np.linalg.solve(A, np.array([self.h[i], self.h[j]]))
                if self.contains(p, tol=1e-7):
                    points.append(p)
        if not points:
            raise EmptySetError("no vertices found (empty or unbounded set)")
        return _unique_rows(np.array(points))

    def sample(self, rng: np.random.Generator, count: int = 1, max_tries: int = 10000) -> np.ndarray:
        """Uniform-ish samples by rejection from the bounding box.

        Adequate for well-conditioned sets (the ACC sets are).  Falls back
        to returning Chebyshev-centre-biased points if rejection stalls.

        Returns:
            Array of shape ``(count, n)``.
        """
        lower, upper = self.bounding_box()
        # Zero-width axes (flat sets, e.g. single-channel disturbance
        # boxes) can come back with upper below lower by LP tolerance
        # jitter — including upper = -0.0 vs lower = +0.0, whose
        # difference is -0.0 and trips rng.uniform's sign check.
        # Collapse such axes onto lower exactly.
        upper = np.where(upper > lower, upper, lower)
        out = np.empty((count, self.dim))
        filled = 0
        tries = 0
        while filled < count and tries < max_tries:
            batch = rng.uniform(lower, upper, size=(count * 4, self.dim))
            inside = self.contains_points(batch)
            good = batch[inside]
            take = min(len(good), count - filled)
            out[filled : filled + take] = good[:take]
            filled += take
            tries += 1
        if filled < count:
            # Thin set: blend bounding-box samples toward the centre.
            center, _ = self.chebyshev_center()
            while filled < count:
                point = rng.uniform(lower, upper)
                lam = 1.0
                for _ in range(60):
                    candidate = center + lam * (point - center)
                    if self.contains(candidate):
                        out[filled] = candidate
                        break
                    lam *= 0.5
                else:
                    out[filled] = center
                filled += 1
        return out

    def volume(self) -> float:
        """Volume via Qhull on the vertex set (exact for bounded sets)."""
        from scipy.spatial import ConvexHull

        verts = self.vertices()
        if verts.shape[0] <= self.dim:
            return 0.0
        try:
            return float(ConvexHull(verts).volume)
        except Exception:
            return 0.0

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, point) -> bool:
        return self.contains(point)

    def __and__(self, other: "HPolytope") -> "HPolytope":
        return self.intersect(other)

    def __add__(self, other):
        if isinstance(other, HPolytope):
            return self.minkowski_sum(other)
        return self.translate(other)

    def __sub__(self, other):
        if isinstance(other, HPolytope):
            return self.pontryagin_difference(other)
        return self.translate(-np.asarray(other, dtype=float))

    def __mul__(self, factor: float) -> "HPolytope":
        return self.scale(float(factor))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim}, constraints={self.num_constraints})"


class MembershipTester:
    """Fused membership of one point batch against several polytopes.

    Classifying a batch against nested sets (the safety monitor's
    ``X' ⊆ XI`` pair) with per-polytope :meth:`HPolytope.contains_batch`
    calls pays one full ``(T, m_i, n)`` broadcast *per polytope*.  This
    helper stacks all the halfspace matrices once at construction so a
    single :func:`~repro.utils.rowdot.rowdot` call answers every
    membership question per batch — the lockstep engine's per-step
    classification drops from two kernel calls to one.

    Bitwise contract: :meth:`contains_each` returns exactly the boolean
    arrays the individual ``contains_batch`` calls would.  Each
    constraint row's dot is accumulated over the state dimension
    independently of how many rows share the stack, and the
    per-polytope offsets are pre-shifted by the same ``h + tol`` the
    scalar test adds — so stacking changes no float anywhere.  The batch
    engines' record-for-record determinism contract rests on that.

    Args:
        polytopes: The sets to test against, all of one dimension.
        tol: Membership tolerance, baked into the stacked offsets
            (matching the default of :meth:`HPolytope.contains`).
    """

    __slots__ = ("_H", "_limits", "_splits", "dim", "tol")

    def __init__(self, polytopes: Sequence["HPolytope"], tol: float = DEFAULT_TOL):
        if not polytopes:
            raise ValueError("need at least one polytope")
        dims = {p.dim for p in polytopes}
        if len(dims) != 1:
            raise ValueError(
                f"polytopes must share one dimension, got {sorted(dims)}"
            )
        self.dim = polytopes[0].dim
        self.tol = tol
        self._H = np.vstack([p.H for p in polytopes])
        self._limits = np.concatenate([p.h + tol for p in polytopes])
        counts = np.array([p.num_constraints for p in polytopes])
        self._splits = np.cumsum(counts)[:-1]

    def contains_each(self, points) -> tuple:
        """Per-polytope membership of every row of a ``(T, n)`` array.

        Returns:
            One boolean ``(T,)`` array per polytope, in constructor
            order; array ``k``'s entry ``t`` is bitwise-identical to
            ``polytopes[k].contains_batch(points, tol)[t]``.
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {X.shape[1]}, tester has {self.dim}"
            )
        satisfied = rowdot(self._H, X) <= self._limits
        return tuple(
            part.all(axis=1) for part in np.split(satisfied, self._splits, axis=1)
        )


#: Rows whose normal is shorter than this are ``0·x <= h``: trivially
#: true (dropped) for ``h >= 0``, empty by construction for ``h < 0``.
_ZERO_ROW_NORM = 1e-14


def _trivial_rows(H: np.ndarray, h: np.ndarray) -> tuple:
    """``(norms, zero)``: the row norms of ``H`` and the mask of its
    ``0·x <= h`` rows.

    Raises:
        EmptySetError: If a zero row has ``h < 0``.
    """
    norms = np.linalg.norm(H, axis=1)
    zero = norms < _ZERO_ROW_NORM
    if np.any(zero & (h < -1e-12)):
        raise EmptySetError(
            "constraint 0.x <= h with h < 0 (empty by construction)"
        )
    return norms, zero


def _normalize_rows(H: np.ndarray, h: np.ndarray) -> tuple:
    """Unit-normalise constraint rows, dropping trivially true zero rows."""
    norms, zero = _trivial_rows(H, h)
    if np.any(zero):
        H = H[~zero]
        h = h[~zero]
        norms = norms[~zero]
    if H.shape[0] == 0:
        raise ValueError("polytope needs at least one non-trivial constraint")
    return H / norms[:, None], h / norms


def _axis_box_bounds(H: np.ndarray, h: np.ndarray):
    """``(lower, upper)`` of ``{x : H x <= h}`` when every row of ``H`` is
    ``±e_k``, every axis has both a ``+e_k`` and a ``-e_k`` row and
    ``lower <= upper``; else None.  Repeated rows take the tightest
    offset."""
    nonzero = H != 0
    if not np.all(nonzero.sum(axis=1) == 1):
        return None
    axis = np.argmax(nonzero, axis=1)
    sign = H[np.arange(len(h)), axis]
    if not np.all(np.abs(sign) == 1.0):
        return None
    n = H.shape[1]
    upper = np.full(n, np.inf)
    lower = np.full(n, -np.inf)
    for k, s, b in zip(axis, sign, h):
        if s > 0:
            upper[k] = min(upper[k], b)
        else:
            lower[k] = max(lower[k], -b)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
            and np.all(lower <= upper)):
        return None
    return lower, upper


def _warm_redundant(outcome, offset: float, tol: float):
    """The serial loop's decision for a row from its warm solve: True
    (redundant), False (essential), or None when only a cold LP can tell
    (see :meth:`HPolytope.remove_redundancies`)."""
    if outcome.status == _UNBOUNDED:
        return False
    if not outcome.success:
        return None
    value = -outcome.fun
    margin = _DECISION_MARGIN * (1.0 + abs(offset))
    if value > offset + tol + margin:
        return False
    if value < offset + tol - margin:
        return True
    return None


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_0 b_1 - a_1 b_0`` row by row."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class _RowCertificates:
    """Closed-form serial redundancy checks of a 1-D or 2-D polytope
    (the certificates of :meth:`HPolytope.remove_redundancies`).

    Built once per call over the deduplicated rows.  Row ``i`` gets:

    * a *pair* ``(j, k)`` and a redundancy flag set from ``λ·h``: a
      facet's two neighbours on the vertex cycle, or, for a row that is
      not a facet, the two facets at the vertex that maximises ``H_i x``;
    * a *shot*: an origin, a direction and a step cap.  A facet shoots
      from its edge's midpoint at its neighbours' corner (cap 1) when the
      neighbours open by less than π, else along ``H_i`` (no cap); every
      other row, and every 1-D row, shoots along ``H_i`` from the origin.
      The shot stops where it first leaves a row it is checked against
      and is pulled back inside; an uncapped shot that no row stops is a
      ray.

    Every shot is first checked against all rows but its own
    (:attr:`essential`): a point inside all of them, or a ray none of
    them bounds, is one for every subset, so it holds for whatever mask
    the serial loop reaches.  A row without one is shot again against
    its current mask in :meth:`decide`.
    """

    __slots__ = ("H", "h", "tol", "margin", "pair", "redundant",
                 "origin", "direction", "cap", "essential")

    def __init__(self, H, h, tol):
        m, n = H.shape
        self.H, self.h, self.tol = H, h, tol
        self.margin = _DECISION_MARGIN * (1.0 + np.abs(h))
        self.pair = np.full((m, 2), -1)
        self.redundant = np.zeros(m, dtype=bool)
        self.origin = np.zeros((m, n))
        self.direction = H
        self.cap = np.full(m, np.inf)

    @classmethod
    def build(cls, H: np.ndarray, h: np.ndarray, tol: float):
        """The certificates of ``H x <= h`` (deduplicated rows), or None
        when no row can have one: more than 2 dimensions, fewer than two
        rows, a non-finite entry or a row that is not unit-norm."""
        m, n = H.shape
        if n > 2 or m < 2:
            return None
        if not (np.isfinite(H).all() and np.isfinite(h).all()):
            return None
        if np.any(np.abs(np.einsum("ij,ij->i", H, H) - 1.0) > 1e-12):
            return None
        certificates = cls(H, h, tol)
        cycle = _vertex_cycle(H, h) if n == 2 else None
        if cycle is not None:
            certificates._from_cycle(*cycle)
        certificates.essential = certificates._shoot(np.arange(m), ~np.eye(m, dtype=bool))
        return certificates

    def _from_cycle(self, facets: np.ndarray, V: np.ndarray) -> None:
        """Set each row's pair, redundancy flag and shot from the vertex
        cycle (:func:`_vertex_cycle`)."""
        H, h = self.H, self.h
        m, k = len(h), len(facets)
        after = np.roll(facets, -1)
        position = np.full(m, -1)
        real = facets >= 0
        position[facets[real]] = np.flatnonzero(real)
        facet = position >= 0
        at = np.maximum(position, 0)
        support = np.argmax(H @ V.T, axis=1)
        # Vertex t joins edges t and t + 1; edge t runs from vertex t - 1.
        first = np.where(facet, facets[(at - 1) % k], facets[support])
        second = np.where(facet, after[at], after[support])
        a, b = np.maximum(first, 0), np.maximum(second, 0)
        det = _cross(H[a], H[b])
        valid = (first >= 0) & (second >= 0) & (np.abs(det) >= _PAIR_MIN_DET)
        det = np.where(valid, det, 1.0)
        # H_i = λ_a H_a + λ_b H_b, by Cramer's rule.
        lam_a = _cross(H, H[b]) / det
        lam_b = _cross(H[a], H) / det
        cone = valid & (lam_a >= 0) & (lam_b >= 0)
        bound = lam_a * h[a] + lam_b * h[b]
        # The feasibility witness: the vertices' mean, strictly inside.
        witness = bool(np.all(H @ V.mean(axis=0) < h))
        self.pair = np.where(valid[:, None], np.stack([first, second], axis=1), -1)
        self.redundant = cone & witness & (bound < h + self.tol - self.margin)
        # Facets shoot from the midpoint of their edge.
        rows = np.flatnonzero(facet)
        self.origin[rows] = 0.5 * (V[position[rows] - 1] + V[position[rows]])
        corner = np.stack([
            (h[a] * H[b, 1] - h[b] * H[a, 1]) / det,
            (H[a, 0] * h[b] - H[b, 0] * h[a]) / det,
        ], axis=1)
        aim = facet & cone & (np.einsum("ij,ij->i", H, corner) > h)
        self.direction = np.where(aim[:, None], corner - self.origin, H)
        self.cap = np.where(aim, 1.0, np.inf)

    def _shoot(self, rows: np.ndarray, against: np.ndarray) -> np.ndarray:
        """Whether each of ``rows`` is essential by its shot, checked
        against the rows ``against[:, t]`` (shape ``(m, len(rows))``)."""
        H, h = self.H, self.h
        U, O = self.direction[rows], self.origin[rows]
        # Element-wise, so that an exactly orthogonal row rates exactly 0.
        rate = H[:, :1] * U[:, 0]
        if H.shape[1] == 2:
            rate = rate + H[:, 1:] * U[:, 1]
        blocking = against & (rate > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(blocking, (h[:, None] - H @ O.T) / rate, np.inf)
        step = np.minimum(self.cap[rows], ratio.min(axis=0))
        ray = np.isinf(step)  # uncapped (so u = H_i) and unblocked
        step = np.where(ray, 0.0, step) * (1.0 - _PULLBACK)
        X = O + step[:, None] * U
        inside = np.all((H @ X.T <= h[:, None]) | ~against, axis=0)
        value = np.einsum("ij,ij->i", H[rows], X)
        cuts = value > h[rows] + self.tol + self.margin[rows]
        return ray | ((step > 0) & inside & cuts)

    def decide(self, i: int, keep: np.ndarray) -> Optional[bool]:
        """Row ``i``'s serial decision against the rows still kept:
        True (redundant), False (essential), or None when no certificate
        holds."""
        j, k = self.pair[i]
        if self.redundant[i] and keep[j] and keep[k]:
            return True
        if self.essential[i]:
            return False
        if keep.all():
            return None  # the mask is the one :attr:`essential` was shot at
        mask = keep.copy()
        mask[i] = False
        return False if self._shoot(np.array([i]), mask[:, None])[0] else None


def _vertex_cycle(H: np.ndarray, h: np.ndarray):
    """The vertex cycle of ``{x in R^2 : H x <= h}`` clipped to a box of
    half-width ``1e6·(1 + max |h_i|)``, by the sorted half-plane
    intersection (Preparata & Shamos, *Computational Geometry*, 1985,
    ch. 7): O(m log m), no LP, no Qhull.

    Returns:
        ``(facets, V)`` — ``facets[t]`` is the row of the cycle's ``t``-th
        edge in counter-clockwise order (``-1`` for a side of the box),
        and ``V[t]`` the vertex where edges ``t`` and ``t + 1`` meet — or
        None when fewer than three edges remain (an empty set) or two
        consecutive lines are parallel.  Nothing here is trusted: the
        certificates built on it are checked row by row.
    """
    m = len(h)
    half = _CYCLE_BOX * (1.0 + float(np.max(np.abs(h))))
    lines = [(float(a), float(b), float(c)) for (a, b), c in zip(H, h)]
    lines += [(1.0, 0.0, half), (0.0, 1.0, half), (-1.0, 0.0, half), (0.0, -1.0, half)]
    # ``+ 0.0`` maps a -0.0 component to +0.0, so no direction sorts both
    # first (at -π) and last (at +π).
    angle = [math.atan2(b + 0.0, a) for a, b, _ in lines]
    order = sorted(range(len(lines)), key=lambda r: (angle[r], lines[r][2]))

    def meet(r, s):
        a1, b1, c1 = lines[r]
        a2, b2, c2 = lines[s]
        det = a1 * b2 - b1 * a2
        if not abs(det) >= _CYCLE_MIN_DET:
            raise ZeroDivisionError
        return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det

    def outside(r, point):
        a, b, c = lines[r]
        return a * point[0] + b * point[1] > c

    edges = deque()
    try:
        for r in order:
            if edges and angle[edges[-1]] == angle[r]:
                continue  # same direction, looser offset
            while len(edges) >= 2 and outside(r, meet(edges[-2], edges[-1])):
                edges.pop()
            while len(edges) >= 2 and outside(r, meet(edges[0], edges[1])):
                edges.popleft()
            edges.append(r)
        while len(edges) >= 3 and outside(edges[0], meet(edges[-2], edges[-1])):
            edges.pop()
        while len(edges) >= 3 and outside(edges[-1], meet(edges[0], edges[1])):
            edges.popleft()
        if len(edges) < 3:
            return None
        edges = list(edges)
        V = np.array([meet(r, s) for r, s in zip(edges, edges[1:] + edges[:1])])
    except ZeroDivisionError:
        return None
    return np.array([r if r < m else -1 for r in edges]), V


#: ``np.allclose``'s default relative tolerance, which both greedy row
#: matchers below inherited from their ``np.allclose`` loops.
_ALLCLOSE_RTOL = 1e-5
#: Absolute tolerances of :func:`_dedupe_rows` and :func:`_unique_rows`.
_DEDUPE_ATOL = 1e-10
_UNIQUE_ATOL = 1e-8


def _first_matches(A: np.ndarray, atol: float, scale_by_earlier: bool) -> np.ndarray:
    """Greedy first-match grouping of the rows of ``A``.

    Row ``j`` joins the first earlier representative ``r`` it is close
    to, else it becomes a representative itself — exactly the loop
    ``for r in reps: if np.allclose(x, y, atol=atol)``.  Closeness is
    ``np.allclose``'s formula for finite rows, ``|x - y| <= atol +
    rtol·|y|``, with ``y`` the earlier row when ``scale_by_earlier`` and
    the later row otherwise.  The ``(m, m)`` closeness matrix is built one
    column at a time, so no ``(m, m, n)`` temporary is ever allocated.

    Returns:
        ``(m,)`` int array: the index of each row's representative (a
        representative maps to itself).
    """
    m = A.shape[0]
    close = np.ones((m, m), dtype=bool)  # close[r, j]: r earlier, j later
    for column in A.T:
        x, y = column[:, None], column[None, :]
        if scale_by_earlier:
            x, y = y, x
        close &= np.abs(x - y) <= atol + _ALLCLOSE_RTOL * np.abs(y)
    close = np.triu(close, 1)
    rep = np.arange(m)
    is_rep = np.ones(m, dtype=bool)
    for j in np.flatnonzero(close.any(axis=0)):
        earlier = np.flatnonzero(close[:j, j] & is_rep[:j])
        if earlier.size:
            is_rep[j] = False
            rep[j] = earlier[0]
    return rep


def _dedupe_rows(H: np.ndarray, h: np.ndarray, tol: float = _DEDUPE_ATOL) -> tuple:
    """Collapse duplicate normals, keeping the tightest offset for each.

    Bitwise-equal to the greedy ``np.allclose(existing, row, atol=tol)``
    loop with ``min`` over each group's offsets, taken in row order (so
    between ``0.0`` and ``-0.0`` the first one wins, as ``min`` keeps it).
    """
    rep = _first_matches(H, tol, scale_by_earlier=False)
    reps = np.flatnonzero(rep == np.arange(len(rep)))
    group = np.searchsorted(reps, rep)
    # Smallest offset per group, ties broken by row order.
    order = np.lexsort((np.arange(len(h)), h, group))
    first = order[np.r_[0, np.flatnonzero(np.diff(group[order])) + 1]]
    return H[reps], h[first]


def _unique_rows(arr: np.ndarray, tol: float = _UNIQUE_ATOL) -> np.ndarray:
    """Deduplicate rows of ``arr`` up to ``tol`` (order-preserving).

    Bitwise-equal to the greedy ``np.allclose(row, kept, atol=tol)`` loop.
    """
    rep = _first_matches(arr, tol, scale_by_earlier=True)
    return arr[rep == np.arange(len(rep))]
