"""Convex polytopes in halfspace (H-) representation.

An :class:`HPolytope` is the set ``{x in R^n : H x <= h}``.  This module is
the geometric kernel of the library: robust invariant sets, backward
reachable sets, tightened MPC constraints and the strengthened safe set of
the paper are all built from the operations defined here.

Every operation that needs optimisation uses LPs through
:mod:`repro.utils.lp` (HiGHS); nothing here depends on vertex enumeration
except :meth:`HPolytope.vertices`, which is only used for reporting,
sampling and exact 2-D Minkowski sums.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.observability.metrics import registry as _telemetry
from repro.utils.lp import LPError, lp_feasible, maximize, maximize_batch, solve_lp
from repro.utils.validation import as_matrix, as_vector

__all__ = ["HPolytope", "MembershipTester", "EmptySetError"]

# Default numerical tolerance for membership / containment tests.  Set
# computations chain many LPs, so this is deliberately looser than solver
# precision.
DEFAULT_TOL = 1e-7

#: Redundancy-removal LPs by ``phase`` (``screen`` / ``recheck``).
REDUNDANCY_LPS_METRIC = "geometry_redundancy_lps_total"

#: How far the screen relaxes each block's own row (finite, so every
#: block stays bounded in its objective), and the relative margin a
#: screen maximum must clear to settle a row as essential.
_SCREEN_RELAXATION = 1e3
_SCREEN_MARGIN = 1e-6


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

    __slots__ = ("H", "h", "_vertices_cache", "_cheb_cache", "_bbox_cache")

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

        ``H x`` is evaluated as multiply + pairwise row reduction rather
        than BLAS ``@`` so that :meth:`contains_batch` rows reproduce it
        bit for bit (BLAS picks different gemv/gemm kernels per shape;
        the batch engines' differential determinism contract needs the
        classifications to agree exactly, not just within tolerance).
        """
        x = as_vector(point, "point")
        if x.size != self.dim:
            raise ValueError(
                f"point has dimension {x.size}, polytope has {self.dim}"
            )
        return bool(np.all(np.sum(self.H * x, axis=1) <= self.h + tol))

    def contains_batch(self, points, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Vectorised membership test for a ``(T, n)`` array of points.

        One broadcast replaces ``T`` scalar :meth:`contains` calls; this
        is the primitive the batch runner and the safety monitor's
        trajectory scans are built on.

        Returns:
            Boolean array of shape ``(T,)``; entry ``t`` is the exact
            (bitwise) value :meth:`contains` would return for
            ``points[t]`` — both share the multiply + pairwise-reduce
            evaluation (see :meth:`contains`).
        """
        X = self._as_batch(points)
        products = np.sum(self.H * X[:, None, :], axis=2)
        return np.all(products <= self.h + tol, axis=1)

    def contains_points(self, points, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Alias of :meth:`contains_batch` (original spelling, kept for
        backwards compatibility)."""
        return self.contains_batch(points, tol)

    def violation_batch(self, points) -> np.ndarray:
        """Largest constraint violation per row of a ``(T, n)`` array.

        Returns:
            Float array of shape ``(T,)``; entry ``t`` equals
            :meth:`violation` at ``points[t]`` bitwise (<= 0 means
            inside) — shared multiply + pairwise-reduce evaluation, see
            :meth:`contains`.
        """
        X = self._as_batch(points)
        return np.max(np.sum(self.H * X[:, None, :], axis=2) - self.h, axis=1)

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
        return float(np.max(np.sum(self.H * x, axis=1) - self.h))

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

        Raises:
            repro.utils.lp.LPError: If the polytope is empty or unbounded
                in any of the directions.
        """
        D = np.atleast_2d(np.asarray(directions, dtype=float))
        if D.shape[1] != self.dim:
            raise ValueError(
                f"directions have dimension {D.shape[1]}, polytope has {self.dim}"
            )
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
        (:meth:`support_batch`); if the stack fails (e.g. ``other``
        unbounded in some direction) the per-facet loop decides, keeping
        the early-exit semantics.  An empty ``other`` is a subset of
        anything.
        """
        if other.is_empty():
            return True
        try:
            supports = other.support_batch(self.H)
        except LPError:
            for a, b in zip(self.H, self.h):
                if other.support(a) > b + tol:
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
        remaining constraints (with the row itself relaxed) cannot exceed
        its offset.  Near-duplicate rows are collapsed first
        (:func:`_dedupe_rows`); then the rows are checked in order, each
        against the rows still kept (the *serial loop*), so an earlier
        removal widens every later check.

        One stacked screen LP settles most rows first.  Block ``i`` of the
        screen maximises ``H_i x`` over *every* row, with row ``i`` relaxed
        to ``h_i + 1e3`` (finite, so no block is unbounded).  That region
        lies inside every region the serial check of row ``i`` can use (a
        subset of the other rows, row ``i`` dropped), so the screen maximum
        is a lower bound on the serial one.  A row whose screen maximum
        exceeds ``h_i + tol + 1e-6·(1 + |h_i|)`` is therefore essential and
        the serial loop would keep it too; the relative margin absorbs both
        solvers' own error.  Every other row — flagged, near the margin,
        or all of them when the stacked LP fails (an empty set) — goes
        through the unchanged serial loop, in the same order and with the
        same running mask, so the result is exactly the serial loop's.
        Each LP counts one ``geometry_redundancy_lps_total{phase}``
        (``screen`` / ``recheck``).
        """
        H, h = _dedupe_rows(self.H, self.h)
        essential = _screen_essential(H, h, tol)
        reg = _telemetry()
        keep = np.ones(len(h), dtype=bool)
        for i in np.flatnonzero(~essential):
            mask = keep.copy()
            mask[i] = False
            if not np.any(mask):
                continue
            reg.inc(REDUNDANCY_LPS_METRIC, phase="recheck")
            try:
                value = maximize(H[i], H[mask], h[mask]).value
            except LPError:
                # Unbounded without this row: the row is essential.
                continue
            if value <= h[i] + tol:
                keep[i] = False
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
    single multiply + pairwise-reduce pass answers every membership
    question per batch — the lockstep engine's per-step classification
    drops from two numpy passes to one.

    Bitwise contract: :meth:`contains_each` returns exactly the boolean
    arrays the individual ``contains_batch`` calls would.  Each product
    row is reduced over the state dimension independently of how many
    constraint rows share the stack (the reduction is along the last
    axis), and the per-polytope offsets are pre-shifted by the same
    ``h + tol`` the scalar test adds — so stacking changes no float
    anywhere.  The batch engines' record-for-record determinism contract
    rests on that.

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
        satisfied = np.sum(self._H * X[:, None, :], axis=2) <= self._limits
        return tuple(
            part.all(axis=1) for part in np.split(satisfied, self._splits, axis=1)
        )


def _normalize_rows(H: np.ndarray, h: np.ndarray) -> tuple:
    """Unit-normalise constraint rows, dropping trivially true zero rows."""
    norms = np.linalg.norm(H, axis=1)
    zero = norms < 1e-14
    if np.any(zero):
        bad = zero & (h < -1e-12)
        if np.any(bad):
            raise EmptySetError(
                "constraint 0.x <= h with h < 0 (empty by construction)"
            )
        H = H[~zero]
        h = h[~zero]
        norms = norms[~zero]
    if H.shape[0] == 0:
        raise ValueError("polytope needs at least one non-trivial constraint")
    return H / norms[:, None], h / norms


def _screen_essential(H: np.ndarray, h: np.ndarray, tol: float) -> np.ndarray:
    """Rows the serial redundancy loop is sure to keep, from one stacked
    LP (see :meth:`HPolytope.remove_redundancies` for why this is exact).

    Returns all-False — every row left to the serial loop — for two rows
    or fewer and when the stacked LP fails.
    """
    m = len(h)
    if m <= 2:
        return np.zeros(m, dtype=bool)
    rhs = np.tile(h, (m, 1))
    rhs[np.diag_indices(m)] += _SCREEN_RELAXATION
    _telemetry().inc(REDUNDANCY_LPS_METRIC, phase="screen")
    try:
        values = maximize_batch(H, H, rhs)
    except LPError:
        return np.zeros(m, dtype=bool)
    return values > h + tol + _SCREEN_MARGIN * (1.0 + np.abs(h))


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
