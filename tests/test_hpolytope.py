"""Unit tests for the H-polytope kernel."""

import numpy as np
import pytest

from repro.geometry import HPolytope
from repro.geometry.hpolytope import EmptySetError
from repro.utils.lp import LPError


class TestConstruction:
    def test_from_box_basic(self):
        box = HPolytope.from_box([-1, -2], [3, 4])
        assert box.dim == 2
        assert box.contains([0, 0])
        assert box.contains([3, 4])
        assert not box.contains([3.1, 0])

    def test_from_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower > upper"):
            HPolytope.from_box([1.0], [0.0])

    def test_from_bounds(self):
        poly = HPolytope.from_bounds([(-1, 1), (0, 2)])
        assert poly.contains([0.0, 1.0])
        assert not poly.contains([0.0, -0.1])

    def test_from_vertices_square(self):
        poly = HPolytope.from_vertices([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert poly.contains([0.5, 0.5])
        assert not poly.contains([1.5, 0.5])

    def test_from_vertices_includes_interior_points(self):
        poly = HPolytope.from_vertices([[0, 0], [2, 0], [0, 2], [0.5, 0.5]])
        # Interior point must not change the hull.
        assert poly.contains([1.0, 0.9])
        assert not poly.contains([1.5, 1.5])

    def test_from_vertices_1d(self):
        poly = HPolytope.from_vertices([[1.0], [3.0], [2.0]])
        lo, hi = poly.bounding_box()
        assert lo[0] == pytest.approx(1.0)
        assert hi[0] == pytest.approx(3.0)

    def test_from_vertices_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            HPolytope.from_vertices([[0, 0], [1, 1], [2, 2]])

    def test_singleton(self):
        point = HPolytope.singleton([1.0, -2.0])
        assert point.contains([1.0, -2.0])
        assert not point.contains([1.0, -1.9])

    def test_rows_normalized(self):
        poly = HPolytope([[2.0, 0.0]], [4.0])
        np.testing.assert_allclose(np.linalg.norm(poly.H, axis=1), 1.0)
        assert poly.h[0] == pytest.approx(2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="rows"):
            HPolytope([[1.0, 0.0]], [1.0, 2.0])

    def test_trivial_zero_row_dropped(self):
        poly = HPolytope([[0.0, 0.0], [1.0, 0.0]], [5.0, 1.0])
        assert poly.num_constraints == 1

    def test_contradictory_zero_row_raises(self):
        with pytest.raises(ValueError, match="empty by construction"):
            HPolytope([[0.0, 0.0]], [-1.0])


class TestQueries:
    def test_contains_points_vectorised(self, unit_box):
        points = np.array([[0, 0], [2, 0], [0.9, -0.9], [-1.01, 0]])
        result = unit_box.contains_batch(points)
        assert list(result) == [True, False, True, False]

    def test_violation_sign(self, unit_box):
        assert unit_box.violation([0, 0]) < 0
        assert unit_box.violation([2, 0]) == pytest.approx(1.0)

    def test_contains_dimension_mismatch(self, unit_box):
        with pytest.raises(ValueError, match="dimension"):
            unit_box.contains([0.0, 0.0, 0.0])

    def test_is_empty_false(self, unit_box):
        assert not unit_box.is_empty()

    def test_is_empty_true(self):
        empty = HPolytope([[1.0], [-1.0]], [-1.0, -1.0])
        assert empty.is_empty()

    def test_is_bounded(self, unit_box):
        assert unit_box.is_bounded()

    def test_is_unbounded_halfplane(self):
        halfplane = HPolytope([[1.0, 0.0]], [1.0])
        assert not halfplane.is_bounded()

    def test_support_box(self, unit_box):
        assert unit_box.support([1.0, 0.0]) == pytest.approx(1.0)
        assert unit_box.support([1.0, 1.0]) == pytest.approx(2.0 / np.sqrt(2) * np.sqrt(2))

    def test_support_point_is_attained(self, triangle):
        direction = np.array([1.0, 0.3])
        point = triangle.support_point(direction)
        assert triangle.contains(point)
        assert direction @ point == pytest.approx(triangle.support(direction))

    def test_support_empty_raises(self):
        empty = HPolytope([[1.0], [-1.0]], [-1.0, -1.0])
        with pytest.raises(LPError):
            empty.support([1.0])

    def test_chebyshev_center_box(self, unit_box):
        center, radius = unit_box.chebyshev_center()
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-9)
        assert radius == pytest.approx(1.0)

    def test_chebyshev_radius_negative_for_empty(self):
        # Mildly infeasible set: x <= -1 and x >= 1 in 1-D.
        empty = HPolytope([[1.0], [-1.0]], [-1.0, -1.0])
        _center, radius = empty.chebyshev_center()
        assert radius < 0

    def test_interior_point_inside(self, triangle):
        assert triangle.contains(triangle.interior_point())

    def test_contains_polytope(self, unit_box, small_box):
        assert unit_box.contains_polytope(small_box)
        assert not small_box.contains_polytope(unit_box)

    def test_contains_polytope_itself(self, triangle):
        assert triangle.contains_polytope(triangle)

    def test_equals(self, unit_box):
        clone = HPolytope.from_box([-1, -1], [1, 1])
        assert unit_box.equals(clone)
        assert not unit_box.equals(HPolytope.from_box([-1, -1], [1, 1.1]))


class TestOperations:
    def test_intersect(self, unit_box):
        shifted = unit_box.translate([0.5, 0.0])
        inter = unit_box.intersect(shifted)
        lo, hi = inter.bounding_box()
        np.testing.assert_allclose(lo, [-0.5, -1.0])
        np.testing.assert_allclose(hi, [1.0, 1.0])

    def test_intersect_dim_mismatch(self, unit_box):
        with pytest.raises(ValueError, match="dimension"):
            unit_box.intersect(HPolytope.from_box([-1], [1]))

    def test_translate(self, unit_box):
        moved = unit_box.translate([2.0, 3.0])
        assert moved.contains([2.0, 3.0])
        assert moved.contains([3.0, 4.0])
        assert not moved.contains([0.0, 0.0])

    def test_scale(self, unit_box):
        double = unit_box.scale(2.0)
        assert double.contains([2.0, 2.0])
        assert not double.contains([2.1, 0.0])

    def test_scale_rejects_nonpositive(self, unit_box):
        with pytest.raises(ValueError, match="positive"):
            unit_box.scale(0.0)

    def test_pontryagin_difference_box(self, unit_box, small_box):
        diff = unit_box.pontryagin_difference(small_box)
        lo, hi = diff.bounding_box()
        np.testing.assert_allclose(lo, [-0.5, -0.5])
        np.testing.assert_allclose(hi, [0.5, 0.5])

    def test_pontryagin_difference_definition(self, unit_box, small_box, rng):
        diff = unit_box.pontryagin_difference(small_box)
        for x in diff.sample(rng, 20):
            for w in small_box.vertices():
                assert unit_box.contains(x + w, tol=1e-6)

    def test_minkowski_sum_boxes(self, unit_box, small_box):
        total = unit_box.minkowski_sum(small_box)
        lo, hi = total.bounding_box()
        np.testing.assert_allclose(lo, [-1.5, -1.5])
        np.testing.assert_allclose(hi, [1.5, 1.5])

    def test_minkowski_sum_then_difference_recovers_box(self, unit_box, small_box):
        # For boxes (zonotopes), (P ⊕ Q) ⊖ Q = P exactly.
        result = unit_box.minkowski_sum(small_box).pontryagin_difference(small_box)
        assert result.equals(unit_box, tol=1e-6)

    def test_minkowski_sum_triangle(self, triangle, small_box):
        total = triangle.minkowski_sum(small_box)
        # Vertex sums must be inside.
        for v in triangle.vertices():
            for w in small_box.vertices():
                assert total.contains(v + w, tol=1e-7)

    def test_minkowski_sum_degenerate_flat(self):
        flat = HPolytope.from_box([-1.0, 0.0], [1.0, 0.0])
        other = HPolytope.from_box([-1.0, 0.0], [1.0, 0.0])
        total = flat.minkowski_sum(other)
        lo, hi = total.bounding_box()
        np.testing.assert_allclose(lo, [-2.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(hi, [2.0, 0.0], atol=1e-9)

    def test_linear_preimage_scaling(self, unit_box):
        A = np.diag([2.0, 0.5])
        pre = unit_box.linear_preimage(A)
        lo, hi = pre.bounding_box()
        np.testing.assert_allclose(lo, [-0.5, -2.0])
        np.testing.assert_allclose(hi, [0.5, 2.0])

    def test_linear_preimage_with_offset(self, unit_box):
        pre = unit_box.linear_preimage(np.eye(2), offset=[0.5, 0.0])
        assert pre.contains([0.5, 0.0])
        assert not pre.contains([0.6, 0.0])

    def test_linear_preimage_singular_map(self, unit_box):
        # A x projects onto the first axis: preimage is a slab.
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        pre = unit_box.linear_preimage(A)
        assert pre.contains([0.5, 100.0])
        assert not pre.contains([1.5, 0.0])

    def test_linear_image_invertible(self, unit_box):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        image = unit_box.linear_image(A)
        for v in unit_box.vertices():
            assert image.contains(A @ v, tol=1e-7)
        # Area is preserved for a shear.
        assert image.volume() == pytest.approx(unit_box.volume(), rel=1e-6)

    def test_linear_image_to_1d(self, unit_box):
        image = unit_box.linear_image(np.array([[1.0, 1.0]]))
        lo, hi = image.bounding_box()
        assert lo[0] == pytest.approx(-2.0)
        assert hi[0] == pytest.approx(2.0)

    def test_remove_redundancies(self):
        # The third constraint x <= 2 is implied by x <= 1.
        poly = HPolytope([[1.0, 0], [-1, 0], [1, 0], [0, 1], [0, -1]], [1, 1, 2, 1, 1])
        pruned = poly.remove_redundancies()
        assert pruned.num_constraints == 4
        assert pruned.equals(HPolytope.from_box([-1, -1], [1, 1]))

    def test_bounding_box_triangle(self, triangle):
        lo, hi = triangle.bounding_box()
        np.testing.assert_allclose(lo, [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(hi, [2.0, 2.0], atol=1e-9)


def reference_sample(poly, rng, count=1, max_tries=10000):
    """``HPolytope.sample`` as it was before it tested the first
    ``count - filled`` candidates of a draw on their own."""
    lower, upper = poly.bounding_box()
    upper = np.where(upper > lower, upper, lower)
    out = np.empty((count, poly.dim))
    filled = 0
    tries = 0
    while filled < count and tries < max_tries:
        batch = rng.uniform(lower, upper, size=(count * 4, poly.dim))
        inside = poly.contains_batch(batch)
        good = batch[inside]
        take = min(len(good), count - filled)
        out[filled : filled + take] = good[:take]
        filled += take
        tries += 1
    if filled < count:
        center, _ = poly.chebyshev_center()
        while filled < count:
            point = rng.uniform(lower, upper)
            lam = 1.0
            for _ in range(60):
                candidate = center + lam * (point - center)
                if poly.contains(candidate):
                    out[filled] = candidate
                    break
                lam *= 0.5
            else:
                out[filled] = center
            filled += 1
    return out


def _thin_rotated():
    """A 2 x 0.1 rectangle turned by 30 degrees: most of its bounding
    box is outside, so draws reject candidates and refill."""
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    axes = np.array([[c, s], [-s, c]])
    return HPolytope(np.vstack([axes, -axes]), [1.0, 0.05, 1.0, 0.05])


SAMPLE_SHAPES = {
    "box": lambda: HPolytope.from_box([-1.0, -2.0], [1.0, 0.5]),
    "thin_rotated": _thin_rotated,
    # lane_keeping's disturbance set W: two of four axes have zero width.
    "zero_width": lambda: HPolytope.from_box(
        [0.0, -0.01, 0.0, -0.005], [0.0, 0.01, 0.0, 0.005]
    ),
}


class TestVerticesAndSampling:
    def test_vertices_box(self, unit_box):
        verts = unit_box.vertices()
        assert verts.shape == (4, 2)
        expected = {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        got = {tuple(np.round(v, 6)) for v in verts}
        assert got == expected

    def test_vertices_empty_raises(self):
        empty = HPolytope([[1.0], [-1.0]], [-1.0, -1.0])
        with pytest.raises(EmptySetError):
            empty.vertices()

    def test_vertices_cached(self, unit_box):
        first = unit_box.vertices()
        second = unit_box.vertices()
        assert first is second

    def test_sample_inside(self, unit_box, rng):
        samples = unit_box.sample(rng, 200)
        assert samples.shape == (200, 2)
        assert unit_box.contains_batch(samples).all()

    def test_sample_thin_set(self, rng):
        thin = HPolytope.from_box([-1.0, -1e-12], [1.0, 1e-12])
        samples = thin.sample(rng, 5)
        assert thin.contains_batch(samples, tol=1e-9).all()

    @pytest.mark.parametrize("count", [1, 200])
    @pytest.mark.parametrize("shape", ["box", "thin_rotated", "zero_width"])
    def test_sample_matches_reference_loop(self, shape, count):
        """Output bytes and generator state equal the full-check loop's."""
        poly = SAMPLE_SHAPES[shape]()
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        got = poly.sample(ours, count)
        want = reference_sample(poly, theirs, count)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_volume_box(self, unit_box):
        assert unit_box.volume() == pytest.approx(4.0)

    def test_volume_triangle(self, triangle):
        assert triangle.volume() == pytest.approx(2.0)


class TestDunders:
    def test_contains_dunder(self, unit_box):
        assert [0.0, 0.0] in unit_box

    def test_and_dunder(self, unit_box, small_box):
        assert (unit_box & small_box).equals(small_box)

    def test_add_polytope(self, unit_box, small_box):
        assert (unit_box + small_box).equals(unit_box.minkowski_sum(small_box))

    def test_add_vector_translates(self, unit_box):
        assert (unit_box + np.array([1.0, 0.0])).contains([2.0, 0.0])

    def test_sub_polytope(self, unit_box, small_box):
        assert (unit_box - small_box).equals(
            unit_box.pontryagin_difference(small_box)
        )

    def test_mul_scales(self, unit_box):
        assert (2.0 * unit_box).contains([2.0, 2.0])

    def test_repr(self, unit_box):
        assert "HPolytope" in repr(unit_box)
