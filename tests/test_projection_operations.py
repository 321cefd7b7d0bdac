"""Tests for Fourier–Motzkin projection and the module-level operations."""

import numpy as np
import pytest

from repro.geometry import (
    EmptySetError,
    HPolytope,
    affine_preimage,
    box_hull,
    eliminate_variable,
    intersection,
    iterated_sum,
    matrix_power_sum,
    minkowski_sum,
    pontryagin_difference,
    project_onto,
    support_vector,
)


class TestEliminateVariable:
    def test_simple_slab(self):
        # |x + u| <= 1, |u| <= 0.3  ->  x in [-1.3, 1.3].
        H = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([1.0, 1.0, 0.3, 0.3])
        H2, h2 = eliminate_variable(H, h, 1)
        poly = HPolytope(H2, h2)
        lo, hi = poly.bounding_box()
        assert lo[0] == pytest.approx(-1.3)
        assert hi[0] == pytest.approx(1.3)

    def test_no_coupling_keeps_rows(self):
        # u-free rows survive verbatim.
        H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([2.0, 2.0, 1.0, 1.0])
        H2, h2 = eliminate_variable(H, h, 1)
        poly = HPolytope(H2, h2)
        lo, hi = poly.bounding_box()
        assert lo[0] == pytest.approx(-2.0)
        assert hi[0] == pytest.approx(2.0)


class TestProjectOnto:
    def test_projection_of_rotated_box(self):
        # Box rotated 45 degrees projected to x: [-sqrt2, sqrt2].
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        R = np.array([[c, -s], [s, c]])
        rotated = HPolytope.from_box([-1, -1], [1, 1]).linear_image(R)
        proj = project_onto(rotated, 1)
        lo, hi = proj.bounding_box()
        assert lo[0] == pytest.approx(-np.sqrt(2), abs=1e-6)
        assert hi[0] == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_projection_matches_vertex_projection(self, rng):
        # Random 3-D polytope: FM projection == hull of projected vertices.
        points = rng.uniform(-1, 1, size=(12, 3))
        poly = HPolytope.from_vertices(points)
        proj = project_onto(poly, 2)
        expected = HPolytope.from_vertices(poly.vertices()[:, :2])
        assert proj.equals(expected, tol=1e-6)

    def test_projection_membership_soundness(self, rng):
        points = rng.uniform(-1, 1, size=(10, 3))
        poly = HPolytope.from_vertices(points)
        proj = project_onto(poly, 2)
        # Every point of the polytope projects into the projection.
        for x in poly.sample(rng, 30):
            assert proj.contains(x[:2], tol=1e-6)

    def test_keep_out_of_range(self, unit_box):
        with pytest.raises(ValueError, match="keep"):
            project_onto(unit_box, 2)

    def test_only_trivial_rows_project_to_the_huge_box(self):
        # A slab unbounded in x: eliminating y leaves only 0·x <= 2,
        # so the projection is all of R (the documented huge box).
        slab = HPolytope([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0])
        lo, hi = project_onto(slab, 1).bounding_box()
        assert lo[0] == -1e12
        assert hi[0] == 1e12

    def test_trivially_false_row_is_empty(self):
        # y <= 1 and y >= 2: eliminating y leaves 0·x <= -1.
        empty = HPolytope([[0.0, 1.0], [0.0, -1.0]], [1.0, -2.0])
        with pytest.raises(EmptySetError, match="0.x <= h"):
            project_onto(empty, 1)


class TestModuleOperations:
    def test_minkowski_sum_variadic(self, unit_box, small_box):
        total = minkowski_sum(unit_box, small_box, small_box)
        lo, hi = total.bounding_box()
        np.testing.assert_allclose(hi, [2.0, 2.0])
        np.testing.assert_allclose(lo, [-2.0, -2.0])

    def test_minkowski_sum_empty_args(self):
        with pytest.raises(ValueError):
            minkowski_sum()

    def test_pontryagin_difference_function(self, unit_box, small_box):
        assert pontryagin_difference(unit_box, small_box).equals(
            unit_box.pontryagin_difference(small_box)
        )

    def test_intersection_variadic(self, unit_box):
        a = unit_box.translate([0.5, 0.0])
        b = unit_box.translate([0.0, 0.5])
        result = intersection(unit_box, a, b)
        assert result.contains([0.0, 0.0])
        assert not result.contains([-0.8, -0.8])

    def test_affine_preimage_function(self, unit_box):
        pre = affine_preimage(unit_box, np.diag([2.0, 2.0]))
        lo, hi = pre.bounding_box()
        np.testing.assert_allclose(hi, [0.5, 0.5])

    def test_iterated_sum_matches_fold(self, small_box):
        terms = [small_box] * 5
        tree = iterated_sum(terms)
        lo, hi = tree.bounding_box()
        np.testing.assert_allclose(hi, [2.5, 2.5])

    def test_iterated_sum_single(self, unit_box):
        assert iterated_sum([unit_box]).equals(unit_box)

    def test_matrix_power_sum_identity(self, small_box):
        # With M = I: W ⊕ W ⊕ W = 3W.
        total = matrix_power_sum(np.eye(2), small_box, 3)
        assert total.equals(small_box.scale(3.0), tol=1e-7)

    def test_matrix_power_sum_contraction(self, small_box):
        # With M = 0.5 I: W ⊕ 0.5W ⊕ 0.25W = 1.75 W.
        total = matrix_power_sum(0.5 * np.eye(2), small_box, 3)
        assert total.equals(small_box.scale(1.75), tol=1e-6)

    def test_matrix_power_sum_count_validation(self, small_box):
        with pytest.raises(ValueError):
            matrix_power_sum(np.eye(2), small_box, 0)

    def test_box_hull(self, triangle):
        hull = box_hull(triangle)
        assert hull.equals(HPolytope.from_box([0, 0], [2, 2]), tol=1e-7)

    def test_support_vector(self, unit_box):
        values = support_vector(unit_box, np.eye(2))
        np.testing.assert_allclose(values, [1.0, 1.0])
