"""Property tests: batch membership primitives agree with scalar ones.

Seeded-loop idiom (one deterministic generator per seed, many random
polytope/point-cloud draws) — the batch runner's correctness reduces to
``contains_batch``/``violation_batch`` being pointwise identical to the
scalar ``contains``/``violation``, including at the tolerance boundary.
"""

import numpy as np
import pytest

from repro.geometry import HPolytope
from repro.geometry.hpolytope import DEFAULT_TOL


def random_polytope(rng: np.random.Generator, dim: int) -> HPolytope:
    """A random bounded polytope: box, scaled/translated box, or hull."""
    kind = rng.integers(3)
    if kind == 0:
        half = rng.uniform(0.1, 3.0, size=dim)
        return HPolytope.from_box(-half, half)
    if kind == 1:
        center = rng.uniform(-2.0, 2.0, size=dim)
        half = rng.uniform(0.1, 2.0, size=dim)
        return HPolytope.from_box(center - half, center + half)
    points = rng.uniform(-3.0, 3.0, size=(dim * 4 + 4, dim))
    try:
        return HPolytope.from_vertices(points)
    except ValueError:  # degenerate draw — fall back to its bounding box
        return HPolytope.from_box(points.min(axis=0), points.max(axis=0))


class TestBatchAgreesWithScalar:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_contains_batch_pointwise(self, dim):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            poly = random_polytope(rng, dim)
            cloud = rng.uniform(-4.0, 4.0, size=(60, dim))
            batch = poly.contains_batch(cloud)
            assert batch.shape == (60,)
            assert batch.dtype == bool
            for point, flag in zip(cloud, batch):
                assert flag == poly.contains(point)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_violation_batch_pointwise(self, dim):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            poly = random_polytope(rng, dim)
            cloud = rng.uniform(-4.0, 4.0, size=(60, dim))
            batch = poly.violation_batch(cloud)
            assert batch.shape == (60,)
            for point, value in zip(cloud, batch):
                assert value == pytest.approx(poly.violation(point), abs=1e-12)

    def test_violation_sign_consistent_with_membership(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            poly = random_polytope(rng, 2)
            cloud = rng.uniform(-4.0, 4.0, size=(80, 2))
            inside = poly.contains_batch(cloud)
            violation = poly.violation_batch(cloud)
            # membership at tol ⟺ violation <= tol, on both sides.
            np.testing.assert_array_equal(inside, violation <= DEFAULT_TOL)


class TestBoundaryAndTolerance:
    def test_points_exactly_on_facets(self, unit_box):
        boundary = np.array(
            [[1.0, 0.0], [-1.0, 0.5], [0.3, 1.0], [1.0, 1.0], [-1.0, -1.0]]
        )
        assert unit_box.contains_batch(boundary).all()
        np.testing.assert_allclose(
            unit_box.violation_batch(boundary), 0.0, atol=1e-15
        )

    def test_tolerance_window(self, unit_box):
        eps = 1e-9  # inside DEFAULT_TOL
        barely_out = np.array([[1.0 + eps, 0.0], [0.0, -1.0 - eps]])
        clearly_out = barely_out * 2.0
        assert unit_box.contains_batch(barely_out).all()
        assert not unit_box.contains_batch(barely_out, tol=0.0).any()
        assert not unit_box.contains_batch(clearly_out).any()
        for point, flag in zip(barely_out, unit_box.contains_batch(barely_out, tol=0.0)):
            assert flag == unit_box.contains(point, tol=0.0)

    def test_custom_tol_matches_scalar(self, triangle):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cloud = rng.uniform(-1.0, 3.0, size=(40, 2))
            for tol in (0.0, 1e-6, 0.1):
                batch = triangle.contains_batch(cloud, tol=tol)
                for point, flag in zip(cloud, batch):
                    assert flag == triangle.contains(point, tol=tol)

    def test_single_point_and_vector_input(self, unit_box):
        # A bare (n,) vector is promoted to one row.
        assert unit_box.contains_batch(np.array([0.5, 0.5])).shape == (1,)
        assert unit_box.violation_batch([0.5, 0.5]).shape == (1,)
        assert unit_box.violation_batch([2.0, 0.0])[0] == pytest.approx(1.0)

    def test_dimension_mismatch_raises(self, unit_box):
        with pytest.raises(ValueError, match="dimension"):
            unit_box.contains_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="dimension"):
            unit_box.violation_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            unit_box.contains_batch(np.zeros((2, 2, 2)))

    def test_empty_cloud(self, unit_box):
        assert unit_box.contains_batch(np.empty((0, 2))).shape == (0,)
        assert unit_box.violation_batch(np.empty((0, 2))).shape == (0,)
