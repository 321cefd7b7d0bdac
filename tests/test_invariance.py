"""Tests for invariant sets, predecessors and backward reachability.

These are the safety-critical computations behind the paper's Theorem 1,
so every set is checked both structurally (subset relations) and
behaviourally (Monte-Carlo simulation certificates).
"""

import numpy as np
import pytest

from repro.controllers import lqr_gain
from repro.geometry import HPolytope
from repro.invariance import (
    backward_reachable_zero,
    is_rci,
    is_rpi,
    k_step_strengthened_sets,
    maximal_rci,
    maximal_rpi,
    pre_autonomous,
    pre_controllable,
    pre_fixed_input,
    strengthened_safe_set,
)


@pytest.fixture
def closed_loop(double_integrator):
    K = lqr_gain(double_integrator.A, double_integrator.B, np.eye(2), np.eye(1))
    return K, double_integrator.closed_loop_matrix(K)


class TestPreOperators:
    def test_pre_autonomous_soundness(self, double_integrator, closed_loop, rng):
        _K, M = closed_loop
        target = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        pre = pre_autonomous(M, target, double_integrator.disturbance_set)
        w_vertices = double_integrator.disturbance_set.vertices()
        for x in pre.sample(rng, 15):
            for w in w_vertices:
                assert target.contains(M @ x + w, tol=1e-6)

    def test_pre_fixed_input_soundness(self, double_integrator, rng):
        target = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        u0 = np.array([0.5])
        pre = pre_fixed_input(
            double_integrator.A, double_integrator.B, u0, target,
            double_integrator.disturbance_set,
        )
        w_vertices = double_integrator.disturbance_set.vertices()
        for x in pre.sample(rng, 15):
            for w in w_vertices:
                nxt = double_integrator.step(x, u0, w)
                assert target.contains(nxt, tol=1e-6)

    def test_pre_controllable_contains_pre_autonomous(
        self, double_integrator, closed_loop
    ):
        # Existential input can always mimic the feedback law (when the
        # feedback is admissible), so Pre_∃ ⊇ Pre_K restricted to states
        # with K x ∈ U; on a small target both are comparable.
        K, M = closed_loop
        target = HPolytope.from_box([-0.5, -0.5], [0.5, 0.5])
        pre_k = pre_autonomous(M, target, double_integrator.disturbance_set)
        pre_any = pre_controllable(
            double_integrator.A, double_integrator.B,
            double_integrator.input_set, target,
            double_integrator.disturbance_set,
        )
        admissible = pre_k.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        assert pre_any.contains_polytope(admissible, tol=1e-6)

    def test_pre_controllable_soundness(self, double_integrator, rng):
        target = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        pre = pre_controllable(
            double_integrator.A, double_integrator.B,
            double_integrator.input_set, target,
            double_integrator.disturbance_set,
        )
        # For each sampled x there must exist an input mapping it into
        # target ⊖ W; verify via LP feasibility through the polytope API.
        eroded = target.pontryagin_difference(double_integrator.disturbance_set)
        for x in pre.sample(rng, 15):
            candidates = eroded.linear_preimage(
                double_integrator.B, offset=double_integrator.A @ x
            ).intersect(double_integrator.input_set)
            assert not candidates.is_empty()


class TestMaximalInvariantSets:
    def test_maximal_rpi_invariant_and_inside(self, double_integrator, closed_loop):
        K, M = closed_loop
        seed = double_integrator.safe_set.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        result = maximal_rpi(M, seed, double_integrator.disturbance_set)
        assert result.converged
        assert is_rpi(M, result.invariant_set, double_integrator.disturbance_set)
        assert seed.contains_polytope(result.invariant_set, tol=1e-6)

    def test_maximal_rpi_simulation_certificate(
        self, double_integrator, closed_loop, rng
    ):
        K, M = closed_loop
        seed = double_integrator.safe_set.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        xi = maximal_rpi(M, seed, double_integrator.disturbance_set).invariant_set
        lo, hi = double_integrator.disturbance_set.bounding_box()
        for x0 in xi.sample(rng, 5):
            x = x0
            for _ in range(60):
                x = M @ x + rng.uniform(lo, hi)
                assert xi.contains(x, tol=1e-6)

    def test_maximal_rci_contains_maximal_rpi(self, double_integrator, closed_loop):
        K, M = closed_loop
        seed = double_integrator.safe_set.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        rpi = maximal_rpi(M, seed, double_integrator.disturbance_set).invariant_set
        rci = maximal_rci(
            double_integrator.A, double_integrator.B,
            double_integrator.safe_set, double_integrator.input_set,
            double_integrator.disturbance_set,
        ).invariant_set
        assert rci.contains_polytope(rpi, tol=1e-6)

    def test_maximal_rci_certified(self, double_integrator):
        rci = maximal_rci(
            double_integrator.A, double_integrator.B,
            double_integrator.safe_set, double_integrator.input_set,
            double_integrator.disturbance_set,
        ).invariant_set
        assert is_rci(
            double_integrator.A, double_integrator.B, rci,
            double_integrator.input_set, double_integrator.disturbance_set,
        )

    def test_no_invariant_subset_raises(self, double_integrator):
        # A set far from the origin cannot be invariant for a stable loop.
        offset_box = HPolytope.from_box([4.0, 1.0], [5.0, 2.0])
        K = lqr_gain(double_integrator.A, double_integrator.B, np.eye(2), np.eye(1))
        M = double_integrator.closed_loop_matrix(K)
        with pytest.raises(ValueError):
            maximal_rpi(M, offset_box, double_integrator.disturbance_set)


class TestBackwardReachAndStrengthened:
    def test_backward_zero_equals_paper_formula(self, double_integrator):
        """B(Y, 0) must equal A^{-1}(Y ⊖ W) when A is invertible."""
        target = HPolytope.from_box([-2.0, -1.0], [2.0, 1.0])
        ours = backward_reachable_zero(double_integrator, target)
        eroded = target.pontryagin_difference(double_integrator.disturbance_set)
        paper = eroded.linear_image(np.linalg.inv(double_integrator.A))
        assert ours.equals(paper, tol=1e-6)

    def test_backward_zero_with_skip_input(self, double_integrator, rng):
        target = HPolytope.from_box([-2.0, -1.0], [2.0, 1.0])
        skip = np.array([0.3])
        region = backward_reachable_zero(double_integrator, target, skip_input=skip)
        w_vertices = double_integrator.disturbance_set.vertices()
        for x in region.sample(rng, 10):
            for w in w_vertices:
                assert target.contains(double_integrator.step(x, skip, w), tol=1e-6)

    def test_strengthened_subset_of_invariant(self, double_integrator, closed_loop):
        K, M = closed_loop
        seed = double_integrator.safe_set.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        xi = maximal_rpi(M, seed, double_integrator.disturbance_set).invariant_set
        xp = strengthened_safe_set(double_integrator, xi)
        assert xi.contains_polytope(xp, tol=1e-7)

    def test_strengthened_one_skip_stays_in_xi(
        self, double_integrator, closed_loop, rng
    ):
        """Definition 3's guarantee: any state of X' lands in XI after a
        zero-input step, for every disturbance vertex."""
        K, M = closed_loop
        seed = double_integrator.safe_set.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        xi = maximal_rpi(M, seed, double_integrator.disturbance_set).invariant_set
        xp = strengthened_safe_set(double_integrator, xi)
        zero = np.zeros(1)
        w_vertices = double_integrator.disturbance_set.vertices()
        for x in xp.sample(rng, 20):
            for w in w_vertices:
                assert xi.contains(double_integrator.step(x, zero, w), tol=1e-6)

    def test_k_step_sets_nested(self, double_integrator, closed_loop):
        K, M = closed_loop
        seed = double_integrator.safe_set.intersect(
            double_integrator.input_set.linear_preimage(K)
        )
        xi = maximal_rpi(M, seed, double_integrator.disturbance_set).invariant_set
        sets = k_step_strengthened_sets(double_integrator, xi, depth=3)
        assert len(sets) == 3
        for outer, inner in zip(sets, sets[1:]):
            assert outer.contains_polytope(inner, tol=1e-7)

    def test_k_step_depth_validation(self, double_integrator, closed_loop):
        K, M = closed_loop
        xi = HPolytope.from_box([-1, -1], [1, 1])
        with pytest.raises(ValueError):
            k_step_strengthened_sets(double_integrator, xi, depth=0)
