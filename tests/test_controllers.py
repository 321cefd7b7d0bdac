"""Tests for linear feedback / LQR, constraint tightening and the RMPC."""

import numpy as np
import pytest

from repro.controllers import (
    ConstantController,
    LinearFeedback,
    RMPCInfeasibleError,
    RobustMPC,
    build_terminal_set,
    lqr_gain,
    rmpc_feasible_set,
    rmpc_invariant_set,
    tightened_constraints,
)
from repro.geometry import HPolytope
from repro.invariance import is_rci, is_rpi


class TestLinearFeedback:
    def test_lqr_stabilizes(self, double_integrator):
        K = lqr_gain(double_integrator.A, double_integrator.B, np.eye(2), np.eye(1))
        M = double_integrator.closed_loop_matrix(K)
        assert np.max(np.abs(np.linalg.eigvals(M))) < 1.0

    def test_lqr_cheap_input_is_faster(self, double_integrator):
        A, B = double_integrator.A, double_integrator.B
        slow = lqr_gain(A, B, np.eye(2), 10.0 * np.eye(1))
        fast = lqr_gain(A, B, np.eye(2), 0.01 * np.eye(1))
        rho = lambda K: np.max(np.abs(np.linalg.eigvals(A + B @ K)))
        assert rho(fast) < rho(slow)

    def test_feedback_computes_kx(self):
        fb = LinearFeedback([[1.0, -2.0]])
        np.testing.assert_allclose(fb.compute([3.0, 1.0]), [1.0])

    def test_feedback_saturates(self):
        fb = LinearFeedback([[10.0, 0.0]], saturation=([-1.0], [1.0]))
        np.testing.assert_allclose(fb.compute([5.0, 0.0]), [1.0])
        np.testing.assert_allclose(fb.compute([-5.0, 0.0]), [-1.0])

    def test_feedback_saturation_shape_check(self):
        with pytest.raises(ValueError, match="saturation"):
            LinearFeedback([[1.0, 0.0]], saturation=([-1.0, -1.0], [1.0, 1.0]))

    def test_constant_controller(self):
        c = ConstantController([0.7])
        np.testing.assert_allclose(c.compute([123.0, 4.0]), [0.7])


class TestTightening:
    def test_sequence_is_nested(self, double_integrator):
        seq = tightened_constraints(
            double_integrator.safe_set,
            double_integrator.disturbance_set,
            5,
            propagation=double_integrator.A,
        )
        assert len(seq) == 6
        for outer, inner in zip(seq, seq[1:]):
            assert outer.contains_polytope(inner, tol=1e-7)

    def test_first_step_erodes_by_w(self, double_integrator):
        seq = tightened_constraints(
            double_integrator.safe_set,
            double_integrator.disturbance_set,
            1,
            propagation=double_integrator.A,
        )
        expected = double_integrator.safe_set.pontryagin_difference(
            double_integrator.disturbance_set
        )
        assert seq[1].equals(expected, tol=1e-7)

    def test_empty_tightening_raises(self, double_integrator):
        big_w = HPolytope.from_box([-6.0, -3.0], [6.0, 3.0])
        with pytest.raises(ValueError, match="empty"):
            tightened_constraints(
                double_integrator.safe_set, big_w, 1, propagation=double_integrator.A
            )


class TestTerminalSet:
    def test_terminal_is_rpi(self, double_integrator):
        K = lqr_gain(double_integrator.A, double_integrator.B, np.eye(2), np.eye(1))
        terminal = build_terminal_set(
            double_integrator, K, double_integrator.safe_set
        )
        M = double_integrator.closed_loop_matrix(K)
        assert is_rpi(M, terminal, double_integrator.disturbance_set, tol=1e-6)

    def test_terminal_respects_inputs(self, double_integrator):
        K = lqr_gain(double_integrator.A, double_integrator.B, np.eye(2), np.eye(1))
        terminal = build_terminal_set(
            double_integrator, K, double_integrator.safe_set
        )
        for v in terminal.vertices():
            assert double_integrator.input_set.contains(K @ v, tol=1e-6)


@pytest.fixture(scope="module")
def di_mpc():
    """RMPC on the double integrator (module-scoped: construction is slow)."""
    from tests.conftest import make_double_integrator

    system = make_double_integrator()
    return system, RobustMPC(system, horizon=6)


class TestRobustMPC:
    def test_solves_at_origin(self, di_mpc):
        _system, mpc = di_mpc
        u = mpc.compute([0.0, 0.0])
        np.testing.assert_allclose(u, [0.0], atol=1e-7)

    def test_plan_shapes(self, di_mpc):
        _system, mpc = di_mpc
        sol = mpc.solve([1.0, 0.0])
        assert sol.inputs.shape == (6, 1)
        assert sol.states.shape == (7, 2)
        assert sol.cost >= 0

    def test_plan_satisfies_nominal_dynamics(self, di_mpc):
        system, mpc = di_mpc
        sol = mpc.solve([1.0, 0.2])
        for k in range(mpc.horizon):
            predicted = system.step(sol.states[k], sol.inputs[k])
            np.testing.assert_allclose(predicted, sol.states[k + 1], atol=1e-6)

    def test_plan_respects_input_bounds(self, di_mpc):
        system, mpc = di_mpc
        sol = mpc.solve([3.0, 1.0])
        lo, hi = system.input_set.bounding_box()
        assert np.all(sol.inputs >= lo - 1e-7)
        assert np.all(sol.inputs <= hi + 1e-7)

    def test_terminal_constraint_enforced(self, di_mpc):
        _system, mpc = di_mpc
        sol = mpc.solve([2.0, 0.5])
        assert mpc.terminal_set.contains(sol.states[-1], tol=1e-6)

    def test_infeasible_far_state_raises(self, di_mpc):
        _system, mpc = di_mpc
        with pytest.raises(RMPCInfeasibleError):
            mpc.compute([4.9, 1.99])

    def test_is_feasible_probe(self, di_mpc):
        _system, mpc = di_mpc
        assert mpc.is_feasible([0.0, 0.0])
        assert not mpc.is_feasible([4.9, 1.99])

    def test_is_feasible_does_not_count_as_solve(self, di_mpc):
        """Regression: feasibility probes used to inflate solve_count,
        polluting the paper's computation-saving accounting."""
        _system, mpc = di_mpc
        mpc.reset()
        mpc.is_feasible([0.0, 0.0])
        mpc.is_feasible([4.9, 1.99])
        assert mpc.solve_count == 0

    def test_solve_count_and_reset(self, di_mpc):
        _system, mpc = di_mpc
        mpc.reset()
        mpc.compute([0.0, 0.0])
        mpc.compute([0.1, 0.0])
        assert mpc.solve_count == 2
        mpc.reset()
        assert mpc.solve_count == 0

    def test_solve_is_reentrant(self, di_mpc):
        """Regression: solve() used to write the initial state into the
        shared ``_b_eq`` buffer in place; the solve must leave the
        assembled LP data untouched (fork/parallel safety contract)."""
        _system, mpc = di_mpc
        before = mpc._b_eq.copy()
        mpc.solve([1.0, 0.2])
        mpc.solve([-0.5, 0.1])
        assert np.array_equal(mpc._b_eq, before)

    def test_constraint_matrices_are_sparse(self, di_mpc):
        import scipy.sparse as sp

        _system, mpc = di_mpc
        assert sp.issparse(mpc._A_ub)
        assert sp.issparse(mpc._A_eq)

    def test_state_dimension_check(self, di_mpc):
        _system, mpc = di_mpc
        with pytest.raises(ValueError, match="dimension"):
            mpc.compute([0.0, 0.0, 0.0])

    def test_horizon_validation(self, double_integrator):
        with pytest.raises(ValueError, match="horizon"):
            RobustMPC(double_integrator, horizon=0)

    def test_closed_loop_safety_monte_carlo(self, di_mpc, rng):
        """The central robustness claim: closed-loop RMPC keeps the state
        in the safe set under worst-case-bounded random disturbances."""
        system, mpc = di_mpc
        feasible = rmpc_feasible_set(mpc)
        x0s = feasible.sample(rng, 5)
        lo, up = system.disturbance_set.bounding_box()
        for x0 in x0s:
            W = rng.uniform(lo, up, size=(40, 2))
            result = system.simulate(x0, lambda t, x: mpc.compute(x), W)
            assert result.always_safe


class TestFeasibleSet:
    def test_feasible_set_matches_lp_feasibility(self, di_mpc, rng):
        system, mpc = di_mpc
        feasible = rmpc_feasible_set(mpc)
        # Points inside the computed X_F must be LP-feasible, points well
        # outside must not be.
        for x in feasible.sample(rng, 10):
            assert mpc.is_feasible(x)
        lo, hi = system.safe_set.bounding_box()
        outside_probes = 0
        for x in system.safe_set.sample(rng, 40):
            if feasible.violation(x) > 0.2:
                outside_probes += 1
                assert not mpc.is_feasible(x)
        assert outside_probes > 0  # the probe actually exercised the claim

    def test_invariant_set_certified(self, di_mpc):
        system, mpc = di_mpc
        xi = rmpc_invariant_set(mpc, verify=True)
        assert is_rci(
            system.A, system.B, xi, system.input_set,
            system.disturbance_set, tol=1e-6,
        )

    def test_invariant_subset_of_safe(self, di_mpc):
        system, mpc = di_mpc
        xi = rmpc_invariant_set(mpc, verify=True)
        assert system.safe_set.contains_polytope(xi, tol=1e-6)
