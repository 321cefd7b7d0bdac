"""Tests for the LTI plant, discretisation and the disturbance model."""

import numpy as np
import pytest

from repro.geometry import HPolytope
from repro.systems import (
    DiscreteLTISystem,
    SinusoidalDisturbance,
    euler_discretize,
    zoh_discretize,
)


class TestDiscreteLTISystem:
    def test_dimensions(self, double_integrator):
        assert double_integrator.n == 2
        assert double_integrator.m == 1

    def test_step_nominal(self, double_integrator):
        x = np.array([1.0, 0.5])
        u = np.array([1.0])
        nxt = double_integrator.step(x, u)
        expected = double_integrator.A @ x + double_integrator.B @ u
        np.testing.assert_allclose(nxt, expected)

    def test_step_with_disturbance(self, double_integrator):
        nxt = double_integrator.step([0, 0], [0], [0.1, -0.1])
        np.testing.assert_allclose(nxt, [0.1, -0.1])

    def test_closed_loop_matrix(self, double_integrator):
        K = np.array([[-1.0, -2.0]])
        M = double_integrator.closed_loop_matrix(K)
        np.testing.assert_allclose(
            M, double_integrator.A + double_integrator.B @ K
        )

    def test_closed_loop_matrix_shape_check(self, double_integrator):
        with pytest.raises(ValueError, match="K must be"):
            double_integrator.closed_loop_matrix(np.array([[1.0, 2.0, 3.0]]))

    def test_rejects_b_row_mismatch(self):
        with pytest.raises(ValueError, match="B has"):
            DiscreteLTISystem(
                np.eye(2),
                np.ones((3, 1)),
                HPolytope.from_box([-1, -1], [1, 1]),
                HPolytope.from_box([-1], [1]),
                HPolytope.from_box([-0.1, -0.1], [0.1, 0.1]),
            )

    def test_rejects_sets_without_origin(self):
        with pytest.raises(ValueError, match="origin"):
            DiscreteLTISystem(
                np.eye(2),
                np.ones((2, 1)),
                HPolytope.from_box([1, 1], [2, 2]),  # no origin
                HPolytope.from_box([-1], [1]),
                HPolytope.from_box([-0.1, -0.1], [0.1, 0.1]),
            )

    def test_rejects_input_space_disturbance(self):
        with pytest.raises(ValueError, match="state space"):
            DiscreteLTISystem(
                np.eye(2),
                np.ones((2, 1)),
                HPolytope.from_box([-1, -1], [1, 1]),
                HPolytope.from_box([-1], [1]),
                HPolytope.from_box([-0.1], [0.1]),  # 1-D, not state-dim
            )

    def test_simulate_trajectory_and_energy(self, double_integrator):
        W = np.zeros((5, 2))
        result = double_integrator.simulate(
            [1.0, 0.0], lambda t, x: np.array([-0.5]), W
        )
        assert result.states.shape == (6, 2)
        assert result.inputs.shape == (5, 1)
        assert result.energy == pytest.approx(2.5)
        assert len(result) == 5

    def test_simulate_clips_input(self, double_integrator):
        W = np.zeros((3, 2))
        result = double_integrator.simulate(
            [0.0, 0.0], lambda t, x: np.array([100.0]), W
        )
        assert np.all(result.inputs <= 3.0 + 1e-12)

    def test_simulate_safe_flags(self, double_integrator):
        W = np.zeros((40, 2))
        # Constant max thrust escapes the position bound eventually.
        result = double_integrator.simulate(
            [0.0, 0.0], lambda t, x: np.array([3.0]), W, clip_input=False
        )
        assert not result.always_safe

    def test_simulate_rejects_callable_disturbance(self, double_integrator):
        with pytest.raises(ValueError, match="pre-sampled"):
            double_integrator.simulate(
                [0, 0], lambda t, x: np.array([0.0]), lambda t, x: np.zeros(2)
            )


class TestDiscretize:
    def test_euler_form(self):
        A = np.array([[0.0, 1.0], [0.0, -0.2]])
        B = np.array([[0.0], [1.0]])
        Ad, Bd = euler_discretize(A, B, 0.1)
        np.testing.assert_allclose(Ad, [[1.0, 0.1], [0.0, 0.98]])
        np.testing.assert_allclose(Bd, [[0.0], [0.1]])

    def test_euler_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            euler_discretize(np.eye(2), np.ones((2, 1)), 0.0)

    def test_zoh_matches_euler_for_small_dt(self):
        A = np.array([[0.0, 1.0], [0.0, -0.2]])
        B = np.array([[0.0], [1.0]])
        Ad_e, Bd_e = euler_discretize(A, B, 1e-4)
        Ad_z, Bd_z = zoh_discretize(A, B, 1e-4)
        np.testing.assert_allclose(Ad_e, Ad_z, atol=1e-7)
        np.testing.assert_allclose(Bd_e, Bd_z, atol=1e-7)

    def test_zoh_exact_for_integrator(self):
        # Double integrator has closed-form ZOH.
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        Ad, Bd = zoh_discretize(A, B, 0.5)
        np.testing.assert_allclose(Ad, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(Bd, [[0.125], [0.5]], atol=1e-12)


class TestDisturbances:
    def test_sinusoid_shape_and_bounds(self, rng):
        model = SinusoidalDisturbance(
            amplitude=9.0, dt=0.1, noise_bound=1.0, bound=10.0, rng=rng
        )
        w = model.sample(200)
        assert w.shape == (200, 1)
        assert np.all(np.abs(w) <= 10.0 + 1e-12)

    def test_sinusoid_deterministic_without_noise(self):
        model = SinusoidalDisturbance(amplitude=2.0, dt=0.1)
        w1 = model.sample(50)
        model.reset()
        w2 = model.sample(50)
        np.testing.assert_allclose(w1, w2)

    def test_sinusoid_continues_phase(self):
        model = SinusoidalDisturbance(amplitude=2.0, dt=0.1)
        first = model.sample(30)
        second = model.sample(30)
        model.reset()
        full = model.sample(60)
        np.testing.assert_allclose(np.vstack([first, second]), full)

    def test_sinusoid_requires_rng_for_noise(self):
        with pytest.raises(ValueError, match="rng"):
            SinusoidalDisturbance(amplitude=1.0, noise_bound=0.5)

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="lower bound exceeds"):
            SinusoidalDisturbance(amplitude=1.0, bound=-1.0)
