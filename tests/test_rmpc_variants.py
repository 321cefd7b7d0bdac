"""Tests for RMPC variants and configuration paths not covered by the
main controller suite: custom terminal sets, cost-weight effects and
cross-layer equivalences."""

import numpy as np
import pytest

from repro.controllers import (
    RobustMPC,
    build_terminal_set,
    lqr_gain,
    rmpc_feasible_set,
)
from repro.framework import run_controller_only
from tests.conftest import make_double_integrator


@pytest.fixture(scope="module")
def system():
    return make_double_integrator()


class TestCustomTerminalSet:
    def test_explicit_terminal_set_used(self, system):
        K = lqr_gain(system.A, system.B, np.eye(2), np.eye(1))
        tightened_last = RobustMPC(system, horizon=4).tightened[4]
        terminal = build_terminal_set(system, K, tightened_last).scale(0.5)
        mpc = RobustMPC(system, horizon=4, terminal_set=terminal)
        assert mpc.terminal_set is terminal
        sol = mpc.solve([0.2, 0.0])
        assert terminal.contains(sol.states[-1], tol=1e-6)

    def test_smaller_terminal_set_shrinks_feasible_region(self, system):
        base = RobustMPC(system, horizon=4)
        small_terminal = base.terminal_set.scale(0.3)
        restricted = RobustMPC(system, horizon=4, terminal_set=small_terminal)
        xf_base = rmpc_feasible_set(base)
        xf_restricted = rmpc_feasible_set(restricted)
        assert xf_base.contains_polytope(xf_restricted, tol=1e-6)


class TestCostWeights:
    def test_energy_weight_reduces_actuation(self, system, rng):
        cheap_energy = RobustMPC(system, horizon=6, input_weight=0.1)
        dear_energy = RobustMPC(system, horizon=6, input_weight=10.0)
        x0 = np.array([1.5, 0.3])
        W = np.zeros((30, 2))
        run_cheap = run_controller_only(system, cheap_energy, x0, W)
        run_dear = run_controller_only(system, dear_energy, x0, W)
        assert run_dear.energy <= run_cheap.energy + 1e-9

    def test_cost_is_monotone_in_state_norm(self, system):
        mpc = RobustMPC(system, horizon=6)
        near = mpc.solve([0.2, 0.0]).cost
        far = mpc.solve([2.0, 0.0]).cost
        assert far > near


class TestCrossLayerEquivalence:
    def test_simulate_matches_run_controller_only(self, system, rng):
        """The plant-level simulate() and the framework-level baseline
        runner must integrate identical trajectories."""
        mpc = RobustMPC(system, horizon=5)
        lo, hi = system.disturbance_set.bounding_box()
        W = rng.uniform(lo, hi, size=(20, 2))
        x0 = np.array([0.8, -0.2])
        sim = system.simulate(x0, lambda t, x: mpc.compute(x), W)
        framework = run_controller_only(system, mpc, x0, W)
        np.testing.assert_allclose(sim.states, framework.states, atol=1e-10)
        np.testing.assert_allclose(sim.inputs, framework.inputs, atol=1e-10)
