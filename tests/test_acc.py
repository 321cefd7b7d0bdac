"""Tests for the ACC case study: model, sets, environment, experiments.

The heavyweight set computations are exercised through the session-scoped
``acc_case`` fixture.
"""

import numpy as np
import pytest

from repro.acc import (
    ACCParameters,
    ACCSkippingEnv,
    build_acc_system,
    experiment_vf_range,
    saving_histogram,
)
from repro.acc.model import ACCCoordinates
from repro.experiments import ExperimentSpec, run_experiment
from repro.framework import IntermittentController
from repro.invariance import is_rci
from repro.skipping import AlwaysSkipPolicy
from repro.traffic import ConstantPattern, SinusoidalPattern


class TestModel:
    def test_paper_constants(self):
        p = ACCParameters()
        assert p.delta == 0.1
        assert p.drag == 0.2
        assert p.s_ref == 150.0
        assert p.v_ref == 40.0
        assert p.u_trim == pytest.approx(8.0)
        assert p.w_bound == pytest.approx(1.0)

    def test_matrices(self):
        p = ACCParameters()
        np.testing.assert_allclose(p.A, [[1.0, -0.1], [0.0, 0.98]])
        np.testing.assert_allclose(p.B, [[0.0], [0.1]])

    def test_skip_mode_validation(self):
        with pytest.raises(ValueError, match="skip_mode"):
            ACCParameters(skip_mode="hover")

    def test_skip_input_modes(self):
        np.testing.assert_allclose(
            ACCParameters(skip_mode="coast").skip_input_shifted, [-8.0]
        )
        np.testing.assert_allclose(
            ACCParameters(skip_mode="trim").skip_input_shifted, [0.0]
        )

    def test_coordinate_roundtrip(self):
        coords = ACCCoordinates(ACCParameters())
        x = coords.to_shifted(163.0, 37.5)
        np.testing.assert_allclose(x, [13.0, -2.5])
        assert coords.from_shifted(x) == (163.0, 37.5)
        u = coords.input_to_shifted(10.0)
        assert coords.input_from_shifted(u) == pytest.approx(10.0)

    def test_disturbance_from_vf(self):
        coords = ACCCoordinates(ACCParameters())
        w = coords.disturbance_from_vf([30.0, 40.0, 50.0])
        np.testing.assert_allclose(w[:, 0], [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(w[:, 1], 0.0)

    def test_shifted_dynamics_match_raw(self):
        """One step in shifted coordinates equals the raw difference
        equations of the paper's Sec. IV."""
        p = ACCParameters()
        coords = ACCCoordinates(p)
        system = build_acc_system(p)
        s, v, vf, u = 160.0, 43.0, 47.0, 12.0
        x = coords.to_shifted(s, v)
        w = coords.disturbance_from_vf([vf])[0]
        nxt = system.step(x, coords.input_to_shifted(u), w)
        s_next = s - (v - vf) * p.delta
        v_next = v - (p.drag * v - u) * p.delta
        assert coords.from_shifted(nxt) == (
            pytest.approx(s_next), pytest.approx(v_next),
        )

    def test_equilibrium_is_fixed_point(self):
        p = ACCParameters()
        system = build_acc_system(p)
        nxt = system.step(np.zeros(2), np.zeros(1), np.zeros(2))
        np.testing.assert_allclose(nxt, 0.0, atol=1e-12)

    def test_constraint_sets(self):
        system = build_acc_system(ACCParameters())
        lo, hi = system.safe_set.bounding_box()
        np.testing.assert_allclose(lo, [-30.0, -15.0])
        np.testing.assert_allclose(hi, [30.0, 15.0])
        lo_u, hi_u = system.input_set.bounding_box()
        assert lo_u[0] == pytest.approx(-48.0)
        assert hi_u[0] == pytest.approx(32.0)


class TestCaseStudySets:
    def test_invariant_certified(self, acc_case):
        system = acc_case.system
        assert is_rci(
            system.A, system.B, acc_case.invariant_set,
            system.input_set, system.disturbance_set, tol=1e-6,
        )

    def test_nesting_x_xi_xprime(self, acc_case):
        assert acc_case.system.safe_set.contains_polytope(
            acc_case.invariant_set, tol=1e-6
        )
        assert acc_case.invariant_set.contains_polytope(
            acc_case.strengthened_set, tol=1e-7
        )

    def test_strengthened_one_coast_step_stays_in_xi(self, acc_case, rng):
        """Definition 3 for the coast skip input."""
        case = acc_case
        w_vertices = case.system.disturbance_set.vertices()
        for x in case.strengthened_set.sample(rng, 20):
            for w in w_vertices:
                nxt = case.system.step(x, case.skip_input, w)
                assert case.invariant_set.contains(nxt, tol=1e-6)

    def test_monitor_nested_sets_accepted(self, acc_case):
        monitor = acc_case.make_monitor()
        assert monitor.admissible_initial(np.zeros(2))

    def test_initial_state_sampling_regions(self, acc_case, rng):
        xs = acc_case.sample_initial_states(rng, 25, region="strengthened")
        assert acc_case.strengthened_set.contains_batch(xs).all()
        xi = acc_case.sample_initial_states(rng, 10, region="invariant")
        assert acc_case.invariant_set.contains_batch(xi).all()
        with pytest.raises(ValueError):
            acc_case.sample_initial_states(rng, 1, region="everywhere")

    def test_rmpc_feasible_throughout_invariant_set(self, acc_case, rng):
        for x in acc_case.invariant_set.sample(rng, 10):
            assert acc_case.mpc.is_feasible(x)

    def test_raw_views(self, acc_case, rng):
        from repro.framework import run_controller_only

        vf = np.full(10, 40.0)
        stats = run_controller_only(
            acc_case.system, acc_case.mpc, np.zeros(2),
            acc_case.coords.disturbance_from_vf(vf),
        )
        assert acc_case.raw_velocities(stats).shape == (11,)
        assert acc_case.raw_distances(stats).shape == (11,)
        assert acc_case.raw_commands(stats).shape == (10,)
        assert acc_case.fuel_of_run(stats) > 0
        assert acc_case.raw_energy_of_run(stats) >= 0

    def test_experiment_vf_range_table(self):
        assert experiment_vf_range("ex3") == (35.0, 45.0)
        assert experiment_vf_range("overall") == (30.0, 50.0)
        with pytest.raises(ValueError):
            experiment_vf_range("nope")


class TestACCEnv:
    def _env(self, acc_case, rng, **kwargs):
        pattern = SinusoidalPattern(
            ve=40.0, amplitude=9.0, noise=0.0, dt=acc_case.params.delta
        )
        return ACCSkippingEnv(acc_case, pattern, rng, episode_steps=20, **kwargs)

    def test_reset_returns_normalised_obs(self, acc_case, rng):
        env = self._env(acc_case, rng)
        obs = env.reset()
        assert obs.shape == (env.observation_dim,)
        assert np.all(np.abs(obs) <= 1.5)

    def test_step_before_reset_raises(self, acc_case, rng):
        env = self._env(acc_case, rng)
        with pytest.raises(RuntimeError, match="reset"):
            env.step(0)

    def test_episode_terminates(self, acc_case, rng):
        env = self._env(acc_case, rng)
        env.reset()
        done = False
        steps = 0
        while not done:
            _obs, _r, done, _info = env.step(1)
            steps += 1
        assert steps == 20
        with pytest.raises(RuntimeError, match="finished"):
            env.step(1)

    def test_skip_inside_xprime_costs_nothing(self, acc_case, rng):
        env = self._env(acc_case, rng)
        env.reset()
        # Force a state deep inside X' so skipping is allowed.
        env._x = np.zeros(2)
        _obs, reward, _done, info = env.step(0)
        assert info["z"] == 0
        assert not info["forced"]
        assert info["r2"] == 0.0
        assert reward <= 0.0

    def test_run_action_charges_energy(self, acc_case, rng):
        env = self._env(acc_case, rng)
        env.reset()
        env._x = np.zeros(2)
        _obs, _reward, _done, info = env.step(1)
        assert info["z"] == 1
        assert info["r2"] >= 0.0

    def test_forced_outside_xprime(self, acc_case, rng):
        env = self._env(acc_case, rng)
        env.reset()
        # A state in XI − X': vertices of XI stick out of X'.
        center = acc_case.invariant_set.interior_point()
        for v in acc_case.invariant_set.vertices():
            candidate = center + 0.999 * (v - center)
            if not acc_case.strengthened_set.contains(candidate):
                env._x = candidate
                break
        else:
            pytest.skip("XI and X' coincide numerically")
        _obs, _reward, _done, info = env.step(0)
        assert info["forced"]
        assert info["z"] == 1

    def test_fuel_reward_mode(self, acc_case, rng):
        env = self._env(acc_case, rng, reward_mode="fuel")
        env.reset()
        env._x = np.zeros(2)
        _obs, _reward, _done, info = env.step(1)
        # r2 equals the metered step fuel of the applied command.
        assert info["r2"] > 0.0

    def test_reward_mode_validation(self, acc_case, rng):
        with pytest.raises(ValueError, match="reward_mode"):
            self._env(acc_case, rng, reward_mode="watts")


def _bang_bang_cell(case, num_cases, horizon, seed):
    return run_experiment(
        ExperimentSpec(
            scenario=case, pattern="overall", approaches=("bang_bang",),
            num_cases=num_cases, horizon=horizon, seed=seed,
        )
    )


class TestEvaluation:
    def test_paired_comparison_small(self, acc_case):
        cell = _bang_bang_cell(acc_case, num_cases=3, horizon=40, seed=3)
        assert cell.stats("baseline").metrics["fuel"].shape == (3,)
        bang = cell.stats("bang_bang").metrics
        assert bang["fuel"].shape == (3,)
        assert set(cell.approaches) == {"baseline", "bang_bang"}
        # Bang-bang skips most steps and never violates safety (strict
        # monitors would have raised inside the run otherwise).
        assert bang["skip_rate"].mean() > 0.5
        assert cell.always_safe
        with pytest.raises(ValueError, match="unknown approach"):
            cell.fuel_saving("drl")

    def test_histogram_counts_sum(self, acc_case):
        cell = _bang_bang_cell(acc_case, num_cases=4, horizon=30, seed=4)
        counts = saving_histogram(cell.fuel_saving("bang_bang"))
        assert counts.sum() == 4

    def test_energy_saving_zero_base_guard(self, acc_case):
        cell = _bang_bang_cell(acc_case, num_cases=2, horizon=20, seed=5)
        savings = cell.energy_saving("bang_bang")
        assert np.all(np.isfinite(savings))

    def test_bang_bang_equals_framework_run(self, acc_case, rng):
        """The evaluation's bang-bang must match a manual framework run
        on the same realisation (pairing check)."""
        pattern = ConstantPattern(40.0)
        vf = pattern.generate(30)
        W = acc_case.coords.disturbance_from_vf(vf)
        x0 = np.zeros(2)
        stats = IntermittentController(
            acc_case.system, acc_case.mpc, acc_case.make_monitor(),
            AlwaysSkipPolicy(), skip_input=acc_case.skip_input,
        ).run(x0, W)
        # With a constant-speed front vehicle from equilibrium, coasting
        # keeps the system in X' for a while: first step must skip.
        assert stats.decisions[0] == 0
        np.testing.assert_allclose(stats.inputs[0], acc_case.skip_input)
