"""End-to-end integration tests across the whole stack.

These exercise the exact pipeline the paper's experiments use: build the
case study, train a (tiny) DRL agent, run the three-way comparison, and
check the Theorem-1 safety contract plus the qualitative orderings the
paper reports.
"""

import numpy as np
import pytest

from repro.acc import greedy_drl_policy, train_skipping_agent
from repro.experiments import ExperimentSpec, run_experiment
from repro.framework import IntermittentController, run_controller_only
from repro.skipping import (
    AlwaysSkipPolicy,
    DRLSkippingPolicy,
    PeriodicSkipPolicy,
    RandomSkipPolicy,
)
from repro.traffic import experiment_pattern


class TestSafetyContract:
    """Theorem 1, empirically: no policy can push the system out of X."""

    @pytest.mark.parametrize("experiment", ["overall", "ex6"])
    def test_no_violation_under_adversarial_patterns(self, acc_case, experiment, rng):
        pattern = experiment_pattern(experiment, rng)
        policies = [
            AlwaysSkipPolicy(),
            PeriodicSkipPolicy(period=4),
            RandomSkipPolicy(0.9, rng),
        ]
        for policy in policies:
            runner = IntermittentController(
                acc_case.system, acc_case.mpc, acc_case.make_monitor(strict=True),
                policy, skip_input=acc_case.skip_input,
            )
            for x0 in acc_case.sample_initial_states(rng, 3):
                W = acc_case.coords.disturbance_from_vf(pattern.generate(150))
                stats = runner.run(x0, W)  # strict monitor raises on violation
                assert acc_case.system.safe_set.contains_points(stats.states).all()
                # Raw-coordinate check: distance stayed within [120, 180].
                s = acc_case.raw_distances(stats)
                assert s.min() >= 119.999 and s.max() <= 180.001

    def test_rmpc_only_safe(self, acc_case, rng):
        pattern = experiment_pattern("overall", rng)
        for x0 in acc_case.sample_initial_states(rng, 3):
            W = acc_case.coords.disturbance_from_vf(pattern.generate(120))
            stats = run_controller_only(acc_case.system, acc_case.mpc, x0, W)
            assert acc_case.system.safe_set.contains_points(stats.states).all()


class TestEndToEndDRL:
    @pytest.fixture(scope="class")
    def trained(self, acc_case):
        """A quickly-trained agent (smoke-scale, not benchmark-scale)."""
        agent, env, history = train_skipping_agent(
            acc_case, "overall", episodes=25, seed=0
        )
        return agent, env, history

    def test_training_history_complete(self, trained):
        _agent, _env, history = trained
        assert history.episodes == 25
        assert np.isfinite(history.returns).all()

    def test_drl_policy_runs_safely(self, acc_case, trained, rng):
        agent, env, _history = trained
        policy = DRLSkippingPolicy(
            agent, state_scale=env.state_scale,
            disturbance_scale=env.disturbance_scale,
        )
        pattern = experiment_pattern("overall", rng)
        runner = IntermittentController(
            acc_case.system, acc_case.mpc, acc_case.make_monitor(strict=True),
            policy, skip_input=acc_case.skip_input,
        )
        x0 = acc_case.sample_initial_states(rng, 1)[0]
        W = acc_case.coords.disturbance_from_vf(pattern.generate(100))
        stats = runner.run(x0, W)
        assert acc_case.system.safe_set.contains_points(stats.states).all()

    def test_three_way_comparison_shape(self, acc_case, trained):
        agent, _env, _history = trained
        res = run_experiment(
            ExperimentSpec(
                scenario=acc_case, pattern="overall",
                approaches=("bang_bang", "drl"),
                num_cases=5, horizon=60, seed=9,
                policies={"drl": greedy_drl_policy(acc_case, agent)},
            )
        )
        # Both skipping approaches must save Problem-1 energy vs RMPC-only
        # (the core claim that skipping pays at all).
        assert res.energy_saving("bang_bang").mean() > 0
        assert res.energy_saving("drl").mean() > -0.05
        # Skip rates substantial, as in the paper's 79.4/100.
        bang_bang, baseline = res.stats("bang_bang"), res.stats("baseline")
        assert bang_bang.metrics["skip_rate"].mean() > 0.5
        # Computation accounting present and sane.
        assert baseline.mean_controller_ms > 0
        assert bang_bang.mean_monitor_ms < baseline.mean_controller_ms

    def test_observation_scales_positive(self, trained):
        _agent, env, _history = trained
        assert np.all(env.state_scale > 0)
        assert env.disturbance_scale > 0

    def test_drl_policy_validation(self, trained):
        agent, _env, _history = trained
        with pytest.raises(ValueError, match="state_scale"):
            DRLSkippingPolicy(agent, state_scale=[0.0, 1.0])
        with pytest.raises(ValueError, match="disturbance_scale"):
            DRLSkippingPolicy(agent, state_scale=[1.0, 1.0], disturbance_scale=0.0)
