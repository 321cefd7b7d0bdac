"""Tests for the experiment harness utilities (fast paths only —
the full pipelines are covered by test_integration and the benchmarks)."""

import numpy as np
import pytest

from repro.acc.experiments import (
    FIG4_BIN_EDGES,
    experiment_vf_range,
    greedy_drl_policy,
    saving_histogram,
    train_skipping_agent,
)
from repro.experiments import (
    ApproachResult,
    CellResult,
    ExecutionConfig,
    ExperimentSpec,
    run_experiment,
)
from repro.rl.dqn import DQNConfig, DoubleDQNAgent
from repro.skipping.drl import DRLSkippingPolicy


def _stats(fuel, energy=None):
    fuel = np.asarray(fuel, dtype=float)
    if energy is None:
        energy = fuel * 10.0
    return ApproachResult(
        metrics={
            "fuel": fuel,
            "energy": np.asarray(energy, dtype=float),
            "skip_rate": np.full(fuel.shape, 0.8),
            "forced_steps": np.full(fuel.shape, 5.0),
            "max_violation": np.full(fuel.shape, -1.0),
        },
        mean_controller_ms=3.0,
        mean_monitor_ms=0.05,
    )


def _cell(**approaches):
    return CellResult(
        key="unit", scenario="acc", coords=(), config={}, approaches=approaches
    )


@pytest.fixture
def cell():
    return _cell(
        baseline=_stats([10.0, 20.0, 40.0]),
        bang_bang=_stats([9.0, 15.0, 36.0]),
        drl=_stats([8.0, 14.0, 30.0]),
    )


def _untrained_agent():
    # Untrained but deterministic: the engine comparison only needs a
    # fixed decision function, not a good one.
    return DoubleDQNAgent(
        DQNConfig(state_dim=3, hidden=(8, 8)), np.random.default_rng(7)
    )


class TestCellResultSavings:
    def test_fuel_saving_values(self, cell):
        np.testing.assert_allclose(cell.fuel_saving("bang_bang"), [0.1, 0.25, 0.1])
        np.testing.assert_allclose(cell.fuel_saving("drl"), [0.2, 0.3, 0.25])

    def test_energy_saving_values(self, cell):
        np.testing.assert_allclose(cell.energy_saving("drl"), [0.2, 0.3, 0.25])

    def test_energy_saving_zero_base(self):
        result = _cell(
            baseline=_stats([10.0], energy=[0.0]),
            bang_bang=_stats([9.0], energy=[0.0]),
        )
        np.testing.assert_array_equal(result.energy_saving("bang_bang"), [0.0])

    def test_fuel_saving_needs_fuel_metric(self):
        stats = _stats([1.0])
        del stats.metrics["fuel"]
        result = _cell(baseline=stats, bang_bang=stats)
        with pytest.raises(ValueError, match="no 'fuel' metric"):
            result.fuel_saving("bang_bang")

    def test_histogram_bins(self, cell):
        counts = saving_histogram(cell.fuel_saving("drl"))
        assert counts.sum() == 3
        # Savings 0.2, 0.3, 0.25 land in the 20-30% bin (two) and 30-40%.
        assert counts[2] == 2
        assert counts[3] == 1

    def test_histogram_clips_out_of_range(self):
        result = _cell(
            baseline=_stats([10.0, 10.0]),
            bang_bang=_stats([11.0, 2.0]),  # -10% and +80% savings
        )
        counts = saving_histogram(result.fuel_saving("bang_bang"))
        assert counts.sum() == 2
        assert counts[0] == 1  # clipped below
        assert counts[-1] == 1  # clipped above

    def test_missing_drl_raises(self):
        result = _cell(baseline=_stats([10.0]), bang_bang=_stats([9.0]))
        with pytest.raises(ValueError, match="unknown approach 'drl'"):
            result.fuel_saving("drl")

    def test_unknown_approach_raises(self, cell):
        with pytest.raises(ValueError):
            cell.fuel_saving("magic")


class TestEvaluateEngines:
    """The lockstep engine must reproduce the serial evaluation exactly
    for every approach of the paper's comparison — the κ-every-step
    baseline (controller-only rollout), bang-bang (AlwaysSkip) and the
    DRL policy (a greedy, ε = 0 DQN wrapper)."""

    @pytest.fixture(scope="class")
    def paired(self, acc_case):
        spec = ExperimentSpec(
            scenario=acc_case,
            pattern="overall",
            approaches=("bang_bang", "drl"),
            num_cases=4,
            horizon=15,
            seed=123,
            policies={"drl": greedy_drl_policy(acc_case, _untrained_agent())},
        )
        serial = run_experiment(spec, ExecutionConfig(engine="serial"))
        lockstep = run_experiment(spec, ExecutionConfig(engine="lockstep"))
        return serial, lockstep

    @pytest.mark.parametrize("approach", ["baseline", "bang_bang", "drl"])
    def test_lockstep_matches_serial(self, paired, approach):
        serial, lockstep = paired
        left = serial.stats(approach).metrics
        right = lockstep.stats(approach).metrics
        for metric in ("fuel", "energy", "skip_rate", "forced_steps"):
            np.testing.assert_array_equal(left[metric], right[metric])

    def test_engine_validation(self, acc_case):
        with pytest.raises(ValueError, match="engine"):
            ExecutionConfig(engine="warp")
        with pytest.raises(ValueError, match="num_cases"):
            ExperimentSpec(scenario=acc_case, pattern="overall", num_cases=0)

    def test_lockstep_rejects_stateful_drl_policy(self, acc_case):
        """An exploring (ε > 0) DRL policy is draw-order dependent: the
        lockstep engine must refuse it rather than silently diverge."""
        agent = _untrained_agent()
        greedy = greedy_drl_policy(acc_case, agent)
        assert greedy.stateless
        exploring = DRLSkippingPolicy(
            agent,
            state_scale=greedy.state_scale,
            disturbance_scale=greedy.disturbance_scale,
            epsilon=0.1,
        )
        with pytest.raises(ValueError, match="stateless"):
            run_experiment(
                ExperimentSpec(
                    scenario=acc_case, pattern="overall", num_cases=2,
                    horizon=5, policies={"drl": exploring},
                ),
                ExecutionConfig(engine="lockstep"),
            )


class TestHarnessValidation:
    def test_bin_edges_cover_paper_bins(self):
        assert FIG4_BIN_EDGES[0] == 0.0
        assert FIG4_BIN_EDGES[-1] == pytest.approx(0.6)
        assert len(FIG4_BIN_EDGES) == 7

    def test_vf_ranges_match_table1(self):
        assert experiment_vf_range("ex1") == (30.0, 50.0)
        assert experiment_vf_range("ex5") == (39.0, 41.0)

    def test_restarts_validation(self, acc_case):
        with pytest.raises(ValueError, match="restarts"):
            train_skipping_agent(acc_case, "overall", episodes=1, restarts=0)

    def test_greedy_policy_scales_match_training_env(self, acc_case, rng):
        """The evaluation policy normalises observations exactly as the
        training environment did."""
        from repro.acc import ACCSkippingEnv
        from repro.traffic import experiment_pattern

        env = ACCSkippingEnv(acc_case, experiment_pattern("overall", rng), rng)
        policy = greedy_drl_policy(acc_case, _untrained_agent())
        np.testing.assert_array_equal(policy.state_scale, env.state_scale)
        assert policy.disturbance_scale == env.disturbance_scale
