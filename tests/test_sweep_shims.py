"""Shim-equivalence: the ACC entry point `evaluate_approaches` is a thin
client of the experiment API and must produce metric-identical results
to a direct `run_experiment` call (serial engine, same seed)."""

from __future__ import annotations

import numpy as np

from repro.experiments import ExecutionConfig, ExperimentSpec, run_experiment


class TestEvaluateApproachesShim:
    def test_matches_run_experiment(self, acc_case):
        from repro.acc.experiments import evaluate_approaches

        legacy = evaluate_approaches(
            acc_case, "overall", num_cases=3, horizon=10, seed=9,
            engine="serial",
        )
        direct = run_experiment(
            ExperimentSpec(
                scenario="acc", pattern="overall", approaches=("bang_bang",),
                num_cases=3, horizon=10, seed=9,
            ),
            ExecutionConfig(engine="serial"),
        )
        baseline = direct.approaches["baseline"].metrics
        bang = direct.approaches["bang_bang"].metrics
        np.testing.assert_array_equal(legacy.rmpc_only.fuel, baseline["fuel"])
        np.testing.assert_array_equal(legacy.rmpc_only.energy, baseline["energy"])
        np.testing.assert_array_equal(legacy.bang_bang.fuel, bang["fuel"])
        np.testing.assert_array_equal(
            legacy.bang_bang.skip_rate, bang["skip_rate"]
        )
        np.testing.assert_array_equal(
            legacy.bang_bang.forced_steps, bang["forced_steps"]
        )
        np.testing.assert_array_equal(
            legacy.fuel_saving("bang_bang"), direct.fuel_saving("bang_bang")
        )
