"""Tests for the weakly-hard (m, K) skipping constraint wrapper."""

import numpy as np
import pytest

from repro.skipping import (
    RUN,
    SKIP,
    AlwaysRunPolicy,
    AlwaysSkipPolicy,
    DecisionContext,
    WeaklyHardPolicy,
)


def _ctx(t=0):
    return DecisionContext(
        time=t, state=np.zeros(2), past_disturbances=np.zeros((1, 2))
    )


class TestWeaklyHard:
    def test_limits_skips_per_window(self):
        policy = WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=2, window=4)
        decisions = [policy.decide(_ctx(t)) for t in range(12)]
        # In every window of 4 consecutive decisions: at most 2 skips.
        for start in range(len(decisions) - 3):
            window = decisions[start : start + 4]
            assert sum(1 for d in window if d == SKIP) <= 2

    def test_never_blocks_runs(self):
        policy = WeaklyHardPolicy(AlwaysRunPolicy(), max_skips=0, window=3)
        assert all(policy.decide(_ctx(t)) == RUN for t in range(6))

    def test_zero_budget_means_always_run(self):
        policy = WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=0, window=5)
        assert all(policy.decide(_ctx(t)) == RUN for t in range(10))

    def test_full_budget_is_transparent(self):
        policy = WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=4, window=4)
        assert all(policy.decide(_ctx(t)) == SKIP for t in range(10))

    def test_reset_clears_window(self):
        policy = WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=1, window=3)
        assert policy.decide(_ctx(0)) == SKIP
        assert policy.decide(_ctx(1)) == RUN
        policy.reset()
        assert policy.decide(_ctx(0)) == SKIP

    def test_forced_run_corrects_history(self):
        policy = WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=1, window=2)
        assert policy.decide(_ctx(0)) == SKIP
        # Monitor forced the actual actuation to RUN: history amended,
        # so the next step's budget is free again.
        policy.observe(_ctx(0), decision=RUN, forced=True,
                       next_state=np.zeros(2), applied_input=np.zeros(1))
        assert policy.decide(_ctx(1)) == SKIP

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="window"):
            WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=0, window=0)
        with pytest.raises(ValueError, match="max_skips"):
            WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=5, window=3)

    def test_in_framework_run(self, double_integrator, rng):
        """(1, 3)-constrained skipping inside Algorithm 1 stays safe and
        respects the pattern."""
        from repro.controllers import LinearFeedback, lqr_gain
        from repro.framework import IntermittentController, SafetyMonitor
        from repro.invariance import maximal_rpi, strengthened_safe_set

        system = double_integrator
        K = lqr_gain(system.A, system.B, np.eye(2), np.eye(1))
        seed = system.safe_set.intersect(system.input_set.linear_preimage(K))
        xi = maximal_rpi(
            system.closed_loop_matrix(K), seed, system.disturbance_set
        ).invariant_set
        xp = strengthened_safe_set(system, xi)
        policy = WeaklyHardPolicy(AlwaysSkipPolicy(), max_skips=1, window=3)
        runner = IntermittentController(
            system, LinearFeedback(K),
            SafetyMonitor(strengthened_set=xp, invariant_set=xi,
                          safe_set=system.safe_set),
            policy,
        )
        lo, hi = system.disturbance_set.bounding_box()
        stats = runner.run(
            xp.interior_point(), rng.uniform(lo, hi, size=(60, 2))
        )
        # At most 1 skip in any 3 consecutive actuated decisions.
        for start in range(stats.steps - 2):
            window = stats.decisions[start : start + 3]
            assert np.sum(window == 0) <= 1
        assert system.safe_set.contains_batch(stats.states).all()
