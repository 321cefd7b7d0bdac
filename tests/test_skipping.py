"""Tests for the skipping decision functions Ω."""

import numpy as np
import pytest

from repro.controllers import LinearFeedback, lqr_gain
from repro.geometry import HPolytope
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import (
    RUN,
    SKIP,
    AlwaysRunPolicy,
    AlwaysSkipPolicy,
    DecisionContext,
    ExhaustiveSkippingPolicy,
    MarginThresholdPolicy,
    MILPSkippingPolicy,
    PeriodicSkipPolicy,
    RandomSkipPolicy,
)


def _context(state, future=None, time=0):
    return DecisionContext(
        time=time,
        state=np.asarray(state, dtype=float),
        past_disturbances=np.zeros((1, len(state))),
        future_disturbances=future,
    )


class TestHeuristics:
    def test_always_policies(self):
        ctx = _context([0.0, 0.0])
        assert AlwaysRunPolicy().decide(ctx) == RUN
        assert AlwaysSkipPolicy().decide(ctx) == SKIP

    def test_periodic_pattern(self):
        policy = PeriodicSkipPolicy(period=3)
        decisions = [policy.decide(_context([0, 0], time=t)) for t in range(6)]
        assert decisions == [RUN, SKIP, SKIP, RUN, SKIP, SKIP]

    def test_periodic_offset(self):
        policy = PeriodicSkipPolicy(period=2, offset=1)
        assert policy.decide(_context([0, 0], time=0)) == SKIP
        assert policy.decide(_context([0, 0], time=1)) == RUN

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            PeriodicSkipPolicy(period=0)

    def test_random_policy_extremes(self, rng):
        always_skip = RandomSkipPolicy(1.0, rng)
        always_run = RandomSkipPolicy(0.0, rng)
        ctx = _context([0, 0])
        assert all(always_skip.decide(ctx) == SKIP for _ in range(10))
        assert all(always_run.decide(ctx) == RUN for _ in range(10))

    def test_random_policy_rate(self, rng):
        policy = RandomSkipPolicy(0.7, rng)
        ctx = _context([0, 0])
        skips = sum(policy.decide(ctx) == SKIP for _ in range(2000))
        assert 0.65 < skips / 2000 < 0.75

    def test_random_policy_validation(self, rng):
        with pytest.raises(ValueError):
            RandomSkipPolicy(1.5, rng)

    def test_margin_threshold(self, unit_box):
        policy = MarginThresholdPolicy(unit_box, margin=0.5)
        assert policy.decide(_context([0.0, 0.0])) == SKIP
        assert policy.decide(_context([0.8, 0.0])) == RUN

    def test_margin_validation(self, unit_box):
        with pytest.raises(ValueError):
            MarginThresholdPolicy(unit_box, margin=-0.1)


@pytest.fixture(scope="module")
def mb_setup():
    """Double integrator with LQR and its strengthened set for the
    model-based policies (module-scoped — set computation is slow)."""
    from tests.conftest import make_double_integrator

    system = make_double_integrator()
    K = lqr_gain(system.A, system.B, np.eye(2), 4.0 * np.eye(1))
    seed = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed, system.disturbance_set
    ).invariant_set
    xp = strengthened_safe_set(system, xi)
    controller = LinearFeedback(K)
    return system, K, controller, xp


class TestModelBased:
    def test_milp_requires_future(self, mb_setup):
        system, K, _controller, xp = mb_setup
        policy = MILPSkippingPolicy(system, K, xp, horizon=3)
        with pytest.raises(ValueError, match="future"):
            policy.decide(_context([0.0, 0.0]))

    def test_exhaustive_requires_future(self, mb_setup):
        system, _K, controller, xp = mb_setup
        policy = ExhaustiveSkippingPolicy(system, controller, xp, horizon=3)
        with pytest.raises(ValueError, match="future"):
            policy.decide(_context([0.0, 0.0]))

    def test_skip_at_origin(self, mb_setup):
        """At the origin with zero disturbance, skipping is free and
        therefore optimal for both solvers."""
        system, K, controller, xp = mb_setup
        future = np.zeros((4, 2))
        milp = MILPSkippingPolicy(system, K, xp, horizon=4)
        exhaustive = ExhaustiveSkippingPolicy(system, controller, xp, horizon=4)
        assert milp.decide(_context([0.0, 0.0], future)) == SKIP
        assert exhaustive.decide(_context([0.0, 0.0], future)) == SKIP

    def test_milp_matches_exhaustive(self, mb_setup, rng):
        """Ground-truth check: the MILP and brute force agree on the
        decision at randomly sampled states."""
        system, K, controller, xp = mb_setup
        milp = MILPSkippingPolicy(system, K, xp, horizon=4)
        exhaustive = ExhaustiveSkippingPolicy(system, controller, xp, horizon=4)
        lo, hi = system.disturbance_set.bounding_box()
        inner = xp.scale(0.8)
        for x in inner.sample(rng, 8):
            future = rng.uniform(lo, hi, size=(4, 2))
            ctx = _context(x, future)
            assert milp.decide(ctx) == exhaustive.decide(ctx)

    def test_fallback_when_infeasible(self, mb_setup):
        """A state outside X' admits no plan confined to X': both solvers
        fall back to running the controller."""
        system, K, controller, xp = mb_setup
        outside = xp.support_point(np.array([1.0, 0.0])) * 1.5
        future = np.zeros((3, 2))
        milp = MILPSkippingPolicy(system, K, xp, horizon=3)
        exhaustive = ExhaustiveSkippingPolicy(system, controller, xp, horizon=3)
        assert milp.decide(_context(outside, future)) == RUN
        assert milp.infeasible_count == 1
        assert exhaustive.decide(_context(outside, future)) == RUN
        assert exhaustive.infeasible_count == 1

    def test_horizon_truncates_to_available_future(self, mb_setup):
        system, K, _controller, xp = mb_setup
        policy = MILPSkippingPolicy(system, K, xp, horizon=6)
        short_future = np.zeros((2, 2))
        assert policy.decide(_context([0.0, 0.0], short_future)) in (RUN, SKIP)

    def test_exhaustive_horizon_cap(self, mb_setup):
        system, _K, controller, xp = mb_setup
        with pytest.raises(ValueError, match="intractable"):
            ExhaustiveSkippingPolicy(system, controller, xp, horizon=13)

    def test_milp_gain_shape_validation(self, mb_setup):
        system, _K, _controller, xp = mb_setup
        with pytest.raises(ValueError, match="gain shape"):
            MILPSkippingPolicy(system, np.ones((2, 2)), xp, horizon=3)

    def test_milp_energy_between_bang_bang_and_always_run(self, mb_setup, rng):
        """Receding-horizon MILP saves most of the always-run energy and
        skips the vast majority of steps.  (It may cost slightly more
        than bang-bang: Eq. 6 confines *planned* states to X', whereas
        bang-bang exploits monitor-recovered excursions through XI − X'.)
        """
        from repro.framework import IntermittentController, SafetyMonitor

        system, K, controller, xp = mb_setup
        seed_xi = maximal_rpi(
            system.closed_loop_matrix(K),
            system.safe_set.intersect(system.input_set.linear_preimage(K)),
            system.disturbance_set,
        ).invariant_set
        monitor = lambda: SafetyMonitor(
            strengthened_set=xp, invariant_set=seed_xi, safe_set=system.safe_set
        )
        lo, hi = system.disturbance_set.bounding_box()
        W = rng.uniform(lo, hi, size=(40, 2))
        x0 = xp.sample(rng, 1)[0]
        milp_stats = IntermittentController(
            system, controller, monitor(),
            MILPSkippingPolicy(system, K, xp, horizon=4),
            reveal_future=True,
        ).run(x0, W)
        run_stats = IntermittentController(
            system, controller, monitor(), AlwaysRunPolicy()
        ).run(x0, W)
        assert milp_stats.energy < run_stats.energy
        assert milp_stats.skip_rate > 0.5
        assert system.safe_set.contains_batch(milp_stats.states).all()
