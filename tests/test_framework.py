"""Tests for the monitor, accounting and the Algorithm-1 loop."""

import numpy as np
import pytest

from repro.controllers import LinearFeedback, lqr_gain
from repro.framework import (
    IntermittentController,
    RunStats,
    SafetyMonitor,
    SafetyViolationError,
    StateClass,
    computation_saving,
    run_controller_only,
)
from repro.geometry import HPolytope
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import (
    AlwaysRunPolicy,
    AlwaysSkipPolicy,
    DecisionContext,
    PeriodicSkipPolicy,
    SkippingPolicy,
)


@pytest.fixture
def di_setup(double_integrator):
    """Double integrator + LQR + certified sets + monitor."""
    system = double_integrator
    K = lqr_gain(system.A, system.B, np.eye(2), np.eye(1))
    controller = LinearFeedback(K)
    seed = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed, system.disturbance_set
    ).invariant_set
    xp = strengthened_safe_set(system, xi)
    monitor = SafetyMonitor(
        strengthened_set=xp,
        invariant_set=xi,
        safe_set=system.safe_set,
    )
    return system, controller, monitor, xi, xp


class TestSafetyMonitor:
    def test_classification_levels(self, di_setup):
        _system, _controller, monitor, xi, xp = di_setup
        inner = xp.interior_point()
        assert monitor.classify(inner) is StateClass.STRENGTHENED
        assert monitor.may_skip(inner)

    def test_strict_violation_raises(self, di_setup):
        _system, _controller, monitor, _xi, _xp = di_setup
        with pytest.raises(SafetyViolationError):
            monitor.classify([100.0, 100.0])
        assert monitor.violations == 1

    def test_non_strict_reports(self, di_setup):
        system, _controller, _m, xi, xp = di_setup
        monitor = SafetyMonitor(
            strengthened_set=xp, invariant_set=xi,
            safe_set=system.safe_set, strict=False,
        )
        assert monitor.classify([100.0, 100.0]) is StateClass.UNSAFE_REGION
        assert monitor.violations == 1

    def test_rejects_non_nested_sets(self, di_setup):
        system, _controller, _m, xi, _xp = di_setup
        too_big = system.safe_set.scale(2.0)
        with pytest.raises(ValueError, match="subset"):
            SafetyMonitor(
                strengthened_set=too_big, invariant_set=xi,
                safe_set=system.safe_set,
            )

    def test_admissible_initial(self, di_setup):
        _system, _controller, monitor, xi, _xp = di_setup
        assert monitor.admissible_initial(xi.interior_point())
        assert not monitor.admissible_initial([100.0, 0.0])

    def test_classify_batch_matches_scalar(self, di_setup, rng):
        system, _controller, monitor, xi, xp = di_setup
        relaxed = SafetyMonitor(
            strengthened_set=xp, invariant_set=xi,
            safe_set=system.safe_set, strict=False,
        )
        cloud = rng.uniform(-6.0, 6.0, size=(40, 2))
        batch = relaxed.classify_batch(cloud)
        batch_violations = relaxed.violations
        scalar_monitor = SafetyMonitor(
            strengthened_set=xp, invariant_set=xi,
            safe_set=system.safe_set, strict=False,
        )
        scalar = [scalar_monitor.classify(x) for x in cloud]
        assert batch == scalar
        assert batch_violations == scalar_monitor.violations

    def test_classify_batch_strict_raises_at_first_unsafe(self, di_setup):
        system, _controller, _m, xi, xp = di_setup
        monitor = SafetyMonitor(
            strengthened_set=xp, invariant_set=xi, safe_set=system.safe_set
        )
        inside = xp.interior_point()
        states = np.vstack([inside, [100.0, 100.0], [200.0, 200.0]])
        with pytest.raises(SafetyViolationError):
            monitor.classify_batch(states)
        # Sequential contract: the loop stops at the first violation, so
        # exactly one is counted even with a second unsafe row queued.
        assert monitor.violations == 1

    def test_classify_batch_nonstrict_counts_every_violation(self, di_setup):
        system, _controller, _m, xi, xp = di_setup
        monitor = SafetyMonitor(
            strengthened_set=xp, invariant_set=xi,
            safe_set=system.safe_set, strict=False,
        )
        states = np.vstack(
            [xp.interior_point(), [100.0, 100.0], [-50.0, 0.0], [200.0, 200.0]]
        )
        classes = monitor.classify_batch(states)
        assert classes[0] is StateClass.STRENGTHENED
        assert classes[1:] == [StateClass.UNSAFE_REGION] * 3
        assert monitor.violations == 3
        # A second batch keeps accumulating on the same counter.
        monitor.classify_batch(states[1:])
        assert monitor.violations == 6


    @pytest.mark.parametrize("strict", [True, False])
    def test_classify_batch_strengthened_wins_at_tolerance_boundary(self, strict):
        # X' pokes 5e-8 past XI, inside the nesting proof's tolerance.  A
        # state 1.4e-7 past XI's facet passes the X' test (9e-8 <= tol)
        # but fails the XI test (1.4e-7 > tol): Algorithm 1 tests X'
        # first, so it is STRENGTHENED, not a violation.
        invariant = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        strengthened = HPolytope.from_box([-1.0 - 5e-8, -0.5], [1.0 + 5e-8, 0.5])
        monitor = SafetyMonitor(
            strengthened_set=strengthened, invariant_set=invariant,
            safe_set=invariant, strict=strict,
        )
        state = np.array([1.0 + 1.4e-7, 0.0])
        assert strengthened.contains(state, monitor.tol)
        assert not invariant.contains(state, monitor.tol)
        assert monitor.classify_batch([state, -state]) == [
            StateClass.STRENGTHENED, StateClass.STRENGTHENED
        ]
        assert monitor.classify(state) is StateClass.STRENGTHENED
        assert monitor.violations == 0


class TestNonStrictRunAccounting:
    """Forced-step and violation accounting when the certificate is wrong.

    A deliberately *uncertified* 'invariant' box lets trajectories escape,
    exercising the UNSAFE_REGION branch of Algorithm 1 under
    ``strict=False`` — previously untested.
    """

    @pytest.fixture
    def bad_certificate(self, double_integrator):
        system = double_integrator
        fake_xi = HPolytope.from_box([-0.5, -0.5], [0.5, 0.5])
        fake_xp = HPolytope.from_box([-0.25, -0.25], [0.25, 0.25])
        monitor = SafetyMonitor(
            strengthened_set=fake_xp, invariant_set=fake_xi,
            safe_set=system.safe_set, strict=False,
        )
        # Zero gain: the plant drifts on its own velocity, escaping the
        # fake XI within a few steps.
        controller = LinearFeedback(np.zeros((1, 2)))
        return system, controller, monitor

    def test_violation_counter_and_unsafe_forcing(self, bad_certificate):
        system, controller, monitor = bad_certificate
        horizon = 30
        stats = IntermittentController(
            system, controller, monitor, AlwaysSkipPolicy()
        ).run([0.4, 0.4], np.zeros((horizon, 2)))
        outside = ~monitor.invariant_set.contains_batch(stats.states[:-1])
        assert outside.any(), "trajectory should escape the fake XI"
        assert monitor.violations == int(outside.sum())
        # Every state outside X' (including every UNSAFE_REGION state)
        # forces z = 1 — the monitor never lets Ω decide there.
        outside_xp = ~monitor.strengthened_set.contains_batch(stats.states[:-1])
        np.testing.assert_array_equal(stats.forced, outside_xp)
        np.testing.assert_array_equal(stats.decisions[outside_xp], 1)
        assert stats.forced_steps == int(outside_xp.sum())

    def test_strict_monitor_raises_on_same_run(self, bad_certificate):
        system, controller, relaxed = bad_certificate
        strict_monitor = SafetyMonitor(
            strengthened_set=relaxed.strengthened_set,
            invariant_set=relaxed.invariant_set,
            safe_set=system.safe_set,
        )
        with pytest.raises(SafetyViolationError):
            IntermittentController(
                system, controller, strict_monitor, AlwaysSkipPolicy()
            ).run([0.4, 0.4], np.zeros((30, 2)))
        assert strict_monitor.violations == 1

    def test_max_violation_reflects_escape(self, bad_certificate):
        system, controller, monitor = bad_certificate
        stats = IntermittentController(
            system, controller, monitor, AlwaysSkipPolicy()
        ).run([0.4, 0.4], np.zeros((30, 2)))
        # Still inside the (true) safe set, so the safe-set violation is
        # negative while the fake invariant set was definitely violated.
        assert stats.max_violation(system.safe_set) <= 0.0
        assert stats.max_violation(monitor.invariant_set) > 0.0


class TestAccounting:
    def test_computation_saving_formula(self):
        # Paper Sec. IV-A numbers: T_k=0.12, T_mon=0.02, 79.4 skips / 100.
        saving = computation_saving(0.12, 0.02, 100, 79)
        expected = (0.12 * 100 - (0.02 * 100 + 0.12 * 21)) / (0.12 * 100)
        assert saving == pytest.approx(expected)
        assert 0.5 < saving < 0.7

    def test_computation_saving_no_skips_is_negative(self):
        assert computation_saving(0.1, 0.02, 100, 0) < 0

    def test_computation_saving_validates_steps(self):
        with pytest.raises(ValueError):
            computation_saving(0.1, 0.01, 0, 0)

    def test_run_stats_properties(self):
        stats = RunStats(
            states=np.zeros((4, 2)),
            inputs=np.array([[1.0], [0.0], [-2.0]]),
            decisions=np.array([1, 0, 1]),
            forced=np.array([False, False, True]),
            controller_seconds=np.array([0.01, 0.0, 0.02]),
            monitor_seconds=np.array([0.001, 0.001, 0.001]),
            disturbances=np.zeros((3, 2)),
        )
        assert stats.steps == 3
        assert stats.energy == pytest.approx(3.0)
        assert stats.skipped_steps == 1
        assert stats.skip_rate == pytest.approx(1 / 3)
        assert stats.forced_steps == 1
        assert stats.mean_controller_time == pytest.approx(0.015)
        assert stats.mean_monitor_time == pytest.approx(0.001)
        summary = stats.summary()
        assert summary["skipped"] == 1
        assert "computation_saving" in summary


class TestIntermittentController:
    def _disturbances(self, system, rng, steps=50):
        lo, hi = system.disturbance_set.bounding_box()
        return rng.uniform(lo, hi, size=(steps, system.n))

    def test_rejects_initial_outside_xi(self, di_setup, rng):
        system, controller, monitor, _xi, _xp = di_setup
        runner = IntermittentController(
            system, controller, monitor, AlwaysSkipPolicy()
        )
        with pytest.raises(ValueError, match="initial state"):
            runner.run([100.0, 0.0], self._disturbances(system, rng))

    def test_always_run_matches_controller_only(self, di_setup, rng):
        system, controller, monitor, xi, _xp = di_setup
        W = self._disturbances(system, rng)
        x0 = xi.interior_point()
        ours = IntermittentController(
            system, controller, monitor, AlwaysRunPolicy()
        ).run(x0, W)
        baseline = run_controller_only(system, controller, x0, W)
        np.testing.assert_allclose(ours.states, baseline.states, atol=1e-12)
        np.testing.assert_allclose(ours.inputs, baseline.inputs, atol=1e-12)
        assert ours.skipped_steps == 0

    def test_skip_applies_skip_input(self, di_setup, rng):
        system, controller, monitor, _xi, xp = di_setup
        W = np.zeros((3, 2))
        skip = np.array([0.25])
        runner = IntermittentController(
            system, controller, monitor, AlwaysSkipPolicy(), skip_input=skip
        )
        x0 = xp.interior_point()
        stats = runner.run(x0, W)
        skipped = stats.decisions == 0
        assert skipped.any()
        np.testing.assert_allclose(stats.inputs[skipped], 0.25)

    def test_monitor_forces_outside_strengthened(self, di_setup, rng):
        """Algorithm 1 line 8: z forced to 1 whenever x ∈ XI − X'."""
        system, controller, monitor, xi, xp = di_setup
        W = self._disturbances(system, rng, steps=100)
        # Start in XI but outside X': vertices of XI stick out of X'
        # whenever the inclusion is strict; nudge slightly inward so the
        # point is robustly inside XI.
        center = xi.interior_point()
        candidates = [
            center + 0.999 * (v - center) for v in xi.vertices()
        ] + list(xi.sample(rng, 200))
        for x0 in candidates:
            if xi.contains(x0) and not xp.contains(x0):
                break
        else:
            pytest.skip("no XI−X' sample found (sets almost equal)")
        stats = IntermittentController(
            system, controller, monitor, AlwaysSkipPolicy()
        ).run(x0, W)
        assert stats.forced[0]
        assert stats.decisions[0] == 1

    def test_theorem1_no_safety_violation(self, di_setup, rng):
        """Empirical Theorem 1: strict monitor never trips for any policy."""
        system, controller, monitor, xi, _xp = di_setup
        policies = [
            AlwaysSkipPolicy(),
            AlwaysRunPolicy(),
            PeriodicSkipPolicy(period=3),
        ]
        for policy in policies:
            runner = IntermittentController(system, controller, monitor, policy)
            for x0 in xi.sample(rng, 4):
                stats = runner.run(x0, self._disturbances(system, rng, 120))
                assert system.safe_set.contains_batch(stats.states).all()

    def test_decision_context_contents(self, di_setup, rng):
        system, controller, monitor, _xi, xp = di_setup

        seen = []

        class Recorder(SkippingPolicy):
            def decide(self, context):
                seen.append(context)
                return 1

        W = self._disturbances(system, rng, steps=5)
        IntermittentController(
            system, controller, monitor, Recorder(), memory_length=3
        ).run(xp.interior_point(), W)
        assert len(seen) >= 1
        first = seen[0]
        assert first.time == 0
        assert first.past_disturbances.shape == (3, 2)
        np.testing.assert_allclose(first.past_disturbances[-1], W[0])
        np.testing.assert_allclose(first.past_disturbances[:2], 0.0)
        assert first.future_disturbances is None

    def test_reveal_future(self, di_setup, rng):
        system, controller, monitor, _xi, xp = di_setup

        futures = []

        class Recorder(SkippingPolicy):
            def decide(self, context):
                futures.append(context.future_disturbances)
                return 1

        W = self._disturbances(system, rng, steps=4)
        IntermittentController(
            system, controller, monitor, Recorder(), reveal_future=True
        ).run(xp.interior_point(), W)
        np.testing.assert_allclose(futures[0], W)
        assert futures[-1].shape[0] == 1

    def test_memory_window_is_exact_last_r(self, di_setup, rng):
        """With r > 1 the context must hold exactly w(t−r+1) … w(t),
        zero-padded before the episode start — at *every* step."""
        system, controller, monitor, _xi, xp = di_setup
        r, steps = 3, 8

        windows = []

        class Recorder(SkippingPolicy):
            def decide(self, context):
                windows.append((context.time, context.past_disturbances))
                return 1

        W = self._disturbances(system, rng, steps=steps)
        IntermittentController(
            system, controller, monitor, Recorder(), memory_length=r
        ).run(xp.interior_point(), W)
        assert [t for t, _ in windows] == list(range(steps))
        for t, window in windows:
            assert window.shape == (r, system.n)
            padded = np.vstack([np.zeros((r, system.n)), W[: t + 1]])
            np.testing.assert_array_equal(window, padded[-r:])

    def test_reveal_future_is_exact_suffix(self, di_setup, rng):
        """With reveal_future the context must hold exactly w(t) … w(T−1)."""
        system, controller, monitor, _xi, xp = di_setup
        steps = 6

        futures = []

        class Recorder(SkippingPolicy):
            def decide(self, context):
                futures.append((context.time, context.future_disturbances))
                return 1

        W = self._disturbances(system, rng, steps=steps)
        IntermittentController(
            system, controller, monitor, Recorder(), reveal_future=True
        ).run(xp.interior_point(), W)
        assert [t for t, _ in futures] == list(range(steps))
        for t, future in futures:
            np.testing.assert_array_equal(future, W[t:])

    def test_reveal_future_with_memory_window_combined(self, di_setup, rng):
        system, controller, monitor, _xi, xp = di_setup

        contexts = []

        class Recorder(SkippingPolicy):
            def decide(self, context):
                contexts.append(context)
                return 1

        W = self._disturbances(system, rng, steps=5)
        IntermittentController(
            system, controller, monitor, Recorder(),
            memory_length=2, reveal_future=True,
        ).run(xp.interior_point(), W)
        last = contexts[-1]
        np.testing.assert_array_equal(last.past_disturbances, W[3:5])
        np.testing.assert_array_equal(last.future_disturbances, W[4:])

    def test_observe_hook_called_when_learning(self, di_setup, rng):
        system, controller, monitor, _xi, xp = di_setup

        calls = []

        class Learner(AlwaysSkipPolicy):
            def observe(self, context, decision, forced, next_state, applied_input):
                calls.append((context.time, decision, forced))

        W = self._disturbances(system, rng, steps=6)
        IntermittentController(system, controller, monitor, Learner()).run(
            xp.interior_point(), W, learn=True
        )
        assert len(calls) == 6

    def test_memory_length_validation(self, di_setup):
        system, controller, monitor, _xi, _xp = di_setup
        with pytest.raises(ValueError):
            IntermittentController(
                system, controller, monitor, AlwaysSkipPolicy(), memory_length=0
            )
