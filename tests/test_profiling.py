"""StageProfiler unit tests + lockstep stage-breakdown integration."""

import numpy as np
import pytest

from repro.controllers import LinearFeedback, lqr_gain
from repro.framework import SafetyMonitor, StageProfiler, run_lockstep
from repro.framework.lockstep import lockstep_controller_only
from repro.framework.profiling import active_profiler
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import PeriodicSkipPolicy


class TestStageProfiler:
    def test_add_accumulates_and_chains(self):
        profiler = StageProfiler()
        tick = profiler.tick()
        next_tick = profiler.add("classify", tick)
        assert next_tick >= tick
        profiler.add("classify", profiler.tick())
        assert profiler.calls("classify") == 2
        assert profiler.seconds("classify") >= 0.0
        assert profiler.stages == ("classify",)

    def test_charges_elapsed_time(self):
        import time

        profiler = StageProfiler()
        tick = profiler.tick()
        time.sleep(0.01)
        profiler.add("slow", tick)
        assert profiler.seconds("slow") >= 0.005

    def test_count_without_timing(self):
        profiler = StageProfiler()
        profiler.count("episodes", 7)
        assert profiler.calls("episodes") == 7
        assert profiler.seconds("episodes") == 0.0

    def test_report_shares_sum_to_one(self):
        profiler = StageProfiler()
        for stage in ("a", "b", "c"):
            tick = profiler.tick()
            profiler.add(stage, tick)
        report = profiler.report()
        assert set(report) == {"a", "b", "c"}
        assert sum(row["share"] for row in report.values()) == pytest.approx(1.0)
        for row in report.values():
            assert row["calls"] == 1
            assert row["seconds"] >= 0.0

    def test_empty_report(self):
        profiler = StageProfiler()
        assert profiler.report() == {}
        assert profiler.total_seconds() == 0.0
        assert profiler.seconds("never") == 0.0
        assert profiler.calls("never") == 0

    def test_merge_and_reset(self):
        left, right = StageProfiler(), StageProfiler()
        left.add("x", left.tick())
        right.add("x", right.tick())
        right.add("y", right.tick())
        left.merge(right)
        assert left.calls("x") == 2
        assert left.calls("y") == 1
        left.reset()
        assert left.stages == ()
        assert left.enabled

    def test_active_profiler_normalisation(self):
        enabled = StageProfiler()
        disabled = StageProfiler(enabled=False)
        assert active_profiler(enabled) is enabled
        assert active_profiler(disabled) is None
        assert active_profiler(None) is None

    def test_repr_mentions_stages(self):
        profiler = StageProfiler()
        profiler.add("classify", profiler.tick())
        assert "classify" in repr(profiler)
        assert "on" in repr(profiler)


@pytest.fixture
def di_setup(double_integrator):
    system = double_integrator
    K = lqr_gain(system.A, system.B, np.eye(2), np.eye(1))
    seed_set = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed_set, system.disturbance_set
    ).invariant_set
    xp = strengthened_safe_set(system, xi)
    controller = LinearFeedback(K)

    def monitors(count):
        return [
            SafetyMonitor(
                strengthened_set=xp, invariant_set=xi, safe_set=system.safe_set
            )
            for _ in range(count)
        ]

    rng = np.random.default_rng(42)
    states = xp.sample(np.random.default_rng(5), 4)
    lo, hi = system.disturbance_set.bounding_box()
    realisations = [rng.uniform(lo, hi, size=(20, system.n)) for _ in states]
    return system, controller, monitors, states, realisations


class TestLockstepProfiling:
    def test_numpy_path_reports_all_stages(self, di_setup):
        system, controller, monitors, states, realisations = di_setup
        profiler = StageProfiler()
        run_lockstep(
            system,
            controller,
            monitors(len(states)),
            [PeriodicSkipPolicy(2) for _ in states],
            states,
            realisations,
            profiler=profiler,
        )
        assert set(profiler.stages) == {"classify", "decide", "control", "step"}
        # every stage charged once per step
        assert profiler.calls("classify") == 20
        assert profiler.calls("step") == 20
        assert profiler.total_seconds() > 0.0

    def test_controller_only_reports_control_and_step(self, di_setup):
        system, controller, _monitors, states, realisations = di_setup
        profiler = StageProfiler()
        lockstep_controller_only(
            system, controller, states, realisations, profiler=profiler
        )
        assert set(profiler.stages) == {"control", "step"}

    def test_disabled_profiler_records_nothing(self, di_setup):
        system, controller, monitors, states, realisations = di_setup
        profiler = StageProfiler(enabled=False)
        run_lockstep(
            system,
            controller,
            monitors(len(states)),
            [PeriodicSkipPolicy(2) for _ in states],
            states,
            realisations,
            profiler=profiler,
        )
        assert profiler.stages == ()

    def test_profiler_does_not_change_records(self, di_setup):
        system, controller, monitors, states, realisations = di_setup
        plain = run_lockstep(
            system, controller, monitors(len(states)),
            [PeriodicSkipPolicy(2) for _ in states], states, realisations,
        )
        profiled = run_lockstep(
            system, controller, monitors(len(states)),
            [PeriodicSkipPolicy(2) for _ in states], states, realisations,
            profiler=StageProfiler(),
        )
        for a, b in zip(plain, profiled):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.decisions, b.decisions)
            assert np.array_equal(a.forced, b.forced)
