"""The unified telemetry subsystem (`repro.observability`).

Gates the module's three load-bearing contracts:

* **bitwise transparency** — telemetry on/off never changes a
  deterministic record field or metric array, under the lockstep
  engine included;
* **fork composition** — a sharded ``jobs=2`` sweep's merged snapshot
  equals the in-process ``jobs=1`` snapshot exactly in the
  deterministic (non-wall-clock) view, and a worker dying mid-cell
  leaves the parent registry untouched;
* **single sink** — the legacy cache-stats shims and the per-cell
  solver-effort columns all read through the one registry.
"""

from __future__ import annotations

import io
import logging
import os

import numpy as np
import pytest

from repro import observability as obs
from repro.experiments import (
    ExecutionConfig,
    ExperimentSpec,
    ParameterAxis,
    SweepPlan,
    SweepResult,
    run_experiment,
    run_sweep,
)
from repro.observability import metrics as obs_metrics
from repro.utils.lp import STACK_CACHE_METRIC, BlockStack
from repro.utils.parallel import fork_map


# ----------------------------------------------------------------------
# Registry unit behaviour
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_with_labels(self):
        reg = obs.MetricsRegistry()
        reg.inc("events_total", event="hit")
        reg.inc("events_total", 2, event="hit")
        reg.inc("events_total", event="miss")
        assert reg.value("events_total", event="hit") == 3
        assert reg.value("events_total", event="miss") == 1
        assert reg.value("events_total", event="absent") == 0
        assert reg.total("events_total") == 4

    def test_total_matches_label_subset(self):
        reg = obs.MetricsRegistry()
        reg.inc("x", cache="owned", event="hit")
        reg.inc("x", cache="anonymous", event="hit")
        reg.inc("x", cache="owned", event="miss")
        assert reg.total("x", event="hit") == 2
        assert reg.total("x", cache="owned") == 2

    def test_gauge_last_write_wins(self):
        reg = obs.MetricsRegistry()
        reg.set_gauge("depth", 3, stage="a")
        reg.set_gauge("depth", 7, stage="a")
        snap = reg.snapshot()
        assert snap["gauges"]["depth"] == [
            {"labels": {"stage": "a"}, "value": 7}
        ]

    def test_histogram_buckets_are_cumulative(self):
        reg = obs.MetricsRegistry()
        reg.observe("batch_size", 3)
        reg.observe("batch_size", 100)
        entry = reg.snapshot()["histograms"]["batch_size"][0]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(103.0)
        assert entry["buckets"]["4"] == 1
        assert entry["buckets"]["128"] == 2
        assert entry["buckets"]["+Inf"] == 2

    def test_reset_by_name_keeps_other_metrics(self):
        reg = obs.MetricsRegistry()
        reg.inc("a_total")
        reg.inc("b_total")
        reg.reset("a_total")
        assert reg.value("a_total") == 0
        assert reg.value("b_total") == 1
        reg.reset()
        assert reg.snapshot(spans=False) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_span_records_only_when_enabled(self):
        reg = obs.MetricsRegistry(enabled=True)
        with reg.span("outer", cells=2):
            with reg.span("inner"):
                pass
        spans = reg.snapshot()["spans"]
        assert len(spans) == 1
        assert spans[0]["name"] == "outer"
        assert spans[0]["attributes"] == {"cells": 2}
        assert spans[0]["duration"] >= 0.0
        assert [child["name"] for child in spans[0]["children"]] == ["inner"]

        disabled = obs.MetricsRegistry(enabled=False)
        with disabled.span("outer"):
            pass
        assert disabled.snapshot()["spans"] == []


class TestMergeSnapshot:
    def test_counters_add_and_gauges_overwrite(self):
        src = obs.MetricsRegistry()
        src.inc("n_total", 2, kind="x")
        src.set_gauge("level", 5)
        dst = obs.MetricsRegistry()
        dst.inc("n_total", 1, kind="x")
        dst.set_gauge("level", 1)
        dst.merge_snapshot(src.snapshot())
        dst.merge_snapshot(src.snapshot())
        assert dst.value("n_total", kind="x") == 5
        assert dst.snapshot()["gauges"]["level"][0]["value"] == 5

    def test_histograms_decumulate_on_merge(self):
        src = obs.MetricsRegistry()
        src.observe("k", 3)
        src.observe("k", 100)
        snap = src.snapshot()
        dst = obs.MetricsRegistry()
        dst.observe("k", 3)
        dst.merge_snapshot(snap)
        dst.merge_snapshot(snap)
        entry = dst.snapshot()["histograms"]["k"][0]
        assert entry["count"] == 5
        assert entry["sum"] == pytest.approx(209.0)
        # 3 observations of 3 (le=4), 2 of 100 (le=128), cumulatively
        assert entry["buckets"]["4"] == 3
        assert entry["buckets"]["128"] == 5
        assert entry["buckets"]["+Inf"] == 5

    def test_merge_none_is_noop(self):
        dst = obs.MetricsRegistry()
        dst.merge_snapshot(None)
        dst.merge_snapshot({})
        assert dst.snapshot(spans=False) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestDeterministicView:
    def test_drops_wall_clock_metrics_and_spans(self):
        reg = obs.MetricsRegistry(enabled=True)
        reg.inc("solves_total")
        reg.inc("stage_seconds", 2)
        reg.observe("latency_ms", 1.0)
        with reg.span("sweep"):
            pass
        view = obs.deterministic_view(reg.snapshot())
        assert set(view) == {"counters", "gauges", "histograms"}
        assert "solves_total" in view["counters"]
        assert "stage_seconds" not in view["counters"]
        assert view["histograms"] == {}
        assert reg.deterministic_snapshot() == view


class TestScopedRegistry:
    def test_isolates_and_restores_ambient(self):
        ambient = obs.registry()
        before = ambient.value("scoped_probe_total")
        with obs.scoped_registry(enabled=True) as reg:
            assert obs.registry() is reg
            assert obs.telemetry_enabled()
            reg.inc("scoped_probe_total")
            assert reg.value("scoped_probe_total") == 1
        assert obs.registry() is ambient
        assert ambient.value("scoped_probe_total") == before

    def test_active_follows_enabled_flag(self):
        with obs.scoped_registry(enabled=False):
            assert obs_metrics.active() is None
        with obs.scoped_registry(enabled=True) as reg:
            assert obs_metrics.active() is reg

    def test_scopes_are_thread_local(self):
        # The service's job executor enters per-cell scopes on its own
        # thread while the submitting thread may hold scopes of its
        # own.  Scopes must be invisible across threads, and
        # interleaved enter/exit (thread A enters, B enters, A exits,
        # B exits) must never strand one thread's — possibly enabled —
        # scoped registry as the process ambient.
        import threading

        ambient = obs.registry()
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with obs.scoped_registry(enabled=True) as reg:
                seen["inside"] = obs.registry() is reg
                entered.set()
                release.wait(timeout=10)
            seen["after"] = obs.registry()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=10)
        # The worker's open scope is invisible here.
        assert obs.registry() is ambient
        assert not obs.telemetry_enabled()
        # Interleave: enter and exit a scope while the worker's is open.
        with obs.scoped_registry(enabled=False) as mine:
            assert obs.registry() is mine
        release.set()
        thread.join(timeout=10)
        assert seen["inside"]
        assert seen["after"] is ambient
        assert obs.registry() is ambient
        assert not obs.telemetry_enabled()


class TestRenderings:
    def test_prometheus_exposition(self):
        reg = obs.MetricsRegistry()
        reg.inc("hits_total", 2, cache="owned")
        reg.set_gauge("depth", 4)
        reg.observe("k", 3)
        text = obs.render_prometheus(reg.snapshot())
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{cache="owned"} 2' in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text
        assert "k_bucket{le=\"4\"} 1" in text
        assert "k_sum 3.0" in text
        assert "k_count 1" in text

    def test_table_renders_metrics_and_span_tree(self):
        reg = obs.MetricsRegistry(enabled=True)
        reg.inc("hits_total", 2, cache="owned")
        with reg.span("sweep", cells=1):
            pass
        text = obs.render_table(reg.snapshot())
        assert 'hits_total{cache="owned"}' in text
        assert "(counter)" in text
        assert "spans:" in text
        assert "- sweep:" in text
        assert obs.render_table(
            obs.MetricsRegistry().snapshot()
        ) == "(empty telemetry snapshot)\n"


# ----------------------------------------------------------------------
# Owned block-stack cache events in the registry
# ----------------------------------------------------------------------
class TestStackCacheMetric:
    def test_blockstack_events_reach_registry(self):
        with obs.scoped_registry():
            stack = BlockStack(np.eye(2))
            stack.stacked(3)
            stack.stacked(3)
            reg = obs.registry()
            assert reg.value(
                STACK_CACHE_METRIC, cache="owned", event="hit"
            ) == 1
            assert reg.value(
                STACK_CACHE_METRIC, cache="owned", event="miss"
            ) == 1
            reg.reset(STACK_CACHE_METRIC)
            assert reg.total(STACK_CACHE_METRIC) == 0


# ----------------------------------------------------------------------
# Engine integration: the hard bitwise contract + solver effort
# ----------------------------------------------------------------------
SPEC = dict(scenario="thermal", num_cases=3, horizon=8, seed=7)
SPEC_KW = {key: value for key, value in SPEC.items() if key != "scenario"}


def _metric_arrays(cell) -> dict:
    return {
        name: {m: v.tolist() for m, v in stats.metrics.items()}
        for name, stats in cell.approaches.items()
    }


@pytest.fixture(scope="module")
def warm_thermal():
    """Synthesise the thermal cell's sets and run one throwaway sweep so
    every in-process cache (builder, nesting proofs)
    is at steady state before any telemetry-equality assertion — forked
    workers inherit warm caches through the process image, so cold
    first runs would legitimately differ from sharded ones."""
    plan = SweepPlan.for_scenarios(
        ["thermal"], axes=(ParameterAxis("horizon", (5, 6)),),
        num_cases=SPEC["num_cases"], horizon=SPEC["horizon"],
        seed=SPEC["seed"],
    )
    run_sweep(plan, ExecutionConfig(engine="lockstep", jobs=1))
    run_experiment(ExperimentSpec(**SPEC), ExecutionConfig(engine="lockstep"))
    return plan


class TestTelemetryTransparency:
    def test_lockstep_records_bitwise_identical(self, warm_thermal):
        spec = ExperimentSpec(**SPEC)
        plain = run_experiment(
            spec, ExecutionConfig(engine="lockstep", telemetry=False)
        )
        instrumented = run_experiment(
            spec, ExecutionConfig(engine="lockstep", telemetry=True)
        )
        assert _metric_arrays(plain) == _metric_arrays(instrumented)
        assert plain.telemetry is None
        assert instrumented.telemetry is not None

    def test_structural_counters_record_even_when_disabled(self, warm_thermal):
        with obs.scoped_registry(enabled=False):
            run_experiment(
                ExperimentSpec(**SPEC), ExecutionConfig(engine="lockstep")
            )
            reg = obs.registry()
            assert reg.total("lockstep_kernel_dispatch_total") > 0
            assert reg.total("rmpc_solves_total") > 0
            assert reg.total("lockstep_steps_total") > 0
            # ... but the hot-path span tier stayed off.
            assert reg.snapshot()["spans"] == []


class TestShardedTelemetryMerge:
    def test_jobs2_snapshot_equals_jobs1(self, warm_thermal):
        results = {
            jobs: run_sweep(
                warm_thermal,
                ExecutionConfig(engine="lockstep", jobs=jobs, telemetry=True),
            )
            for jobs in (1, 2)
        }
        assert results[1].telemetry is not None
        assert obs.deterministic_view(
            results[2].telemetry
        ) == obs.deterministic_view(results[1].telemetry)
        # The sharded run's rows stay deterministic too.
        assert results[2].deterministic_rows() == results[1].deterministic_rows()

    def test_worker_death_leaves_deterministic_view_untouched(self):
        def die_on_one(i: int) -> int:
            if i == 1:
                os._exit(1)
            return i

        with obs.scoped_registry(enabled=True) as reg:
            reg.inc("parent_probe_total", 5)
            before = reg.deterministic_snapshot()
            with pytest.raises(RuntimeError):
                fork_map(die_on_one, range(3), jobs=2, backoff=0.0)
            # The dead workers' partial registries never merge; the only
            # trace of the deaths is the supervision counter (the item
            # dies deterministically, so both respawn budget slots were
            # spent), which the deterministic view excludes.
            assert reg.value("parent_probe_total") == 5
            assert reg.value("worker_respawns_total") == 2
            assert set(reg.snapshot()["counters"]) == {
                "parent_probe_total", "worker_respawns_total"
            }
            assert reg.deterministic_snapshot() == before


class TestSolverEffortColumns:
    @pytest.fixture(scope="class")
    def result(self, warm_thermal) -> SweepResult:
        return run_sweep(
            SweepPlan.for_scenarios(["thermal"], **SPEC_KW),
            ExecutionConfig(engine="lockstep"),
        )

    def test_rows_carry_solver_effort(self, result):
        rows = {
            (row["scenario"], row["approach"]): row for row in result.rows()
        }
        baseline = rows[("thermal", "baseline")]
        assert baseline["solve_count"] > 0
        assert (
            baseline["scalar_solves"] + baseline["stacked_solves"]
            == baseline["solve_count"]
        )
        assert baseline["lp_backend_used"] in ("scipy", "highs")
        # Uninstrumented controllers report no effort, not zero effort.
        bang_bang = rows[("thermal", "bang_bang")]
        assert bang_bang["lp_backend_used"] is None

    def test_csv_round_trip_preserves_solver_columns(self, result, tmp_path):
        path = str(tmp_path / "rows.csv")
        result.to_csv(path)
        back = SweepResult.from_csv(path)
        assert back.rows() == result.rows()

    def test_json_round_trip_preserves_solver_and_telemetry(
        self, warm_thermal, tmp_path
    ):
        swept = run_sweep(
            SweepPlan.for_scenarios(["thermal"], **SPEC_KW),
            ExecutionConfig(engine="lockstep", telemetry=True),
        )
        path = str(tmp_path / "sweep.json")
        swept.to_json(path)
        back = SweepResult.from_json(path)
        assert back.rows() == swept.rows()
        assert obs.deterministic_view(
            back.telemetry
        ) == obs.deterministic_view(swept.telemetry)


# ----------------------------------------------------------------------
# Satellite: logging wiring
# ----------------------------------------------------------------------
class TestLogging:
    def test_verbosity_levels(self):
        stream = io.StringIO()
        logger = obs.configure_logging(0, stream=stream)
        assert logger.name == obs.LOGGER_NAMESPACE
        assert logger.level == logging.WARNING
        assert obs.configure_logging(1, stream=stream).level == logging.INFO
        assert obs.configure_logging(2, stream=stream).level == logging.DEBUG

    def test_namespace_logger_emits_through_handler(self):
        stream = io.StringIO()
        obs.configure_logging(1, stream=stream)
        try:
            logging.getLogger("repro.observability.test").info("probe %d", 1)
            assert "INFO repro.observability.test: probe 1" in stream.getvalue()
        finally:
            obs.configure_logging(0)
