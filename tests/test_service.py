"""End-to-end proofs for the experiment service.

The central contract (ISSUE 10's acceptance criterion): a
``SweepResult`` fetched through the HTTP API — cold store, warm store,
or a resubmission after editing one cell of the grid — has
``deterministic_rows()`` and deterministic-view telemetry exactly equal
to an uncached in-process ``run_sweep(jobs=1)``, with warm results
byte-identical (timing included) to the run that populated the store,
and the edited resubmission re-solving *only* the dirty cells (proved
via ``scenario_builds_total`` and store hit/miss counters).
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from repro.experiments import (
    ExecutionConfig,
    ExperimentSpec,
    ParameterAxis,
    SweepPlan,
    plan_from_dict,
    plan_to_dict,
    run_sweep,
)
from repro.experiments.runner import _cell_config
from repro.experiments.serialization import (
    PLAN_FORMAT,
    execution_from_dict,
    execution_to_dict,
)
from repro.observability import metrics as obs
from repro.service import jobs as jobs_module
from repro.service import (
    JobManager,
    ResultStore,
    ServiceClient,
    ServiceError,
    serve,
)
from repro.utils import chaos

PLAN_KW = dict(num_cases=2, horizon=6, seed=3)
EXEC = ExecutionConfig(engine="lockstep", jobs=1, telemetry=True)

#: Execution values a JSON payload can carry that must be refused —
#: wrong-typed values, and a field the config no longer has; each must be
#: a ValueError naming its field (HTTP 400), never a TypeError (500) or a
#: silently truthy flag.
MALFORMED_EXECUTION = [
    ("jobs", "2"),
    ("jobs", True),
    ("cell_retries", None),
    ("worker_retries", 1.5),
    ("exact_solves", "no"),
    ("collect_timing", 0),
    ("telemetry", None),
    ("cell_timeout", "30"),
    ("cell_timeout", True),
]


def make_plan(values=(5, 6)):
    return SweepPlan.for_scenarios(
        ["thermal"],
        axes=(ParameterAxis("horizon", values),),
        execution=EXEC,
        **PLAN_KW,
    )


@pytest.fixture(scope="module")
def reference():
    """The uncached in-process jobs=1 run every service result must
    reproduce — after a warm-up sweep so in-process caches (scenario
    builder, monitor proofs, LP stacks) are in the same state for the
    reference and for every later service job."""
    run_sweep(make_plan((5, 6, 7)))
    return run_sweep(make_plan())


@pytest.fixture()
def service(tmp_path):
    """A live server over a fresh store + a client bound to it."""
    server = serve(tmp_path / "store", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url)
    finally:
        server.close()
        thread.join(timeout=10)


def counter_total(snapshot, name: str, **labels):
    return sum(
        entry["value"]
        for entry in (snapshot or {}).get("counters", {}).get(name, [])
        if all(entry["labels"].get(k) == v for k, v in labels.items())
    )


# ----------------------------------------------------------------------
# Plan serialisation
# ----------------------------------------------------------------------
class TestPlanSerialization:
    def test_roundtrip_preserves_cells_and_store_addresses(self):
        plan = make_plan()
        hop = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert [c.key for c in hop.cells()] == [
            c.key for c in plan.cells()
        ]
        # Identical reproducibility configs → identical store addresses.
        for ours, theirs in zip(plan.cells(), hop.cells()):
            assert _cell_config(ours, plan.execution) == _cell_config(
                theirs, hop.execution
            )

    def test_tuple_override_values_survive_the_json_hop(self):
        plan = SweepPlan(
            experiments=(
                ExperimentSpec(
                    scenario="thermal",
                    overrides={"disturbance_scale": (0.5, 1.5)},
                    **PLAN_KW,
                ),
            ),
        )
        hop = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert hop.experiments[0].overrides == (
            ("disturbance_scale", (0.5, 1.5)),
        )
        assert _cell_config(hop.cells()[0], hop.execution) == _cell_config(
            plan.cells()[0], plan.execution
        )

    def test_execution_roundtrips_every_field(self):
        execution = ExecutionConfig(
            engine="lockstep", jobs=3, exact_solves=True,
            telemetry=True, on_error="retry",
            cell_retries=2, cell_timeout=9.5, worker_retries=1,
        )
        assert execution_from_dict(
            execution_to_dict(execution)
        ) == execution

    def test_unknown_execution_field_rejected(self):
        with pytest.raises(ValueError, match="unknown execution fields"):
            execution_from_dict({"engine": "serial", "bogus": 1})

    @pytest.mark.parametrize("field, value", MALFORMED_EXECUTION)
    def test_malformed_execution_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            execution_from_dict({field: value})

    def test_removed_kernel_field_rejected(self):
        payload = plan_to_dict(make_plan())
        payload["execution"]["kernel"] = "numpy"
        with pytest.raises(
            ValueError, match=re.escape("unknown execution fields: ['kernel']")
        ):
            plan_from_dict(payload)

    def test_cell_config_has_no_kernel_key(self):
        plan = make_plan()
        assert "kernel" not in _cell_config(plan.cells()[0], plan.execution)

    def test_removed_lp_backend_field_rejected(self):
        with pytest.raises(
            ValueError,
            match=re.escape("unknown execution fields: ['lp_backend']"),
        ):
            execution_from_dict({"engine": "lockstep", "lp_backend": "scipy"})

    def test_cell_config_has_no_lp_backend_key(self):
        plan = make_plan()
        assert "lp_backend" not in _cell_config(
            plan.cells()[0], plan.execution
        )

    def test_removed_collect_timing_field_rejected(self):
        with pytest.raises(
            ValueError,
            match=re.escape("unknown execution fields: ['collect_timing']"),
        ):
            execution_from_dict({"engine": "lockstep", "collect_timing": True})
        plan = make_plan()
        assert "collect_timing" not in _cell_config(
            plan.cells()[0], plan.execution
        )

    def test_policies_do_not_serialise(self):
        plan = SweepPlan(
            experiments=(
                ExperimentSpec(
                    scenario="thermal",
                    approaches=("custom",),
                    policies={"custom": object()},
                ),
            ),
        )
        with pytest.raises(ValueError, match="policies"):
            plan_to_dict(plan)

    def test_format_version_mismatch_rejected(self):
        payload = plan_to_dict(make_plan())
        payload["format"] = PLAN_FORMAT + 1
        with pytest.raises(ValueError, match="unsupported plan format"):
            plan_from_dict(payload)


# ----------------------------------------------------------------------
# JobManager (in-process)
# ----------------------------------------------------------------------
class TestJobManager:
    def test_cold_job_equals_uncached_run_sweep(self, tmp_path, reference):
        manager = JobManager(tmp_path / "store")
        try:
            job = manager.submit_plan(make_plan())
            assert job.wait(timeout=300)
            assert job.state == "done"
            assert job.result.deterministic_rows() == (
                reference.deterministic_rows()
            )
            assert obs.deterministic_view(job.result.telemetry) == (
                obs.deterministic_view(reference.telemetry)
            )
            assert job.result.restored == []
        finally:
            manager.shutdown()

    def test_second_job_served_entirely_from_the_store(
        self, tmp_path, reference
    ):
        manager = JobManager(tmp_path / "store")
        try:
            first = manager.submit_plan(make_plan())
            second = manager.submit_plan(make_plan())
            assert second.wait(timeout=300)
            # Byte-identical (timing columns included): the rows *are*
            # the stored first-job rows.
            assert second.result.rows() == first.result.rows()
            assert second.result.restored == [
                cell.key for cell in make_plan().cells()
            ]
            assert second.status()["cells_restored"] == 2
            assert obs.deterministic_view(second.result.telemetry) == (
                obs.deterministic_view(reference.telemetry)
            )
        finally:
            manager.shutdown()

    def test_rows_feed_streams_with_cursor(self, tmp_path):
        manager = JobManager(tmp_path / "store")
        try:
            job = manager.submit_plan(make_plan())
            assert job.wait(timeout=300)
            rows, cursor = job.rows_since(0)
            assert cursor == len(rows) == 6  # 2 cells x 3 approaches
            more, cursor2 = job.rows_since(cursor)
            assert more == [] and cursor2 == cursor
            tail, _ = job.rows_since(3)
            assert tail == rows[3:]
        finally:
            manager.shutdown()

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path / "store")
        try:
            running = manager.submit_plan(make_plan())
            queued = manager.submit_plan(make_plan((7, 8)))
            assert manager.cancel(queued.id)
            assert queued.wait(timeout=10)
            assert queued.state == "cancelled"
            assert running.wait(timeout=300)
            assert running.state == "done"
            # Terminal jobs cannot be re-cancelled.
            assert not manager.cancel(queued.id)
            assert not manager.cancel(running.id)
        finally:
            manager.shutdown()

    def test_cancel_running_job_stops_at_cell_boundary(self, tmp_path):
        manager = JobManager(tmp_path / "store")
        try:
            # Stall the second cell so the cancel deterministically
            # lands while the job is mid-grid.
            stall = chaos.FaultPlan(
                cell_delays=(
                    chaos.CellDelay(key="thermal@horizon=6", seconds=2.0),
                )
            )
            with chaos.inject(stall):
                job = manager.submit_plan(make_plan())
                while job.status()["cells_done"] < 1:
                    assert not job.done, job.status()
                assert job.cancel()
                assert job.wait(timeout=60)
            assert job.state == "cancelled"
            # The first cell's record survived into the shared store.
            store = manager.store
            config = _cell_config(make_plan().cells()[0], EXEC)
            assert store.contains("thermal@horizon=5", config)
        finally:
            manager.shutdown()

    def test_invalid_payload_rejected_on_submit(self, tmp_path):
        manager = JobManager(tmp_path / "store")
        try:
            with pytest.raises(ValueError):
                manager.submit({"format": 99, "experiments": []})
            with pytest.raises(ValueError):
                manager.submit({"experiments": []})
        finally:
            manager.shutdown()

    def test_shutdown_rejects_new_jobs(self, tmp_path):
        manager = JobManager(tmp_path / "store")
        manager.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit_plan(make_plan())

    def test_oldest_finished_jobs_are_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        manager = JobManager(tmp_path / "store")
        try:
            first = manager.submit_plan(make_plan((5,)))
            assert first.wait(timeout=300)
            # Stall the third job's cell so it is still live when the
            # second one finishes and triggers an eviction pass.
            stall = chaos.FaultPlan(
                cell_delays=(
                    chaos.CellDelay(key="thermal@horizon=7", seconds=2.0),
                )
            )
            with chaos.inject(stall):
                second = manager.submit_plan(make_plan((6,)))
                third = manager.submit_plan(make_plan((7,)))
                assert second.wait(timeout=300)
                _wait_evicted(manager, first.id)
                # Unfinished jobs are never evicted.
                assert not third.done
                assert manager.get(third.id) is third
                assert manager.get(second.id) is second
                assert third.wait(timeout=300)
            _wait_evicted(manager, second.id)
            assert manager.jobs() == [third]
        finally:
            manager.shutdown()


def _wait_evicted(manager, job_id, timeout=30.0):
    """Poll until ``job_id`` is gone (eviction runs after the job's
    terminal state is published)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            manager.get(job_id)
        except KeyError:
            return
        time.sleep(0.01)
    raise AssertionError(f"{job_id} was not evicted")


# ----------------------------------------------------------------------
# HTTP API: the service determinism proof
# ----------------------------------------------------------------------
class TestServiceHTTP:
    def test_cold_warm_and_edited_resubmit_determinism(
        self, service, reference
    ):
        # Hit/miss/put counters are cumulative over the server process
        # (other tests in this process count too) — assert differentials.
        stats0 = service.store_stats()

        # --- cold: every cell solved server-side ---------------------
        cold_id = service.submit(make_plan())
        status = service.wait(cold_id, timeout=300)
        assert status["state"] == "done"
        assert status["cells_restored"] == 0
        cold = service.result(cold_id)
        assert cold.deterministic_rows() == reference.deterministic_rows()
        assert obs.deterministic_view(cold.telemetry) == (
            obs.deterministic_view(reference.telemetry)
        )

        # --- warm: resubmitting the identical grid is 100% store-hits
        warm_id = service.submit(plan_to_dict(make_plan()))
        status = service.wait(warm_id, timeout=300)
        assert status["cells_restored"] == status["cells_total"] == 2
        warm = service.result(warm_id)
        # Byte-identical to the run that populated the store — timing
        # columns included — and equal to the uncached reference in the
        # deterministic view.
        assert warm.rows() == cold.rows()
        assert warm.deterministic_rows() == reference.deterministic_rows()
        assert obs.deterministic_view(warm.telemetry) == (
            obs.deterministic_view(reference.telemetry)
        )
        # Each warm cell evaluated no scenario at all: builds appear
        # only in the (restored) stored snapshots, in the same counts
        # as the reference run.
        assert counter_total(
            warm.telemetry, "scenario_builds_total"
        ) == counter_total(reference.telemetry, "scenario_builds_total")

        # --- edited resubmit: only the dirty cell re-solves ----------
        edited_id = service.submit(make_plan((5, 7)))  # 6 → 7: one edit
        status = service.wait(edited_id, timeout=300)
        assert status["state"] == "done"
        assert status["cells_restored"] == 1  # horizon=5 from the store
        edited = service.result(edited_id)
        assert edited.restored == ["thermal@horizon=5"]
        ref_edited = run_sweep(make_plan((5, 7)))
        assert edited.deterministic_rows() == (
            ref_edited.deterministic_rows()
        )
        assert obs.deterministic_view(edited.telemetry) == (
            obs.deterministic_view(ref_edited.telemetry)
        )
        # Store-level differential: the edited job probed 2 addresses
        # and missed exactly the dirty one.
        stats = service.store_stats()
        assert stats["files"] == 3  # horizon 5, 6, 7
        assert stats["hits"] - stats0["hits"] == 3  # 2 warm + 1 edited
        assert (
            stats["misses"] - stats0["misses"] == 3
        )  # 2 cold + 1 edited (dirty cell)
        assert stats["puts"] - stats0["puts"] == 3  # every miss re-solved

    def test_status_rows_and_listing_routes(self, service):
        job_id = service.submit(make_plan())
        status = service.wait(job_id, timeout=300)
        assert status["id"] == job_id
        assert status["cells_done"] == status["cells_total"] == 2
        rows, cursor, state = service.rows(job_id)
        assert state == "done" and cursor == 6
        assert [row["key"] for row in rows] == [
            row["key"] for row in service.result(job_id).rows()
        ]
        # Cursor resumes mid-feed.
        tail, cursor2, _ = service.rows(job_id, cursor=4)
        assert tail == rows[4:] and cursor2 == 6
        listing = service.jobs()
        assert [job["id"] for job in listing] == [job_id]
        assert service.health() == {"status": "ok"}

    def test_error_routes(self, service):
        with pytest.raises(ServiceError) as info:
            service.status("job-999")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            service.submit({"experiments": []})
        assert info.value.status == 400
        job_id = service.submit(make_plan())
        # Result before completion is a 409 (the job may legitimately
        # finish first on a fast box; accept either outcome).
        try:
            service.result(job_id)
        except ServiceError as exc:
            assert exc.status == 409
        service.wait(job_id, timeout=300)
        with pytest.raises(ServiceError) as info:
            service._request("GET", "/v1/nope")
        assert info.value.status == 404

    @pytest.mark.parametrize(
        "field, value",
        MALFORMED_EXECUTION
        + [
            ("kernel", "numpy"),
            ("lp_backend", "scipy"),
            ("engine", "parallel"),
            ("shard", "cell"),
        ],
    )
    def test_malformed_execution_is_400(self, service, field, value):
        payload = plan_to_dict(make_plan())
        payload["execution"][field] = value
        with pytest.raises(ServiceError) as info:
            service.submit(payload)
        assert info.value.status == 400
        assert field in str(info.value)

    def test_evicted_job_is_404(self, service, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        first = service.submit(make_plan())
        assert service.wait(first, timeout=300)["state"] == "done"
        second = service.submit(make_plan())
        assert service.wait(second, timeout=300)["state"] == "done"
        deadline = time.monotonic() + 30
        while True:
            try:
                service.status(first)
            except ServiceError as exc:
                assert exc.status == 404
                break
            assert time.monotonic() < deadline, "first job never evicted"
            time.sleep(0.01)
        assert service.status(second)["state"] == "done"
        assert [job["id"] for job in service.jobs()] == [second]

    def test_cancel_route(self, service):
        first = service.submit(make_plan())
        queued = service.submit(make_plan((7, 8)))
        payload = service.cancel(queued)
        assert payload["cancelled"] is True
        assert service.wait(queued, timeout=30)["state"] == "cancelled"
        assert service.wait(first, timeout=300)["state"] == "done"


# ----------------------------------------------------------------------
# Shared-store concurrency: two managers + a checkpointed sweep
# ----------------------------------------------------------------------
class TestSharedStoreConcurrency:
    def test_two_managers_and_a_checkpointed_sweep_share_one_store(
        self, tmp_path, reference
    ):
        store_dir = tmp_path / "store"
        managers = [JobManager(store_dir) for _ in range(2)]
        try:
            # Both managers race the same grid into one store while a
            # checkpointed sweep of the same plan runs in this thread —
            # three concurrent writers of the same two addresses.
            jobs = [m.submit_plan(make_plan()) for m in managers]
            swept = run_sweep(make_plan(), checkpoint=str(store_dir))
            for job in jobs:
                assert job.wait(timeout=300)
                assert job.state == "done"
                assert job.result.deterministic_rows() == (
                    reference.deterministic_rows()
                )
            assert swept.deterministic_rows() == (
                reference.deterministic_rows()
            )
            # Last write wins, whole records only: both addresses hold
            # valid, loadable cells.
            store = ResultStore(store_dir)
            for cell in make_plan().cells():
                found, reason = store.lookup(
                    cell.key, _cell_config(cell, EXEC)
                )
                assert found is not None, reason
        finally:
            for manager in managers:
                manager.shutdown()


# ----------------------------------------------------------------------
# Warm-started LPs under concurrent jobs
# ----------------------------------------------------------------------
class TestWarmBackendThreads:
    def test_managers_share_one_warm_rmpc_controller(self, tmp_path):
        """Three executor threads (more than cores) drive the one cached
        RMPC controller at once, switching threads often.  Each thread
        solves on its own persistent HiGHS models (sharing them crashed
        the interpreter without a lock, and interleaved warm starts
        with one), so every job's rows are the same."""
        execution = ExecutionConfig(engine="lockstep", jobs=1, telemetry=True)
        plan = SweepPlan.for_scenarios(
            ["thermal"],
            axes=(ParameterAxis("horizon", tuple(range(5, 11))),),
            execution=execution,
            **PLAN_KW,
        )
        managers = [JobManager(tmp_path / f"store{i}") for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [manager.submit_plan(plan) for manager in managers]
            for job in jobs:
                assert job.wait(timeout=300)
                assert job.state == "done", job.error
                assert job.result.ok
                assert counter_total(
                    job.result.telemetry, "lp_solves_total",
                    path="persistent",
                ) > 0
                for row in job.result.rows():
                    assert row["max_violation"] <= 0.0
            rows = [job.result.deterministic_rows() for job in jobs]
            assert rows[0] == rows[1] == rows[2]
        finally:
            sys.setswitchinterval(interval)
            for manager in managers:
                manager.shutdown()
