"""Differential proofs for the fault-tolerant sweep stack.

Every recovery path — worker SIGKILL, cell exception, hung-cell
timeout, solver-backend failure, checkpoint resume — is exercised via
the deterministic fault-injection harness (:mod:`repro.utils.chaos`)
and proved by comparison against an unfaulted reference run: the
recovered sweep's ``deterministic_rows()`` and merged telemetry (in the
deterministic view) must equal the reference exactly, because recovery
re-runs pure cell computations from unchanged parent state and discards
every failed attempt's partial telemetry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.controllers.rmpc import RMPCInfeasibleError
from repro.experiments import (
    CellFailure,
    CellResult,
    ExecutionConfig,
    ParameterAxis,
    SweepCheckpoint,
    SweepPlan,
    SweepResult,
    run_sweep,
)
from repro.experiments.result import ApproachResult, cell_to_dict
from repro.observability import metrics as obs
from repro.utils import chaos
from repro.utils.lp import LPError
from repro.utils.parallel import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="no fork start method"
)

PLAN_KW = dict(num_cases=2, horizon=6, seed=3)
AXIS = ParameterAxis("horizon", (5, 6, 7, 8))
#: The grid cell every fault below targets (pending index 1 / slot 1).
K_CELL = "thermal@horizon=6"

LOCKSTEP_1 = ExecutionConfig(engine="lockstep", jobs=1, telemetry=True)


def counter_total(snapshot, name: str):
    """Sum a counter across label sets in a raw snapshot dict."""
    return sum(
        entry["value"]
        for entry in (snapshot or {}).get("counters", {}).get(name, [])
    )


def rows_without_cell(result: SweepResult, key: str):
    return [
        row
        for row in result.deterministic_rows()
        if not row["key"].startswith(key + "/")
    ]


@pytest.fixture(scope="module")
def plan():
    """The 4-cell grid, with every in-process cache warmed first so a
    forked worker and the in-process reference see identical cache
    state (cold first builds would legitimately differ)."""
    plan = SweepPlan.for_scenarios(["thermal"], axes=(AXIS,), **PLAN_KW)
    run_sweep(plan, ExecutionConfig(engine="lockstep", jobs=1))
    return plan


@pytest.fixture(scope="module")
def reference(plan):
    """The unfaulted jobs=1 run every recovery must reproduce."""
    return run_sweep(plan, LOCKSTEP_1)


# ----------------------------------------------------------------------
# Fault class 1: worker SIGKILL (OOM stand-in)
# ----------------------------------------------------------------------
class TestWorkerKillRecovery:
    def test_killed_worker_sweep_equals_jobs1(self, plan, reference):
        fault = chaos.FaultPlan(worker_kills=(chaos.WorkerKill(item=1),))
        with chaos.inject(fault):
            faulted = run_sweep(
                plan,
                ExecutionConfig(engine="lockstep", jobs=2, telemetry=True),
            )
        assert faulted.ok
        assert faulted.deterministic_rows() == reference.deterministic_rows()
        # Exactly one death: the dead worker's partial registry never
        # merged (it died before snapshotting) and its cells were
        # re-run once on the respawned worker.
        assert counter_total(faulted.telemetry, "worker_respawns_total") == 1
        # Merged telemetry equals the undisturbed jobs=1 run in the
        # deterministic view (which excludes the respawn counter).
        assert obs.deterministic_view(faulted.telemetry) == (
            obs.deterministic_view(reference.telemetry)
        )

    def test_kill_exhaustion_records_worker_failure(self, plan, reference):
        fault = chaos.FaultPlan(
            worker_kills=tuple(
                chaos.WorkerKill(item=1, generation=g) for g in (1, 2, 3)
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(
                    engine="lockstep", jobs=2, telemetry=True,
                    on_error="record",
                ),
            )
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.key == K_CELL
        assert failure.stage == "worker"
        assert failure.error_type == "WorkerFailure"
        assert "gave up after 3 attempts" in failure.message
        assert len(result.cells) == 3
        assert result.deterministic_rows() == rows_without_cell(
            reference, K_CELL
        )
        assert (
            counter_total(result.telemetry, "sweep_cell_failures_total") == 1
        )

    def test_kill_exhaustion_aborts_under_fail(self, plan):
        fault = chaos.FaultPlan(
            worker_kills=tuple(
                chaos.WorkerKill(item=1, generation=g) for g in (1, 2, 3)
            )
        )
        with chaos.inject(fault):
            with pytest.raises(RuntimeError, match="gave up"):
                run_sweep(plan, ExecutionConfig(engine="lockstep", jobs=2))


# ----------------------------------------------------------------------
# Fault class 2: cell exceptions under the on_error policies
# ----------------------------------------------------------------------
class TestCellFaultModes:
    def test_fail_mode_aborts_with_cell_context(self, plan):
        fault = chaos.FaultPlan(
            cell_faults=(
                chaos.CellFault(key=K_CELL, error=RMPCInfeasibleError),
            )
        )
        with chaos.inject(fault):
            with pytest.raises(RMPCInfeasibleError, match=K_CELL):
                run_sweep(plan, ExecutionConfig(engine="lockstep", jobs=1))

    def test_record_mode_keeps_surviving_cells(
        self, plan, reference, tmp_path
    ):
        fault = chaos.FaultPlan(
            cell_faults=(
                chaos.CellFault(key=K_CELL, error=RMPCInfeasibleError),
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(
                    engine="lockstep", jobs=2, telemetry=True,
                    on_error="record",
                ),
            )
        assert not result.ok
        assert len(result.cells) == 3
        [failure] = result.failures
        assert failure.key == K_CELL
        assert failure.scenario == "thermal"
        assert failure.coords == (("horizon", "6"),)
        assert failure.error_type == "RMPCInfeasibleError"
        assert failure.stage == "cell"
        assert failure.attempts == 1
        assert "chaos: injected" in failure.message
        # The surviving cells are exactly the reference minus the
        # failed cell, and the failure counter is deterministic-excluded.
        assert result.deterministic_rows() == rows_without_cell(
            reference, K_CELL
        )
        assert (
            counter_total(result.telemetry, "sweep_cell_failures_total") == 1
        )
        assert "sweep_cell_failures_total" not in (
            obs.deterministic_view(result.telemetry)["counters"]
        )
        # Failures round-trip through the JSON form.
        path = tmp_path / "faulted.json"
        result.to_json(path)
        loaded = SweepResult.from_json(path)
        assert not loaded.ok
        assert loaded.failures[0] == failure
        assert loaded.deterministic_rows() == result.deterministic_rows()

    def test_retry_mode_recovers_bitwise(self, plan, reference):
        fault = chaos.FaultPlan(
            cell_faults=(
                chaos.CellFault(
                    key=K_CELL, error=RMPCInfeasibleError, attempts=(1,)
                ),
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(
                    engine="lockstep", jobs=2, telemetry=True,
                    on_error="retry",
                ),
            )
        assert result.ok
        assert result.deterministic_rows() == reference.deterministic_rows()
        # The failed first attempt left no telemetry behind; the only
        # trace is the (deterministic-excluded) retry counter.
        assert counter_total(result.telemetry, "cell_retries_total") == 1
        assert obs.deterministic_view(result.telemetry) == (
            obs.deterministic_view(reference.telemetry)
        )

    def test_retry_budget_exhaustion_records(self, plan, reference):
        fault = chaos.FaultPlan(
            cell_faults=(
                chaos.CellFault(
                    key=K_CELL, error=RMPCInfeasibleError, attempts=(1, 2, 3)
                ),
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(
                    engine="lockstep", jobs=1, on_error="retry",
                    cell_retries=1,
                ),
            )
        [failure] = result.failures
        assert failure.attempts == 2  # 1 + cell_retries
        assert result.deterministic_rows() == rows_without_cell(
            reference, K_CELL
        )

    def test_unrecoverable_error_aborts_even_under_record(self, plan):
        # The taxonomy boundary: a TypeError is a bug in the sweep, not
        # a recoverable cell condition, whatever the policy says.
        fault = chaos.FaultPlan(
            cell_faults=(chaos.CellFault(key=K_CELL, error=TypeError),)
        )
        with chaos.inject(fault):
            with pytest.raises(TypeError, match="chaos"):
                run_sweep(
                    plan,
                    ExecutionConfig(
                        engine="lockstep", jobs=1, on_error="record"
                    ),
                )


# ----------------------------------------------------------------------
# Fault class 3: hung cell vs the per-cell timeout
# ----------------------------------------------------------------------
class TestCellTimeoutRecovery:
    def test_hung_cell_killed_and_recovered(self, plan, reference):
        fault = chaos.FaultPlan(
            cell_delays=(chaos.CellDelay(key=K_CELL, seconds=30.0),)
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(
                    engine="lockstep", jobs=2, telemetry=True,
                    cell_timeout=2.0,
                ),
            )
        assert result.ok
        assert result.deterministic_rows() == reference.deterministic_rows()
        assert counter_total(result.telemetry, "worker_respawns_total") == 1
        assert obs.deterministic_view(result.telemetry) == (
            obs.deterministic_view(reference.telemetry)
        )

    def test_persistent_hang_records_worker_failure(self, plan, reference):
        fault = chaos.FaultPlan(
            cell_delays=(
                chaos.CellDelay(
                    key=K_CELL, seconds=30.0, generations=(1, 2)
                ),
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(
                    engine="lockstep", jobs=2, on_error="record",
                    cell_timeout=2.0, worker_retries=1,
                ),
            )
        [failure] = result.failures
        assert failure.key == K_CELL
        assert failure.stage == "worker"
        assert "hung past the 2s per-item timeout" in failure.message
        assert result.deterministic_rows() == rows_without_cell(
            reference, K_CELL
        )


# ----------------------------------------------------------------------
# Fault class 4: solver-backend failure -> scipy degradation
# ----------------------------------------------------------------------
class TestSolverDegradation:
    @pytest.fixture(scope="class")
    def serial_plan(self, plan):
        return SweepPlan.for_scenarios(
            ["thermal"], axes=(ParameterAxis("horizon", (6,)),), **PLAN_KW
        )

    @pytest.fixture(scope="class")
    def serial_reference(self, serial_plan):
        return run_sweep(serial_plan, ExecutionConfig(engine="serial"))

    def test_backend_error_degrades_to_exact_solves(
        self, serial_plan, serial_reference
    ):
        fault = chaos.FaultPlan(
            cell_faults=(chaos.CellFault(key=K_CELL, error=LPError),)
        )
        with chaos.inject(fault):
            result = run_sweep(
                serial_plan,
                ExecutionConfig(engine="serial", on_error="retry"),
            )
        assert result.ok
        # The scalar-solve serial engine is exact already, so the
        # degraded re-run reproduces the reference exactly; the cell's
        # config records that it ran on the scalar reference path.
        assert result.deterministic_rows() == (
            serial_reference.deterministic_rows()
        )
        assert result.cell(K_CELL).config["exact_solves"] is True

    def test_lockstep_backend_error_degrades_to_exact_solves(
        self, serial_plan, serial_reference
    ):
        # On the lockstep engine the degraded attempt leaves the stacked
        # (plan-equivalent) RMPC solve for the scalar one, so the
        # recovered cell equals the serial reference bitwise.
        fault = chaos.FaultPlan(
            cell_faults=(chaos.CellFault(key=K_CELL, error=LPError),)
        )
        with chaos.inject(fault):
            result = run_sweep(
                serial_plan,
                ExecutionConfig(engine="lockstep", on_error="retry"),
            )
        assert result.ok
        assert result.cell(K_CELL).config["exact_solves"] is True
        assert result.deterministic_rows() == (
            serial_reference.deterministic_rows()
        )

    def test_degradation_also_runs_before_recording(self, serial_plan):
        # Under on_error="record" a solver error still earns the single
        # exact_solves attempt (degrade-then-record); with the fault
        # firing on both attempts the failure carries both.
        fault = chaos.FaultPlan(
            cell_faults=(
                chaos.CellFault(
                    key=K_CELL, error=LPError, attempts=(1, 2)
                ),
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                serial_plan,
                ExecutionConfig(engine="serial", on_error="record"),
            )
        [failure] = result.failures
        assert failure.error_type == "LPError"
        assert failure.attempts == 2


# ----------------------------------------------------------------------
# Checkpoint/resume
# ----------------------------------------------------------------------
def _toy_cell(key: str = "toy@a=1", seed: int = 1) -> CellResult:
    metrics = {
        "energy": np.array([1.0, 2.0]),
        "skip_rate": np.array([0.5, 0.25]),
        "forced_steps": np.array([1.0, 0.0]),
        "max_violation": np.array([-0.1, -0.2]),
    }
    return CellResult(
        key=key,
        scenario="toy",
        coords=(("a", "1"),),
        config={"cases": 2, "seed": seed},
        approaches={
            "baseline": ApproachResult(
                metrics=metrics,
                mean_controller_ms=0.1,
                mean_monitor_ms=0.2,
            )
        },
    )


class TestSweepCheckpointUnit:
    def test_roundtrip(self, tmp_path):
        store = SweepCheckpoint(tmp_path / "ckpt")
        cell = _toy_cell()
        store.store_cell(cell)
        loaded = store.load(cell.key, cell.config)
        assert loaded is not None
        assert cell_to_dict(loaded) == cell_to_dict(cell)

    def test_missing_and_corrupt_files_resolve(self, tmp_path):
        store = SweepCheckpoint(tmp_path)
        cell = _toy_cell()
        assert store.load(cell.key, cell.config) is None
        store.store_cell(cell)
        with open(store.path_for(cell.key, cell.config), "w") as handle:
            handle.write("{not json")
        assert store.load(cell.key, cell.config) is None

    def test_config_mismatch_forces_resolve(self, tmp_path):
        store = SweepCheckpoint(tmp_path)
        store.store_cell(_toy_cell(seed=1))
        assert store.load("toy@a=1", {"cases": 2, "seed": 2}) is None
        assert store.load("toy@a=1", {"cases": 2, "seed": 1}) is not None

    def test_distinct_keys_never_collide(self, tmp_path):
        store = SweepCheckpoint(tmp_path)
        # Same sanitised prefix, different raw keys.
        config = {"cases": 2, "seed": 1}
        a, b = "cell one", "cell/one"
        assert store.path_for(a, config) != store.path_for(b, config)

    def test_corrupt_file_warns_and_counts(self, tmp_path, caplog):
        store = SweepCheckpoint(tmp_path)
        cell = _toy_cell()
        store.store_cell(cell)
        with open(store.path_for(cell.key, cell.config), "w") as handle:
            handle.write("{not json")
        with obs.scoped_registry(enabled=True) as reg:
            with caplog.at_level(
                "WARNING", logger="repro.experiments.checkpoint"
            ):
                assert store.load(cell.key, cell.config) is None
        assert "skipping unusable record" in caplog.text
        assert (
            reg.total("checkpoint_files_skipped_total", reason="corrupt")
            == 1
        )

    def test_tampered_envelope_counts_as_mismatch(self, tmp_path, caplog):
        import json

        store = SweepCheckpoint(tmp_path)
        cell = _toy_cell()
        path = store.store_cell(cell)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["key"] = "someone-else"
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        with obs.scoped_registry(enabled=True) as reg:
            with caplog.at_level(
                "WARNING", logger="repro.experiments.checkpoint"
            ):
                assert store.load(cell.key, cell.config) is None
        assert (
            reg.total("checkpoint_files_skipped_total", reason="mismatch")
            == 1
        )

    def test_format_version_mismatch_is_a_skip(self, tmp_path):
        import json

        store = SweepCheckpoint(tmp_path)
        cell = _toy_cell()
        path = store.store_cell(cell)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["format"] = 999  # a record from the future
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        with obs.scoped_registry(enabled=True) as reg:
            assert store.load(cell.key, cell.config) is None
        assert (
            reg.total("checkpoint_files_skipped_total", reason="mismatch")
            == 1
        )

    def test_absent_record_is_a_silent_cold_miss(self, tmp_path, caplog):
        store = SweepCheckpoint(tmp_path)
        with obs.scoped_registry(enabled=True) as reg:
            with caplog.at_level(
                "WARNING", logger="repro.experiments.checkpoint"
            ):
                assert store.load("never", {"cases": 2}) is None
        assert caplog.text == ""
        assert reg.total("checkpoint_files_skipped_total") == 0
        assert (
            reg.total(
                "result_store_events_total", event="miss", reason="absent"
            )
            == 1
        )


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_missing_cells_only(
        self, plan, reference, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        done = []

        def interrupt_after_two(cell):
            done.append(cell.key)
            if len(done) == 2:
                raise KeyboardInterrupt

        # First pass runs telemetry-OFF so the spilled cells carry no
        # snapshots: the resumed run's merged telemetry then counts
        # exactly the re-solved cells.
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                plan,
                ExecutionConfig(engine="lockstep", jobs=1),
                on_cell=interrupt_after_two,
                checkpoint=str(ckpt),
            )
        spilled = sorted(ckpt.glob("*.cell.json"))
        assert len(spilled) == 2

        resumed = run_sweep(plan, LOCKSTEP_1, checkpoint=str(ckpt))
        assert len(resumed.cells) == 4
        assert resumed.ok
        assert resumed.deterministic_rows() == reference.deterministic_rows()
        # Only the two missing cells were re-solved: each evaluated cell
        # touches the scenario builder exactly once, and the restored
        # cells contributed no snapshot.
        assert (
            counter_total(resumed.telemetry, "scenario_builds_total") == 2
        )
        # The restored-vs-solved split is first-class in the snapshot
        # (and on the result) — no more inferring it from build counts.
        assert counter_total(
            resumed.telemetry, "sweep_cells_restored_total"
        ) == 2
        assert counter_total(
            resumed.telemetry, "sweep_cells_solved_total"
        ) == 2
        assert len(resumed.restored) == 2
        # ... and the checkpoint is now complete.
        assert len(sorted(ckpt.glob("*.cell.json"))) == 4

    def test_complete_checkpoint_serves_all_cells(
        self, plan, reference, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        # First pass runs telemetry-OFF so the stored cells carry no
        # snapshots: any non-zero build count on resume would prove a
        # cell was re-solved.
        first = run_sweep(
            plan,
            ExecutionConfig(engine="lockstep", jobs=1),
            checkpoint=str(ckpt),
        )
        resumed = run_sweep(
            plan,
            ExecutionConfig(engine="lockstep", jobs=2, telemetry=True),
            checkpoint=str(ckpt),
        )
        assert (
            counter_total(resumed.telemetry, "scenario_builds_total") == 0
        )
        assert counter_total(
            resumed.telemetry, "sweep_cells_restored_total"
        ) == 4
        assert counter_total(
            resumed.telemetry, "sweep_cells_solved_total"
        ) == 0
        assert resumed.restored == [cell.key for cell in plan.cells()]
        assert resumed.deterministic_rows() == first.deterministic_rows()

    def test_stored_snapshots_restore_telemetry_faithfully(
        self, plan, reference, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        run_sweep(plan, LOCKSTEP_1, checkpoint=str(ckpt))
        resumed = run_sweep(plan, LOCKSTEP_1, checkpoint=str(ckpt))
        # Every cell came from the store, and the stored per-cell
        # snapshots merge back in grid order — so the resumed sweep's
        # telemetry still equals a fresh run's in the deterministic view.
        assert resumed.deterministic_rows() == reference.deterministic_rows()
        assert obs.deterministic_view(resumed.telemetry) == (
            obs.deterministic_view(reference.telemetry)
        )

    def test_sharded_sweep_checkpoints_through_the_stream(
        self, plan, reference, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        result = run_sweep(
            plan,
            ExecutionConfig(engine="lockstep", jobs=2),
            checkpoint=str(ckpt),
        )
        assert result.deterministic_rows() == reference.deterministic_rows()
        assert len(sorted(ckpt.glob("*.cell.json"))) == 4

    def test_failed_cells_are_not_checkpointed(self, plan, tmp_path):
        ckpt = tmp_path / "ckpt"
        fault = chaos.FaultPlan(
            cell_faults=(
                chaos.CellFault(key=K_CELL, error=RMPCInfeasibleError),
            )
        )
        with chaos.inject(fault):
            result = run_sweep(
                plan,
                ExecutionConfig(engine="lockstep", jobs=1, on_error="record"),
                checkpoint=str(ckpt),
            )
        assert len(result.failures) == 1
        assert len(sorted(ckpt.glob("*.cell.json"))) == 3
        # A later unfaulted resume re-solves exactly the failed cell.
        healed = run_sweep(plan, LOCKSTEP_1, checkpoint=str(ckpt))
        assert healed.ok
        assert len(healed.cells) == 4
        assert (
            counter_total(healed.telemetry, "scenario_builds_total") == 1
        )


# ----------------------------------------------------------------------
# Harness hygiene
# ----------------------------------------------------------------------
class TestChaosHarness:
    def test_inject_restores_previous_plan(self):
        outer = chaos.FaultPlan()
        with chaos.inject(outer):
            inner = chaos.FaultPlan(
                worker_kills=(chaos.WorkerKill(item=0),)
            )
            with chaos.inject(inner):
                assert chaos.active_plan() is inner
            assert chaos.active_plan() is outer
        assert chaos.active_plan() is None

    def test_hooks_are_noops_without_a_plan(self):
        assert chaos.active_plan() is None
        chaos.check_worker_kill(0, 0, 1)
        chaos.check_cell_fault("any", 1)
        chaos.check_cell_delay("any")

    def test_cell_fault_raises_ready_instance_as_is(self):
        boom = ValueError("pre-built")
        fault = chaos.FaultPlan(
            cell_faults=(chaos.CellFault(key="k", error=boom),)
        )
        with chaos.inject(fault):
            with pytest.raises(ValueError, match="pre-built"):
                chaos.check_cell_fault("k", 1)
            chaos.check_cell_fault("k", 2)  # wrong attempt: no fire
            chaos.check_cell_fault("other", 1)  # wrong key: no fire
