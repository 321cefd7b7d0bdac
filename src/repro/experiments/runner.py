"""Grid execution: materialise cells, run them, shard them over workers.

:func:`run_experiment` evaluates one :class:`ExperimentSpec`;
:func:`run_sweep` expands a :class:`SweepPlan` into grid cells and —
with ``jobs > 1`` and more than one pending cell — fans whole cells out
over :func:`repro.utils.parallel.fork_map` workers, lockstep (or
serial) *inside* each cell.

Determinism: a cell's metrics depend only on its spec (scenario +
overrides, seed, cases, horizon) and the engine tier — never on worker
scheduling — because every realisation is derived from the spec's seed
before any episode runs, and sharded cells must use stateless policies (enforced), so no policy
state can leak between cells of an in-process run either.
Sharding therefore reproduces the ``jobs=1`` run record-for-record; only
cross-*engine* comparisons of stacked-LP controllers drop to the
plan-equivalent tier (PR 4's contract; pass ``exact_solves=True`` for
record-for-record audits).

Workload dispatch: a spec with ``pattern=None`` runs the generic
scenario workload (i.i.d. disturbances from the scenario's ``W``,
Problem-1 energy); ``pattern="overall"``/``"ex1"``.. selects the ACC
pattern workload (front-vehicle realisations, fuel metric) — the shape
of the paper's own Sec.-IV evaluation.
"""

from __future__ import annotations

import logging
import re
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.controllers.rmpc import RMPCInfeasibleError
from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.execution import ExecutionConfig
from repro.experiments.plan import GridCell, SweepPlan
from repro.experiments.result import (
    ApproachResult,
    CellFailure,
    CellResult,
    ExperimentResult,
    SweepResult,
)
from repro.experiments.spec import (
    BASELINE,
    DEFAULT_APPROACHES,
    _BASELINE_RESERVED,
    ExperimentSpec,
)
from repro.framework.evaluation import paired_evaluation
from repro.observability import metrics as _obs
from repro.scenarios.spec import ScenarioSpec, ScenarioSynthesisError
from repro.skipping.base import AlwaysSkipPolicy, SkippingPolicy
from repro.skipping.heuristics import PeriodicSkipPolicy
from repro.utils import chaos
from repro.utils.lp import LPError
from repro.utils.parallel import fork_map, resolve_jobs

__all__ = ["run_experiment", "run_sweep", "RECOVERABLE_CELL_ERRORS"]

#: Exception classes a failing grid cell may raise that ``on_error``
#: policies absorb into :class:`CellFailure` records.  Anything outside
#: this set (a ``TypeError``, a bad spec) is a bug in the sweep itself
#: and always aborts, whatever the policy.
RECOVERABLE_CELL_ERRORS = (
    RMPCInfeasibleError,
    ScenarioSynthesisError,
    LPError,
    FloatingPointError,
    np.linalg.LinAlgError,
)

#: The subset for which the graceful-degradation chain applies: one
#: re-attempt with ``exact_solves=True`` (scalar solves) before recording.
_SOLVER_ERRORS = (LPError,)

logger = logging.getLogger(__name__)

_PERIODIC = re.compile(r"^periodic([1-9]\d*)$")

#: Per-case metric names of the generic workload (tuple order of the
#: metrics_of callable; the two wall-clock means follow).
_GENERIC_METRICS = ("energy", "skip_rate", "forced_steps", "max_violation")
_ACC_METRICS = ("fuel",) + _GENERIC_METRICS


@dataclass
class _Workload:
    """Everything :func:`paired_evaluation` needs for one cell."""

    case: object
    system: object
    controller: object
    monitor_factory: Callable
    skip_input: np.ndarray
    initial_states: np.ndarray
    realisations: list
    metrics_of: Callable
    metric_names: tuple


def _builtin_policy(name: str) -> Optional[SkippingPolicy]:
    """Built-in approach names: ``bang_bang`` and ``periodic<k>``."""
    if name == "bang_bang":
        return AlwaysSkipPolicy()
    match = _PERIODIC.match(name)
    if match:
        return PeriodicSkipPolicy(int(match.group(1)))
    return None


def _resolve_policies(
    spec: ExperimentSpec, case, require_stateless: bool = False
) -> Dict[str, SkippingPolicy]:
    """Approach name → policy instance for one materialised cell.

    Args:
        require_stateless: Under cell sharding, policy instances must be
            stateless — a stateful policy would carry state across cells
            in a ``jobs=1`` run but start pristine in each forked worker,
            breaking the jobs-invariance contract.  (The lockstep engine
            independently enforces the same flag per cell.)
    """
    supplied = spec.policies
    if supplied is not None and not isinstance(supplied, Mapping):
        supplied = supplied(case)  # callable case -> mapping (or None)
    supplied = dict(supplied or {})
    if BASELINE in supplied:
        raise ValueError(_BASELINE_RESERVED)
    names = spec.approaches
    if names is None:
        names = tuple(supplied) if supplied else DEFAULT_APPROACHES
    policies: Dict[str, SkippingPolicy] = {}
    for name in names:
        if name in supplied:
            value = supplied.pop(name)
            if not isinstance(value, SkippingPolicy) and callable(value):
                value = value(case)
            if not isinstance(value, SkippingPolicy):
                raise ValueError(
                    f"approach {name!r}: policies must supply a "
                    "SkippingPolicy (or a case -> policy factory), got "
                    f"{type(value).__name__}"
                )
            if require_stateless and not getattr(value, "stateless", False):
                raise ValueError(
                    f"approach {name!r}: sharded sweeps (jobs != 1) "
                    "require stateless policies — a stateful instance "
                    "carries state across cells in-process but starts "
                    "pristine in each forked worker; run with jobs=1 "
                    "instead"
                )
            policies[name] = value
            continue
        builtin = _builtin_policy(name)
        if builtin is None:
            known = ", ".join(sorted(supplied)) or "<none>"
            raise ValueError(
                f"unknown approach {name!r}: not a built-in "
                "('bang_bang', 'periodic<k>') and not supplied via "
                f"policies (supplied: {known})"
            )
        policies[name] = builtin
    if supplied:
        raise ValueError(
            f"policies {sorted(supplied)} are not named in approaches {names}"
        )
    return policies


# ----------------------------------------------------------------------
# Workload materialisation
# ----------------------------------------------------------------------
def _generic_workload(spec: ExperimentSpec, overrides: tuple) -> _Workload:
    """Registry/inline scenario with i.i.d. disturbances from ``W``."""
    from repro.scenarios import registry
    from repro.scenarios.builder import CaseStudy, build_case_study

    if not isinstance(spec.scenario, (str, ScenarioSpec, CaseStudy)):
        # Spec validation admits exactly one other type: ACCCaseStudy.
        raise ValueError(
            "an ACCCaseStudy runs the ACC pattern workload — set "
            "pattern='overall' (or an ex1..ex10 id) on the experiment"
        )
    if isinstance(spec.scenario, CaseStudy):
        # A pre-built case is evaluated exactly as passed (customised
        # controllers/monitors survive) — it cannot be re-synthesised,
        # so synthesis overrides have nothing to apply to.
        if overrides:
            raise ValueError(
                f"experiment {spec.display_label!r}: overrides/axes "
                f"{[key for key, _ in overrides]} need a scenario name or "
                "ScenarioSpec to re-synthesise; a pre-built CaseStudy "
                "cannot take synthesis overrides"
            )
        case = spec.scenario
    else:
        if isinstance(spec.scenario, str):
            base = registry.get(spec.scenario)
        else:
            base = spec.scenario
        point_spec = (
            base.with_overrides(**dict(overrides)) if overrides else base
        )
        case = build_case_study(point_spec)

    rng = np.random.default_rng(spec.seed)
    initial_states = case.sample_initial_states(rng, spec.num_cases)
    factory = case.disturbance_factory(spec.horizon)
    realisations = [
        factory(i, np.random.default_rng(child))
        for i, child in enumerate(
            np.random.SeedSequence(spec.seed).spawn(spec.num_cases)
        )
    ]

    safe_set = case.system.safe_set

    def metrics_of(stats) -> tuple:
        return (
            case.energy_of_run(stats),
            stats.skip_rate,
            stats.forced_steps,
            stats.max_violation(safe_set),
            1e3 * stats.mean_controller_time,
            1e3 * stats.mean_monitor_time,
        )

    return _Workload(
        case=case,
        system=case.system,
        controller=case.controller,
        monitor_factory=lambda: case.make_monitor(strict=True),
        skip_input=case.skip_input,
        initial_states=initial_states,
        realisations=realisations,
        metrics_of=metrics_of,
        metric_names=_GENERIC_METRICS,
    )


def _acc_workload(spec: ExperimentSpec, overrides: tuple) -> _Workload:
    """The paper's ACC evaluation: front-vehicle patterns + fuel meter.

    Override keys: :class:`~repro.acc.model.ACCParameters` fields,
    ``"pattern"`` (front-vehicle pattern id), or ``"experiment"`` (paper
    id setting the pattern *and* its Table-I ``vf_range`` together).
    The RNG consumption order is fixed — pattern, initial states, then
    one realisation per case — so a cell's metrics depend only on the
    spec, and a pre-built case and its ``"experiment"``-override rebuild
    agree metric-for-metric.
    """
    from repro.acc.case_study import ACCCaseStudy
    from repro.acc.case_study import build_case_study as build_acc_case
    from repro.acc.experiments import experiment_vf_range
    from repro.acc.model import ACCParameters
    from repro.traffic.patterns import experiment_pattern

    if spec.scenario_name != "acc":
        raise ValueError(
            f"pattern={spec.pattern!r} selects the ACC front-vehicle "
            f"workload, which requires scenario 'acc' (got "
            f"{spec.scenario_name!r}); non-ACC scenarios draw i.i.d. "
            "disturbances from their W"
        )
    pattern_id = spec.pattern
    if isinstance(spec.scenario, ACCCaseStudy):
        # A pre-built ACC case is evaluated exactly as passed (customised
        # controllers/monitors survive).  Its parameters are fixed, so
        # only pattern-selecting overrides make sense.
        params = spec.scenario.params
        for key, value in overrides:
            if key == "experiment":
                pattern_id = str(value)
                if experiment_vf_range(pattern_id) != params.vf_range:
                    raise ValueError(
                        f"experiment override {pattern_id!r} implies "
                        f"vf_range {experiment_vf_range(pattern_id)}, but "
                        f"the pre-built ACC case was synthesised for "
                        f"{params.vf_range}; pass scenario='acc' to let "
                        "the workload rebuild per point"
                    )
            elif key == "pattern":
                pattern_id = str(value)
            else:
                raise ValueError(
                    f"override {key!r}: a pre-built ACCCaseStudy has fixed "
                    "parameters — only 'pattern'/'experiment' overrides "
                    "apply; pass scenario='acc' for parameter axes"
                )
        case = spec.scenario
    elif not isinstance(spec.scenario, str):
        # The ACC workload is parameterised by ACCParameters (fuel meter,
        # coordinate transforms, pattern dt), which a generic spec or
        # generic CaseStudy does not carry — honouring one here would
        # silently evaluate a rebuilt default instead.
        raise ValueError(
            "the ACC pattern workload rebuilds its case study from "
            "ACCParameters overrides; pass scenario='acc' or a built "
            "ACCCaseStudy (a ScenarioSpec or generic CaseStudy cannot "
            "be honoured)"
        )
    else:
        param_fields = {f.name for f in fields(ACCParameters)}
        params = ACCParameters()
        for key, value in overrides:
            if key == "experiment":
                pattern_id = str(value)
                params = replace(
                    params, vf_range=experiment_vf_range(pattern_id)
                )
            elif key == "pattern":
                pattern_id = str(value)
            elif key == "vf_range":
                params = replace(
                    params, vf_range=(float(value[0]), float(value[1]))
                )
            elif key in param_fields:
                params = replace(params, **{key: value})
            else:
                allowed = ", ".join(
                    sorted(param_fields | {"experiment", "pattern"})
                )
                raise ValueError(
                    f"unknown ACC override {key!r}; valid keys: {allowed}"
                )
        case = build_acc_case(params)

    rng = np.random.default_rng(spec.seed)
    pattern = experiment_pattern(pattern_id, rng, dt=case.params.delta)
    initial_states = case.sample_initial_states(rng, spec.num_cases)
    realisations = [
        case.coords.disturbance_from_vf(pattern.generate(spec.horizon))
        for _ in range(spec.num_cases)
    ]

    safe_set = case.system.safe_set

    def metrics_of(stats) -> tuple:
        return (
            case.fuel_of_run(stats),
            case.raw_energy_of_run(stats),
            stats.skip_rate,
            stats.forced_steps,
            stats.max_violation(safe_set),
            1e3 * stats.mean_controller_time,
            1e3 * stats.mean_monitor_time,
        )

    return _Workload(
        case=case,
        system=case.system,
        controller=case.mpc,
        monitor_factory=lambda: case.make_monitor(strict=True),
        skip_input=case.skip_input,
        initial_states=initial_states,
        realisations=realisations,
        metrics_of=metrics_of,
        metric_names=_ACC_METRICS,
    )


def _materialise(cell: GridCell) -> _Workload:
    spec = cell.experiment
    if spec.pattern is not None:
        return _acc_workload(spec, cell.overrides)
    return _generic_workload(spec, cell.overrides)


def _finalize(
    rows: List[tuple], metric_names: tuple, solver: Optional[dict] = None
) -> ApproachResult:
    columns = list(zip(*rows))
    metrics = {
        name: np.array(columns[i]) for i, name in enumerate(metric_names)
    }
    return ApproachResult(
        metrics=metrics,
        mean_controller_ms=float(np.mean(columns[len(metric_names)])),
        mean_monitor_ms=float(np.mean(columns[len(metric_names) + 1])),
        solver=solver,
    )


def _cell_config(cell: GridCell, execution: ExecutionConfig) -> dict:
    """A cell's reproducibility config — the dict stored on
    :class:`CellResult` and hashed into the result-store address before
    a stored cell may substitute for a re-solve.

    The full override stack (base-spec overrides + axis points) is
    included via ``repr`` so an edited experiment — same label, changed
    override value — mismatches its old stored records and re-solves,
    while every untouched cell of the grid still hits the store.
    """
    spec = cell.experiment
    return {
        "cases": spec.num_cases,
        "horizon": spec.horizon,
        "seed": spec.seed,
        "memory_length": spec.memory_length,
        "engine": execution.engine,
        "exact_solves": execution.exact_solves,
        "pattern": spec.pattern,
        "overrides": [[key, repr(value)] for key, value in cell.overrides],
    }


def _evaluate_cell(
    cell: GridCell,
    execution: ExecutionConfig,
    require_stateless: bool = False,
    attempt: int = 1,
) -> CellResult:
    """Run one grid cell's full paired comparison."""
    spec = cell.experiment
    chaos.check_cell_delay(cell.key)
    chaos.check_cell_fault(cell.key, attempt)
    workload = _materialise(cell)
    policies = _resolve_policies(
        spec, workload.case, require_stateless=require_stateless
    )

    approaches: Dict[str, Optional[SkippingPolicy]] = {"baseline": None}
    approaches.update(policies)
    logger.debug(
        "cell %s: %d approaches x %d cases (engine=%s)",
        cell.key, len(approaches), spec.num_cases, execution.engine,
    )
    solver_effort: Dict[str, Optional[dict]] = {}
    try:
        collected = paired_evaluation(
            workload.system,
            workload.controller,
            workload.monitor_factory,
            approaches,
            workload.initial_states,
            workload.realisations,
            workload.metrics_of,
            skip_input=workload.skip_input,
            memory_length=spec.memory_length,
            engine=execution.engine,
            exact_solves=execution.exact_solves,
            solver_effort=solver_effort,
        )
    except RMPCInfeasibleError as exc:
        # Carry the grid coordinates: "which cell of a 1000-cell sweep
        # was infeasible" must be answerable from the message alone.
        point = cell.point_label or "-"
        raise RMPCInfeasibleError(
            f"cell {cell.key!r} (scenario={spec.display_label!r}, "
            f"point={point!r}, seed={spec.seed}): {exc}"
        ) from exc
    return CellResult(
        key=cell.key,
        scenario=spec.display_label,
        coords=cell.coords,
        config=_cell_config(cell, execution),
        approaches={
            name: _finalize(
                collected[name], workload.metric_names,
                solver_effort.get(name),
            )
            for name in approaches
        },
    )


def _cell_with_scope(
    cell: GridCell,
    execution: ExecutionConfig,
    require_stateless: bool,
    telemetry_on: bool,
    attempt: int = 1,
):
    """Run one cell under its own registry; return ``(result, snapshot)``.

    Both the sharded path (inside the forked worker) and the in-process
    path run cells through this exact scope, and the caller merges the
    returned snapshots in grid order — which is what makes a ``jobs=k``
    sweep's merged telemetry equal the ``jobs=1`` run's exactly.

    A raising cell discards its scoped registry wholesale (the snapshot
    is only taken on success), so a failed or retried attempt leaves no
    partial telemetry behind — the recovered sweep's merged snapshot
    stays equal to an undisturbed run's.
    """
    with _obs.scoped_registry(enabled=telemetry_on) as reg:
        with reg.span("cell", key=cell.key, scenario=cell.experiment.display_label):
            result = _evaluate_cell(
                cell, execution,
                require_stateless=require_stateless, attempt=attempt,
            )
        snap = reg.snapshot()
    if telemetry_on:
        result.telemetry = snap
    return result, snap


def _guarded_cell(
    cell: GridCell,
    execution: ExecutionConfig,
    require_stateless: bool,
    telemetry_on: bool,
):
    """Run one cell under the configured ``on_error`` policy.

    Returns ``(outcome, snapshot, attempts)`` where ``outcome`` is the
    :class:`CellResult` on success or a :class:`CellFailure` once the
    policy gives up (``snapshot`` is then ``None``).  Counter updates
    for retries/failures are the *caller's* job (from ``attempts`` and
    the outcome type) — this function runs inside forked workers, whose
    registries are discarded on failure.

    Retry discipline under ``on_error="retry"``: up to ``cell_retries``
    plain re-attempts; a solver-layer error
    (:data:`_SOLVER_ERRORS`) additionally earns one re-attempt with
    ``exact_solves=True`` — the scalar reference path every engine has,
    the graceful-degradation chain — before anything is recorded (not
    when ``exact_solves`` is already set).  The degraded attempt also
    runs under ``on_error="record"`` (degrade-then-record), never under
    ``"fail"``.
    """
    mode = execution.on_error
    budget = 1 + (execution.cell_retries if mode == "retry" else 0)
    execution_now = execution
    attempt = 0
    while True:
        attempt += 1
        try:
            result, snap = _cell_with_scope(
                cell, execution_now,
                require_stateless=require_stateless,
                telemetry_on=telemetry_on, attempt=attempt,
            )
            return result, snap, attempt
        except RECOVERABLE_CELL_ERRORS as exc:
            if mode == "fail":
                raise
            if (
                isinstance(exc, _SOLVER_ERRORS)
                and not execution_now.exact_solves
            ):
                logger.warning(
                    "cell %s: %s; degrading to exact_solves",
                    cell.key, type(exc).__name__,
                )
                execution_now = replace(execution_now, exact_solves=True)
                continue
            if mode == "retry" and attempt < budget:
                logger.warning(
                    "cell %s: attempt %d/%d failed (%s); retrying",
                    cell.key, attempt, budget, type(exc).__name__,
                )
                continue
            logger.error(
                "cell %s failed after %d attempt(s): %s: %s",
                cell.key, attempt, type(exc).__name__, exc,
            )
            failure = CellFailure(
                key=cell.key,
                scenario=cell.experiment.display_label,
                coords=cell.coords,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempt,
                stage="cell",
            )
            return failure, None, attempt


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def run_experiment(
    spec: ExperimentSpec,
    execution: Optional[ExecutionConfig] = None,
) -> ExperimentResult:
    """Evaluate one experiment (a single, axis-free grid cell).

    Args:
        spec: The experiment.
        execution: Execution configuration; a single cell has nothing
            to shard, so ``jobs`` and ``cell_timeout`` do not apply.

    Returns:
        The cell's :class:`~repro.experiments.result.CellResult`; when
        telemetry is enabled its snapshot is attached as
        ``result.telemetry`` and merged into the ambient registry.
    """
    if execution is None:
        execution = ExecutionConfig()
    telemetry_on = execution.telemetry or _obs.telemetry_enabled()
    result, snap = _cell_with_scope(
        GridCell(experiment=spec),
        execution,
        require_stateless=False,
        telemetry_on=telemetry_on,
    )
    _obs.registry().merge_snapshot(snap)
    return result


def run_sweep(
    plan: SweepPlan,
    execution: Optional[ExecutionConfig] = None,
    on_cell: Optional[Callable[[CellResult], None]] = None,
    checkpoint=None,
    on_restored: Optional[Callable[[CellResult], None]] = None,
) -> SweepResult:
    """Execute a sweep plan's full grid, sharding cells over workers.

    A sweep is sharded iff it has more than one pending cell and
    ``execution.jobs`` resolves to more than one worker: whole grid cells
    are then fanned out over forked workers — each worker runs its
    cell's entire paired batch with the configured engine (lockstep
    inside is the fast path), so per-cell results are identical to a
    ``jobs=1`` run and only wall-clock fields vary.  Sharded cells
    require stateless policies (a stateful instance would carry state
    across cells in-process but start pristine per worker); supplying
    one raises a :class:`ValueError` naming the approach.  Otherwise
    cells run one after another in-process.

    Fault tolerance: a worker that dies or hangs past
    ``execution.cell_timeout`` is respawned for its unfinished cells
    (bounded by ``execution.worker_retries``); a cell that raises a
    :data:`RECOVERABLE_CELL_ERRORS` exception is handled per
    ``execution.on_error`` — abort (``"fail"``, the default), record a
    :class:`~repro.experiments.result.CellFailure` on
    ``SweepResult.failures`` (``"record"``), or retry first
    (``"retry"``, with an ``exact_solves`` degradation for solver errors).
    Recovery never perturbs results: a re-run cell is re-forked from the
    parent's unchanged state, failed attempts discard their telemetry
    scope, and the recovery counters (``worker_respawns_total``,
    ``cell_retries_total``, ``sweep_cell_failures_total``) are excluded
    from the deterministic telemetry view — so a recovered sweep equals
    an undisturbed one on every surviving cell.

    Telemetry (``execution.telemetry`` or a globally enabled registry):
    every cell runs under its own scoped registry — inside the forked
    worker when sharded, in-process otherwise — and the per-cell
    snapshots ship back through the result pipe and merge in grid order,
    so a ``jobs=k`` sweep's merged snapshot equals the ``jobs=1`` run's
    exactly.  The merged snapshot is stored as ``result.telemetry``
    (per-cell snapshots as ``cell.telemetry``) and folded into the
    ambient registry.  Telemetry never touches deterministic record
    fields: rows are bitwise-identical with telemetry on or off.

    Args:
        plan: The sweep plan.
        execution: Overrides ``plan.execution`` when given.
        on_cell: Optional progress callback, invoked once per completed
            cell (completion order under sharding, grid order otherwise;
            not invoked for checkpoint-restored or failed cells).
        checkpoint: Optional directory path,
            :class:`~repro.experiments.checkpoint.SweepCheckpoint`, or
            shared :class:`~repro.service.store.ResultStore` for
            resumable execution: each completed cell spills its JSON
            there the moment it finishes, and on restart cells already
            on disk — same stable key, same reproducibility config — are
            loaded instead of re-solved.  An interrupted sweep resumed
            this way re-solves only the missing/failed cells and returns
            the identical :class:`SweepResult`.  The restored-vs-solved
            split is logged, surfaced as ``SweepResult.restored``, and
            counted (``sweep_cells_restored_total`` /
            ``sweep_cells_solved_total`` — excluded from the
            deterministic telemetry view, like every persistence
            counter).
        on_restored: Optional callback, invoked once per
            checkpoint-restored cell (in grid order, before any pending
            cell executes) — the service's job feed uses it to serve
            store-hits immediately.

    Returns:
        A :class:`~repro.experiments.result.SweepResult` with cells in
        grid order regardless of worker scheduling (failed cells under
        ``on_error != "fail"`` are absent from ``cells`` and listed on
        ``failures`` instead).
    """
    if execution is None:
        execution = plan.execution
    telemetry_on = execution.telemetry or _obs.telemetry_enabled()
    cells = plan.cells()

    store: Optional[SweepCheckpoint] = None
    loaded: Dict[str, CellResult] = {}
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, SweepCheckpoint)
            else SweepCheckpoint(checkpoint)
        )
        for cell in cells:
            prior = store.load(cell.key, _cell_config(cell, execution))
            if prior is not None:
                loaded[cell.key] = prior
        if loaded:
            logger.info(
                "sweep: restored %d/%d cells from checkpoint %s",
                len(loaded), len(cells), store.directory,
            )
        if on_restored is not None:
            for cell in cells:
                if cell.key in loaded:
                    on_restored(loaded[cell.key])
    pending = [cell for cell in cells if cell.key not in loaded]

    sharded = len(pending) > 1 and resolve_jobs(execution.jobs) > 1
    logger.info(
        "sweep: %d cells, engine=%s, jobs=%d, sharded=%s, telemetry=%s",
        len(cells), execution.engine, resolve_jobs(execution.jobs),
        sharded, telemetry_on,
    )

    def _stream(outcome) -> None:
        # Per-completion stream (the checkpoint spill + progress hook);
        # fires for fresh CellResults only — failures and restored cells
        # have nothing new worth spilling.
        if not isinstance(outcome, CellResult):
            return
        if store is not None:
            store.store_cell(outcome)
        if on_cell is not None:
            on_cell(outcome)

    def _worker_failure(index: int, reason: str) -> tuple:
        # fork_map gave up on a cell after worker_retries deaths or
        # timeouts: synthesise the supervision-level failure outcome so
        # the rest of the grid still completes.
        cell = pending[index]
        failure = CellFailure(
            key=cell.key,
            scenario=cell.experiment.display_label,
            coords=cell.coords,
            error_type="WorkerFailure",
            message=reason,
            attempts=execution.worker_retries + 1,
            stage="worker",
        )
        return failure, None, 1

    scope = (
        _obs.scoped_registry(enabled=True)
        if telemetry_on
        else nullcontext(_obs.registry())
    )
    with scope as sweep_reg:
        with sweep_reg.span(
            "sweep", cells=len(cells), engine=execution.engine,
            jobs=execution.jobs, sharded=sharded,
        ):
            if sharded:
                triples = fork_map(
                    # require_stateless: the jobs-invariance contract
                    # below only holds when no policy state can leak
                    # across cells.
                    lambda cell: _guarded_cell(
                        cell, execution,
                        require_stateless=True, telemetry_on=telemetry_on,
                    ),
                    pending,
                    jobs=execution.jobs,
                    on_result=lambda index, triple: _stream(triple[0]),
                    timeout=execution.cell_timeout,
                    max_retries=execution.worker_retries,
                    on_item_failure=(
                        None
                        if execution.on_error == "fail"
                        else _worker_failure
                    ),
                )
            else:
                triples = []
                for cell in pending:
                    triple = _guarded_cell(
                        cell, execution,
                        require_stateless=False, telemetry_on=telemetry_on,
                    )
                    _stream(triple[0])
                    triples.append(triple)
            # Grid-order assembly inside the open sweep span: cell spans
            # attach under it, and jobs=k accumulation order matches
            # jobs=1 regardless of worker scheduling.  Restored cells
            # contribute their *stored* snapshot, so a resumed sweep's
            # merged telemetry reflects the whole grid, and the recovery
            # counters land in the sweep registry (parent-side — worker
            # registries are per-attempt and discarded on failure).
            outcome_by_key = {
                cell.key: triple for cell, triple in zip(pending, triples)
            }
            results: List[CellResult] = []
            failures: List[CellFailure] = []
            for cell in cells:
                prior = loaded.get(cell.key)
                if prior is not None:
                    results.append(prior)
                    sweep_reg.merge_snapshot(prior.telemetry)
                    continue
                outcome, snap, attempts = outcome_by_key[cell.key]
                if attempts > 1:
                    sweep_reg.inc("cell_retries_total", attempts - 1)
                if isinstance(outcome, CellFailure):
                    failures.append(outcome)
                    sweep_reg.inc(
                        "sweep_cell_failures_total",
                        error=outcome.error_type,
                        stage=outcome.stage,
                    )
                else:
                    results.append(outcome)
                    sweep_reg.merge_snapshot(snap)
            if store is not None:
                # The restored-vs-solved split (persistence metrics,
                # excluded from the deterministic view): how much of
                # this grid the store served vs how much this run
                # actually solved.
                if loaded:
                    sweep_reg.inc(
                        "sweep_cells_restored_total", len(loaded)
                    )
                solved = len(results) - len(loaded)
                if solved:
                    sweep_reg.inc("sweep_cells_solved_total", solved)
        sweep_snapshot = sweep_reg.snapshot() if telemetry_on else None
    if telemetry_on:
        _obs.registry().merge_snapshot(sweep_snapshot)
    if failures:
        logger.warning(
            "sweep: %d/%d cells failed (%s)",
            len(failures), len(cells),
            ", ".join(f.key for f in failures),
        )
    return SweepResult(
        results, telemetry=sweep_snapshot, failures=failures,
        restored=[cell.key for cell in cells if cell.key in loaded],
    )
