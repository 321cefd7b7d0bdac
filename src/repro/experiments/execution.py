"""Execution configuration for experiments and sweeps.

:class:`ExecutionConfig` separates *what* a sweep computes (the
:class:`~repro.experiments.spec.ExperimentSpec` grid — which fully
determines every deterministic metric) from *how* it is computed:
which per-cell engine advances the episodes, how many worker processes
shard the grid, and which determinism tier MPC solves run under.

Sharding contract (decided in PR 4, recorded in ROADMAP.md): grid cells
are sharded whole — one cell's entire paired batch runs inside one
worker, lockstep inside — so a ``jobs=k`` sweep executes bit-identical
per-cell computations to ``jobs=1`` and only the transport differs.
Cross-*engine* comparisons of RMPC scenarios remain plan-equivalent
(equal optimal cost ≤ 1e-9, feasible inputs, zero violations), not
bitwise; request ``exact_solves=True`` for record-for-record audits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

from repro.framework.evaluation import ENGINES

__all__ = ["ExecutionConfig", "ON_ERROR_MODES"]

#: Recognised cell-failure policies (see :attr:`ExecutionConfig.on_error`).
ON_ERROR_MODES = ("fail", "record", "retry")


@dataclass(frozen=True)
class ExecutionConfig:
    """How a sweep's grid cells are executed.

    Attributes:
        engine: Per-cell episode engine — ``"serial"`` (the reference
            loop) or ``"lockstep"`` (all cases of one approach advance
            as a single state matrix; the fast path).  Either runs
            inside one process.
        jobs: Grid-cell worker processes (``0`` = one per CPU).  A sweep
            with more than one pending cell and more than one resolved
            worker shards whole cells over
            :func:`repro.utils.parallel.fork_map`; otherwise cells run
            in-process, one after another.  A single experiment has one
            cell, so it ignores ``jobs``.
        exact_solves: Lockstep only — keep MPC solves on the scalar path
            for record-for-record parity with the serial engine instead
            of the plan-equivalent stacked solve (the one stacked
            route; see :class:`repro.utils.lp.PersistentStackSolver`).
        telemetry: Collect full telemetry for the sweep — spans, folded
            stage timings, and a metrics snapshot embedded per
            :class:`~repro.experiments.result.CellResult` and on the
            :class:`~repro.experiments.result.SweepResult`
            (:mod:`repro.observability`).  Hard contract: telemetry
            never touches deterministic record fields, so every metric
            is bitwise-identical with telemetry on or off.  ``False``
            also defers to a globally enabled registry
            (:func:`repro.observability.enable_telemetry`).
        on_error: Cell-failure policy for :func:`run_sweep`.
            ``"fail"`` (default) — a raising cell aborts the sweep, as
            before.  ``"record"`` — the cell becomes a structured
            :class:`~repro.experiments.result.CellFailure` on
            ``SweepResult.failures`` and the grid keeps going.
            ``"retry"`` — like ``"record"`` but the cell is first
            re-attempted up to ``cell_retries`` times (with a one-shot
            degradation to ``exact_solves=True``, the scalar reference
            path, for solver errors) before a failure is recorded.
            Evaluated cells stay bitwise-identical under every mode;
            only which cells *exist* can differ.
        cell_retries: ``on_error="retry"`` only — extra attempts per
            failing cell before its failure is recorded.
        cell_timeout: Optional per-cell wall-clock budget [s] under cell
            sharding; a worker hung past it is killed and its cells
            respawn on a fresh worker (see
            :func:`repro.utils.parallel.fork_map`).  Unenforceable on
            the in-process path (``jobs=1``, or a single pending
            cell).
        worker_retries: How many worker deaths/timeouts may be charged
            to one grid cell before it is given up — then the sweep
            aborts (``on_error="fail"``) or records a ``stage="worker"``
            :class:`~repro.experiments.result.CellFailure`.
    """

    engine: str = "serial"
    jobs: int = 1
    exact_solves: bool = False
    telemetry: bool = False
    on_error: str = "fail"
    cell_retries: int = 1
    cell_timeout: Optional[float] = None
    worker_retries: int = 2

    def __post_init__(self):
        # Payloads arrive from JSON (the HTTP service, plan files): a
        # wrong-typed value must be a ValueError naming the field, not a
        # TypeError from a comparison below — or, worse, a truthy string
        # silently accepted as a bool.
        for name in ("exact_solves", "telemetry"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        for name in ("jobs", "cell_retries", "worker_retries"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.cell_timeout is not None and (
            isinstance(self.cell_timeout, bool)
            or not isinstance(self.cell_timeout, numbers.Real)
        ):
            raise ValueError(
                f"cell_timeout must be None or a number, got {self.cell_timeout!r}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.cell_retries < 0:
            raise ValueError("cell_retries must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be None or > 0 seconds")
        if self.worker_retries < 0:
            raise ValueError("worker_retries must be >= 0")
