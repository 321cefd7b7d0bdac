"""Structured results of experiments and sweeps.

A :class:`CellResult` keeps one grid cell's full per-case metric arrays
(every approach saw the identical realisations, so the arrays are
paired); a :class:`SweepResult` collects the cells and flattens them into
a stable row table — one row per (cell, approach) with a unique ``key`` —
that round-trips through CSV (the flat aggregate view) and JSON (full
per-case fidelity).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "ApproachResult",
    "CellFailure",
    "CellResult",
    "ExperimentResult",
    "SweepResult",
    "cell_from_dict",
    "cell_to_dict",
]

#: Fixed CSV column order of the flat row table.
CSV_COLUMNS = (
    "key",
    "scenario",
    "point",
    "approach",
    "cases",
    "horizon",
    "seed",
    "engine",
    "exact_solves",
    "mean_energy",
    "energy_saving",
    "mean_skip_rate",
    "mean_forced_steps",
    "max_violation",
    "mean_fuel",
    "fuel_saving",
    "mean_controller_ms",
    "mean_monitor_ms",
    "safe",
    "solve_count",
    "stacked_solves",
    "scalar_solves",
)

_INT_COLUMNS = frozenset(
    {"cases", "horizon", "seed", "solve_count", "stacked_solves",
     "scalar_solves"}
)
_BOOL_COLUMNS = frozenset({"exact_solves", "safe"})
_STR_COLUMNS = frozenset({"key", "scenario", "point", "approach", "engine"})

#: Wall-clock-derived columns excluded from determinism comparisons.
TIMING_COLUMNS = frozenset({"mean_controller_ms", "mean_monitor_ms"})

#: Execution-metadata columns (how a sweep ran, not what it computed),
#: also excluded when comparing runs across engines/tiers/worker counts.
EXECUTION_COLUMNS = frozenset({"engine", "exact_solves"})

#: Solver-effort columns.  Like execution metadata they describe *how*
#: a cell was computed — the lockstep engine batches solves the serial
#: engine performs one by one — so they are excluded from the
#: deterministic comparison view too.
SOLVER_COLUMNS = frozenset(
    {"solve_count", "stacked_solves", "scalar_solves"}
)


@dataclass
class ApproachResult:
    """Per-case metrics of one approach in one grid cell.

    Attributes:
        metrics: Metric name → per-case array (``energy``, ``skip_rate``,
            ``forced_steps``, ``max_violation``; the ACC pattern workload
            adds ``fuel``).
        mean_controller_ms: Mean κ wall-clock per invocation [ms].
        mean_monitor_ms: Mean monitor+Ω wall-clock per step [ms].
        solver: Solver-effort summary for this approach's leg
            (``solve_count``, ``scalar_solves``, ``stacked_solves``,
            ``stacked_fallbacks``), measured from the
            always-on telemetry counters — or ``None`` when the
            controller performs no LP solves (linear feedback κ).
    """

    metrics: Dict[str, np.ndarray]
    mean_controller_ms: float
    mean_monitor_ms: float
    solver: Optional[dict] = None


@dataclass
class CellResult:
    """One evaluated grid cell: every approach over shared realisations.

    Attributes:
        key: The cell's stable row key (``scenario[@axis=label,...]``).
        scenario: The experiment's display label.
        coords: ``((axis, label), ...)`` grid coordinates.
        config: Reproducibility metadata (``cases``, ``horizon``,
            ``seed``, ``memory_length``, ``engine``, ``exact_solves``,
            ``pattern``).
        approaches: Approach name → :class:`ApproachResult`; the
            κ-every-step reference leg is ``"baseline"``.
        telemetry: This cell's metrics/span snapshot
            (:meth:`repro.observability.MetricsRegistry.snapshot`) when
            the cell ran with telemetry enabled, else ``None``.
    """

    key: str
    scenario: str
    coords: tuple
    config: dict
    approaches: Dict[str, ApproachResult]
    telemetry: Optional[dict] = None

    def stats(self, approach: str) -> ApproachResult:
        """Stats by approach name (``"baseline"`` or a policy name)."""
        try:
            return self.approaches[approach]
        except KeyError:
            known = ", ".join(sorted(self.approaches)) or "<none>"
            raise ValueError(
                f"unknown approach {approach!r}; evaluated: {known}"
            ) from None

    def _saving(self, approach: str, metric: str) -> np.ndarray:
        stats = self.stats(approach)
        if metric not in stats.metrics:
            raise ValueError(
                f"cell {self.key!r} has no {metric!r} metric "
                "(only the ACC pattern workload measures fuel)"
            )
        base = self.approaches["baseline"].metrics[metric]
        out = np.zeros_like(base)
        nonzero = np.abs(base) > 1e-12
        out[nonzero] = (base[nonzero] - stats.metrics[metric][nonzero]) / base[nonzero]
        return out

    def energy_saving(self, approach: str) -> np.ndarray:
        """Per-case fractional Σ‖u‖₁ saving vs the baseline (0/0 → 0)."""
        return self._saving(approach, "energy")

    def fuel_saving(self, approach: str) -> np.ndarray:
        """Per-case fractional fuel saving vs the baseline (ACC only)."""
        return self._saving(approach, "fuel")

    @property
    def always_safe(self) -> bool:
        """True iff no approach ever left the safe set in any case."""
        return all(
            float(stats.metrics["max_violation"].max()) <= 0.0
            for stats in self.approaches.values()
        )

    def rows(self) -> List[dict]:
        """This cell's flat table rows (baseline first)."""
        point = ",".join(f"{axis}={label}" for axis, label in self.coords)
        rows = []
        for name, stats in self.approaches.items():
            fuel = stats.metrics.get("fuel")
            solver = stats.solver or {}
            rows.append(
                {
                    "key": f"{self.key}/{name}",
                    "scenario": self.scenario,
                    "point": point,
                    "approach": name,
                    "cases": int(self.config["cases"]),
                    "horizon": int(self.config["horizon"]),
                    "seed": int(self.config["seed"]),
                    "engine": str(self.config["engine"]),
                    "exact_solves": bool(self.config["exact_solves"]),
                    "mean_energy": float(stats.metrics["energy"].mean()),
                    "energy_saving": (
                        0.0
                        if name == "baseline"
                        else float(self.energy_saving(name).mean())
                    ),
                    "mean_skip_rate": float(stats.metrics["skip_rate"].mean()),
                    "mean_forced_steps": float(
                        stats.metrics["forced_steps"].mean()
                    ),
                    "max_violation": float(stats.metrics["max_violation"].max()),
                    "mean_fuel": None if fuel is None else float(fuel.mean()),
                    "fuel_saving": (
                        None
                        if fuel is None
                        else (
                            0.0
                            if name == "baseline"
                            else float(self.fuel_saving(name).mean())
                        )
                    ),
                    "mean_controller_ms": float(stats.mean_controller_ms),
                    "mean_monitor_ms": float(stats.mean_monitor_ms),
                    "safe": bool(
                        float(stats.metrics["max_violation"].max()) <= 0.0
                    ),
                    "solve_count": solver.get("solve_count"),
                    "stacked_solves": solver.get("stacked_solves"),
                    "scalar_solves": solver.get("scalar_solves"),
                }
            )
        return rows


#: :func:`~repro.experiments.runner.run_experiment` returns one cell.
ExperimentResult = CellResult


@dataclass
class CellFailure:
    """One grid cell that could not be evaluated.

    Produced by :func:`~repro.experiments.runner.run_sweep` under
    ``on_error="record"``/``"retry"`` (and for worker-retry exhaustion)
    instead of aborting the grid — the surviving cells' rows stay valid
    and the failure is queryable afterwards.

    Attributes:
        key: The failed cell's stable key.
        scenario: The experiment's display label.
        coords: ``((axis, label), ...)`` grid coordinates.
        error_type: Exception class name (e.g. ``"RMPCInfeasibleError"``)
            or ``"WorkerFailure"`` for a worker that died/hung past its
            retry budget.
        message: The final attempt's error message.
        attempts: How many evaluation attempts were made in total.
        stage: ``"cell"`` for an exception raised by the cell body,
            ``"worker"`` for a supervision-level failure (dead or hung
            worker past its retry budget).
    """

    key: str
    scenario: str
    coords: tuple
    error_type: str
    message: str
    attempts: int = 1
    stage: str = "cell"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "scenario": self.scenario,
            "coords": [list(pair) for pair in self.coords],
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "stage": self.stage,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellFailure":
        return cls(
            key=payload["key"],
            scenario=payload["scenario"],
            coords=tuple(tuple(pair) for pair in payload["coords"]),
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=int(payload.get("attempts", 1)),
            stage=payload.get("stage", "cell"),
        )


def cell_to_dict(cell: CellResult) -> dict:
    """A :class:`CellResult` as a JSON-safe dict (full per-case arrays).

    The unit of both :meth:`SweepResult.to_json` and the per-cell
    checkpoint spill (:mod:`repro.experiments.checkpoint`).
    """
    return {
        "key": cell.key,
        "scenario": cell.scenario,
        "coords": [list(pair) for pair in cell.coords],
        "config": cell.config,
        "approaches": {
            name: {
                "metrics": {
                    metric: values.tolist()
                    for metric, values in stats.metrics.items()
                },
                "mean_controller_ms": stats.mean_controller_ms,
                "mean_monitor_ms": stats.mean_monitor_ms,
                "solver": stats.solver,
            }
            for name, stats in cell.approaches.items()
        },
        "telemetry": cell.telemetry,
    }


def cell_from_dict(entry: dict) -> CellResult:
    """Inverse of :func:`cell_to_dict` (arrays restored as float64)."""
    return CellResult(
        key=entry["key"],
        scenario=entry["scenario"],
        coords=tuple(tuple(pair) for pair in entry["coords"]),
        config=dict(entry["config"]),
        approaches={
            name: ApproachResult(
                metrics={
                    metric: np.asarray(values, dtype=float)
                    for metric, values in stats["metrics"].items()
                },
                mean_controller_ms=float(stats["mean_controller_ms"]),
                mean_monitor_ms=float(stats["mean_monitor_ms"]),
                solver=stats.get("solver"),
            )
            for name, stats in entry["approaches"].items()
        },
        telemetry=entry.get("telemetry"),
    )


class SweepResult:
    """The structured table a sweep returns.

    Iterating yields :class:`CellResult`s in grid order; :meth:`rows`
    flattens them into one dict per (cell, approach) with stable unique
    ``key``s and the fixed :data:`CSV_COLUMNS` schema.

    Serialisation: :meth:`to_json`/:meth:`from_json` round-trip the full
    per-case arrays; :meth:`to_csv`/:meth:`from_csv` round-trip the flat
    aggregate row table exactly (floats are written with ``repr``).
    """

    def __init__(
        self,
        cells,
        rows: Optional[List[dict]] = None,
        telemetry: Optional[dict] = None,
        failures: Optional[List[CellFailure]] = None,
        restored: Optional[List[str]] = None,
    ):
        self.cells: List[CellResult] = list(cells)
        if rows is None:
            rows = [row for cell in self.cells for row in cell.rows()]
        self._rows = [dict(row) for row in rows]
        #: The whole sweep's merged metrics/span snapshot when it ran
        #: with telemetry enabled, else ``None``.
        self.telemetry = telemetry
        #: Cells that could not be evaluated (``on_error="record"`` /
        #: ``"retry"``), in grid order; empty on a clean sweep.
        self.failures: List[CellFailure] = list(failures or [])
        #: Keys of cells served from a checkpoint/result store instead
        #: of being solved in this run, in grid order.  Empty on an
        #: uncached sweep — and excluded from equality-of-results
        #: comparisons, since *where* a cell came from is provenance,
        #: not data.
        self.restored: List[str] = list(restored or [])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.cells)

    def cell(self, key: str) -> CellResult:
        """Cell lookup by its stable key."""
        for cell in self.cells:
            if cell.key == key:
                return cell
        known = ", ".join(cell.key for cell in self.cells) or "<none>"
        raise KeyError(f"unknown cell {key!r}; cells: {known}")

    @property
    def always_safe(self) -> bool:
        """True iff every cell was violation-free under every approach."""
        return all(row["safe"] for row in self._rows)

    @property
    def ok(self) -> bool:
        """True iff every planned cell was actually evaluated."""
        return not self.failures

    def rows(self) -> List[dict]:
        """The flat row table (one dict per cell × approach)."""
        return [dict(row) for row in self._rows]

    def row_keys(self) -> List[str]:
        """Stable unique keys, one per row, in table order."""
        return [row["key"] for row in self._rows]

    def deterministic_rows(self) -> List[dict]:
        """Rows minus wall-clock, execution-metadata and solver-effort
        columns — the cross-worker/engine comparison view of the
        sharding contract."""
        excluded = TIMING_COLUMNS | EXECUTION_COLUMNS | SOLVER_COLUMNS
        return [
            {k: v for k, v in row.items() if k not in excluded}
            for row in self._rows
        ]

    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write the flat row table (``None`` → empty field)."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for row in self._rows:
                writer.writerow(
                    [
                        ""
                        if row[column] is None
                        else (
                            repr(row[column])
                            if isinstance(row[column], float)
                            else row[column]
                        )
                        for column in CSV_COLUMNS
                    ]
                )

    @classmethod
    def from_csv(cls, path: str) -> "SweepResult":
        """Rebuild the row table (cells are not recoverable from CSV)."""
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty CSV") from None
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(
                    f"{path}: unexpected columns {header}; expected "
                    f"{list(CSV_COLUMNS)}"
                )
            rows = [
                {
                    column: _parse_csv_field(column, value)
                    for column, value in zip(CSV_COLUMNS, record)
                }
                for record in reader
            ]
        return cls(cells=[], rows=rows)

    def to_payload(self) -> dict:
        """The full-fidelity JSON-safe dict (per-case arrays included)
        behind :meth:`to_json` — also what the experiment service's
        ``GET /v1/sweeps/{id}/result`` returns."""
        return {
            "cells": [cell_to_dict(cell) for cell in self.cells],
            "telemetry": self.telemetry,
            "failures": [failure.to_dict() for failure in self.failures],
            "restored": list(self.restored),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepResult":
        """Inverse of :meth:`to_payload`."""
        cells = [cell_from_dict(entry) for entry in payload["cells"]]
        failures = [
            CellFailure.from_dict(entry)
            for entry in payload.get("failures", [])
        ]
        return cls(
            cells=cells,
            telemetry=payload.get("telemetry"),
            failures=failures,
            restored=payload.get("restored"),
        )

    def to_json(self, path: str) -> None:
        """Write full-fidelity cells (per-case arrays included)."""
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle, indent=2)

    @classmethod
    def from_json(cls, path: str) -> "SweepResult":
        """Rebuild cells (and hence rows) from :meth:`to_json` output."""
        with open(path) as handle:
            payload = json.load(handle)
        return cls.from_payload(payload)


def _parse_csv_field(column: str, value: str):
    if column in _STR_COLUMNS:
        return value
    if value == "":
        return None
    if column in _INT_COLUMNS:
        return int(value)
    if column in _BOOL_COLUMNS:
        return value == "True"
    return float(value)
