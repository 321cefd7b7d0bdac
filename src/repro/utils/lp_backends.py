"""The warm-started persistent stacked solve behind
:meth:`repro.controllers.rmpc.RobustMPC.solve_batch`.

A :class:`PersistentStackSolver` keeps one padded HiGHS model (on scipy's
bundled core, :mod:`repro.utils.lp`) for one controller's stack.  Its
capacity is the next power of two at or above the batch size, capped at
the chunk size, and only grows until :meth:`PersistentStackSolver.release`.
A solve of ``k`` rows rewrites only the first ``k`` blocks' varying
equality rows (``changeRowBounds``) and re-runs from the previous solve's
basis; the spare blocks keep their last — feasible, already optimal —
right-hand side, so the simplex does no work on them.  The batch size
therefore may drift from step to step (κ_R runs only on the rows the
monitor forces) without rebuilding the model.  A warm solve attains the
cold optimal cost but may land on a different optimal *vertex* of a
degenerate LP (the plan-equivalent tier of :mod:`repro.framework.lockstep`).

``RobustMPC.reset()`` — called at the start of every engine run — drops
the model with :meth:`PersistentStackSolver.release`, so a run's plans
(and its model-build counts) depend only on that run's batches.

:data:`BACKENDS` and :func:`resolve_backend` have no caller in the
package: they stay only for the benchmark's provenance probe, which
resolves ``"auto"``, until that probe stops calling them.

Thread-safety: a :class:`PersistentStackSolver` mutates its HiGHS
instance in place, so solves and releases hold a per-solver lock and
threads sharing one solver take turns.  ``RobustMPC`` keeps one solver per
thread, so concurrent runs never see each other's warm starts.
"""

from __future__ import annotations

import logging
import threading
from typing import List, Optional

import numpy as np

from repro.observability.metrics import registry as _telemetry
from repro.utils.lp import (
    LP_SOLVES_METRIC,
    LPError,
    LPMatrix,
    LPSolution,
    _as_csr_block,
    highs_core,
)

logger = logging.getLogger(__name__)

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "PersistentStackSolver",
]

#: Recognised backend requests (``resolve_backend`` maps them to an
#: effective backend in ``("highs", "scipy")``).
BACKENDS = ("auto", "highs", "scipy")

#: The largest model a solver builds: batches above it run chunk by
#: chunk through the same model, since the single stacked solve's
#: superlinear tail would otherwise eat the warm-start amortisation.
DEFAULT_CHUNK_SIZE = 1024


def resolve_backend(backend: str = "auto") -> str:
    """Map a backend request to the effective backend name.

    Args:
        backend: ``"auto"``, ``"highs"`` or ``"scipy"``.

    Returns:
        ``"highs"`` (warm) for an explicit ``"highs"`` request, else
        ``"scipy"`` (cold).

    Raises:
        ValueError: On names outside :data:`BACKENDS`.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"lp backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "highs" and highs_core() is not None:
        return "highs"
    return "scipy"


class _ChunkModel:
    """One persistent HiGHS instance holding ``blocks`` copies of the
    scalar block.

    Built (``passModel``) exactly once with every block's varying rows
    parked at ``park``; every :meth:`solve` then rewrites the varying
    rows of its leading blocks and re-runs — HiGHS reuses the incumbent
    basis, so repeated solves skip the from-scratch factorisation a cold
    solve pays every call.
    """

    def __init__(self, owner: "PersistentStackSolver", blocks: int, park):
        core = highs_core()
        if core is None:
            raise LPError("the bundled HiGHS core is unavailable")
        self._core = core
        self.blocks = k = int(blocks)
        matrix = LPMatrix.stacked(owner.a_ub, owner.a_eq, k)
        self._rows_ub = rows_ub = owner.rows_ub * k
        b_eq = owner.b_eq.copy()
        b_eq[owner.varying_eq_rows] = park
        # Kept current as the varying rows change: the residual check
        # reads the model's right-hand sides from here.
        self._row_upper = np.concatenate(
            [np.tile(owner.b_ub, k), np.tile(b_eq, k)]
        )
        row_lower = self._row_upper.copy()
        row_lower[:rows_ub] = -np.inf
        self._highs, _ = core.model(
            np.tile(owner.cost, k), matrix, row_lower, self._row_upper
        )

        # Flat row indices of the varying equality entries, block-major:
        # block i's varying rows live at rows_ub + i*rows_eq + varying.
        vary = np.asarray(owner.varying_eq_rows, dtype=np.int64)
        offsets = rows_ub + owner.rows_eq * np.arange(k, dtype=np.int64)
        self._vary_idx = (offsets[:, None] + vary[None, :]).reshape(-1)
        self._vary_rows = self._vary_idx.tolist()
        self._n = owner.block_cols
        self.solves = 0

    def solve(self, values: np.ndarray) -> np.ndarray:
        """Rewrite the leading blocks' varying RHS and re-solve (warm).

        Args:
            values: ``(rows, len(varying_eq_rows))`` RHS of the first
                ``rows <= blocks`` blocks; the other blocks keep theirs.

        Returns:
            ``(rows, block_cols)`` optimal points of those blocks.

        Raises:
            LPError: If HiGHS does not reach optimality (infeasible,
                unbounded, or a numerical failure) or any block's point
                fails ``linprog``'s residual check.
        """
        highs = self._highs
        values = np.asarray(values, dtype=float)
        rows = values.shape[0]
        values = values.reshape(-1)
        self._row_upper[self._vary_idx[: values.size]] = values
        change = highs.changeRowBounds
        for row, value in zip(self._vary_rows, values.tolist()):
            change(row, value, value)
        failed = highs.run() == self._core.error
        status = highs.getModelStatus()
        reg = _telemetry()
        reg.inc(LP_SOLVES_METRIC, path="persistent")
        # First solve of a freshly-passed model factorises from scratch;
        # every later one warm-starts from the incumbent basis.
        reg.inc(
            "lp_persistent_solves_total",
            start="warm" if self.solves else "cold",
        )
        self.solves += 1
        if failed or status != self._core.optimal:
            raise LPError(
                f"persistent stacked LP ({self.blocks} blocks) failed: "
                f"{highs.modelStatusToString(status)}"
            )
        outcome = self._core._checked(highs, self._rows_ub, self._row_upper)
        if not outcome.success:
            raise LPError(
                f"persistent stacked LP ({self.blocks} blocks) failed: "
                f"{outcome.message}"
            )
        return outcome.x.reshape(self.blocks, self._n)[:rows]

    def release(self) -> None:
        self._highs.clear()


class PersistentStackSolver:
    """Warm-started persistent-HiGHS solver for one controller's stack.

    Owns everything the stacked solves need — the scalar block data
    *and* the one padded HiGHS model — so the controller that holds this
    solver is the explicit owner of its stack: nothing is pinned in a
    global cache, and dropping the controller reclaims the model.

    The solved problem family is ``min cost @ x`` subject to
    ``a_ub x <= b_ub`` and ``a_eq x = b_eq`` per block, where only the
    ``varying_eq_rows`` entries of ``b_eq`` differ between blocks and
    between calls (the RMPC initial-state pattern).  The model's capacity
    is ``min(next power of two >= k, chunk_size)`` over the batches
    solved since the last release; a larger batch rebuilds it once, a
    smaller one solves on its leading blocks, and a batch above
    ``chunk_size`` runs chunk by chunk through it.  A fresh model parks
    its spare blocks at the building batch's first row — a duplicate of
    a feasible row is feasible wherever the origin lies.  :meth:`release`
    drops the model, and so does a failed solve: the next solve is then
    cold on a fresh model.  Solves and releases hold a per-solver lock,
    so threads take turns.

    Args:
        cost: ``(n,)`` shared per-block objective.
        a_ub: ``(rows_ub, n)`` shared inequality block.
        b_ub: ``(rows_ub,)`` shared inequality RHS.
        a_eq: ``(rows_eq, n)`` shared equality block.
        b_eq: ``(rows_eq,)`` base equality RHS (varying entries are
            overwritten per solve).
        varying_eq_rows: Indices into the equality rows that change per
            block / per call.
        chunk_size: The model's largest capacity.
    """

    def __init__(
        self,
        cost,
        a_ub,
        b_ub,
        a_eq,
        b_eq,
        varying_eq_rows,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.cost = np.asarray(cost, dtype=float)
        self.a_ub = _as_csr_block(a_ub)
        self.b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        self.a_eq = _as_csr_block(a_eq)
        self.b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        self.varying_eq_rows = np.asarray(varying_eq_rows, dtype=np.int64)
        self.block_cols = self.a_ub.shape[1]
        self.rows_ub = self.a_ub.shape[0]
        self.rows_eq = self.a_eq.shape[0]
        if self.cost.size != self.block_cols:
            raise ValueError("cost length must match the block column count")
        if self.a_eq.shape[1] != self.block_cols:
            raise ValueError("a_ub and a_eq must share a column count")
        if self.varying_eq_rows.size and (
            self.varying_eq_rows.min() < 0
            or self.varying_eq_rows.max() >= self.rows_eq
        ):
            raise ValueError("varying_eq_rows outside the equality rows")
        self.chunk_size = int(chunk_size)
        self._model: Optional[_ChunkModel] = None
        self._lock = threading.Lock()
        self.model_builds = 0
        self.solve_calls = 0

    def _model_for(self, values: np.ndarray) -> _ChunkModel:
        """The model, rebuilt first if it cannot hold ``len(values)``."""
        capacity = min(1 << (len(values) - 1).bit_length(), self.chunk_size)
        model = self._model
        if model is None or model.blocks < capacity:
            self._release()
            model = self._model = _ChunkModel(self, capacity, values[0])
            self.model_builds += 1
            _telemetry().inc("lp_persistent_model_builds_total")
            logger.debug(
                "persistent HiGHS model built (%d blocks, %d built)",
                capacity, self.model_builds,
            )
        return model

    def solve_batch(self, values) -> List[LPSolution]:
        """Solve ``k`` blocks whose varying equality RHS rows are ``values``.

        Args:
            values: ``(k, len(varying_eq_rows))`` per-block RHS entries.

        Returns:
            ``k`` :class:`~repro.utils.lp.LPSolution`, aligned with the
            input rows.  Nothing partial: if any chunk fails the whole
            batch raises and no chunk's results are returned, so callers
            can fall back to scalar solves without double counting.  A
            failure also drops the model, so the next call solves as a
            fresh solver would.

        Raises:
            LPError: If any chunk's solve does not reach optimality or
                fails the residual check.
        """
        V = np.atleast_2d(np.asarray(values, dtype=float))
        k = V.shape[0]
        if k == 0:
            return []
        if V.shape[1] != self.varying_eq_rows.size:
            raise ValueError(
                f"values have {V.shape[1]} columns, expected "
                f"{self.varying_eq_rows.size} varying equality rows"
            )
        points = np.empty((k, self.block_cols))
        with self._lock:
            self.solve_calls += 1
            try:
                model = self._model_for(V)
                for start in range(0, k, model.blocks):
                    stop = min(start + model.blocks, k)
                    points[start:stop] = model.solve(V[start:stop])
            except LPError:
                self._release()
                raise
        costs = points @ self.cost
        return [
            LPSolution(x=points[i], value=float(costs[i]), status=0)
            for i in range(k)
        ]

    @property
    def warm_solves(self) -> int:
        """Solves served by the current model after its first (basis
        reuse)."""
        return max(0, self._model.solves - 1) if self._model else 0

    def _release(self) -> None:
        if self._model is not None:
            self._model.release()
            self._model = None

    def release(self) -> None:
        """Free the persistent model; the next solve builds a fresh one
        and starts cold."""
        with self._lock:
            self._release()
