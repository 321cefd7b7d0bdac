"""The warm-started persistent stacked solve behind
:meth:`repro.controllers.rmpc.RobustMPC.solve_batch`.

A :class:`PersistentStackSolver` keeps one HiGHS model (on scipy's bundled
core, :mod:`repro.utils.lp`) per chunk size.  Each solve only rewrites the
varying equality rows (``changeRowBounds``) and re-runs from the previous
solve's basis — across lockstep steps the stack changes in nothing else.
A warm solve attains the cold optimal cost but may land on a different
optimal *vertex* of a degenerate LP (the plan-equivalent tier of
:mod:`repro.framework.lockstep`).

A backend *request* (``"auto"``, ``"highs"`` or ``"scipy"``) is set per
controller only — ``RobustMPC``'s ``lp_backend`` argument or
``RobustMPC.set_lp_backend``; no run, call or CLI option overrides it —
and :func:`resolve_backend` maps it to the effective backend:

* ``"highs"`` (the RMPC default) — warm, on a :class:`PersistentStackSolver`.
* ``"scipy"`` (and ``"auto"``, its alias) — cold: one fresh stacked solve
  per call (:func:`repro.utils.lp.solve_lp_batch`), bitwise-identical to
  ``linprog``.  ``"highs"`` resolves to ``"scipy"`` too when the core
  failed its import-time check.

``RobustMPC.reset()`` — called at the start of every engine run — drops
its models with :meth:`PersistentStackSolver.release`, so a run's plans
(and its model-build counts) depend only on that run's batches.
``exact_solves=True`` audits stay on the cold scalar path under every
backend.

Thread-safety: a :class:`PersistentStackSolver` mutates its HiGHS
instances in place, so solves and releases hold a per-solver lock and
threads sharing one solver take turns.  ``RobustMPC`` keeps one solver per
thread, so concurrent runs never see each other's warm starts.
"""

from __future__ import annotations

import logging
import threading
from typing import List

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

#: Batch sizes at or above this are split into fixed-size chunks, each
#: with its own persistent model: the single stacked solve's superlinear
#: tail would otherwise eat the warm-start amortisation, and fixed chunk
#: sizes keep the chunk models reusable when the batch size drifts
#: between steps (only the remainder chunk goes cold).
DEFAULT_CHUNK_SIZE = 1024

#: Persistent chunk models one solver keeps (LRU).  Every distinct batch
#: size below the chunk size needs its own model, each a full HiGHS
#: instance, so the cap bounds the memory of a solver whose batch size
#: drifts; a size that was evicted is rebuilt cold.
DEFAULT_MAX_MODELS = 2


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
    """One persistent HiGHS instance for a fixed chunk size.

    Holds the stacked model for ``blocks`` copies of the scalar block;
    built (``passModel``) exactly once, then every :meth:`solve` only
    rewrites the varying equality rows and re-runs — HiGHS reuses the
    incumbent basis, so repeated solves skip the from-scratch
    factorisation a cold solve pays every call.
    """

    def __init__(self, owner: "PersistentStackSolver", blocks: int):
        core = highs_core()
        if core is None:
            raise LPError("the bundled HiGHS core is unavailable")
        self._core = core
        self.blocks = k = int(blocks)
        matrix = LPMatrix.stacked(owner.a_ub, owner.a_eq, k)
        self._rows_ub = rows_ub = owner.rows_ub * k
        # Kept current as the varying rows change: the residual check
        # reads the model's right-hand sides from here.
        self._row_upper = np.concatenate(
            [np.tile(owner.b_ub, k), np.tile(owner.b_eq, k)]
        )
        row_lower = self._row_upper.copy()
        row_lower[:rows_ub] = -np.inf
        self._highs, _ = core.model(
            np.tile(owner.cost, k), matrix, row_lower, self._row_upper
        )

        # Flat row indices of the varying equality entries: block i's
        # varying rows live at rows_ub + i*rows_eq + varying.
        vary = np.asarray(owner.varying_eq_rows, dtype=np.int64)
        offsets = rows_ub + owner.rows_eq * np.arange(k, dtype=np.int64)
        self._vary_idx = (offsets[:, None] + vary[None, :]).reshape(-1)
        self._vary_rows = self._vary_idx.tolist()
        self._n = owner.block_cols
        self.solves = 0

    def solve(self, values: np.ndarray) -> np.ndarray:
        """Rewrite the varying equality RHS and re-solve (warm start).

        Args:
            values: ``(blocks, len(varying_eq_rows))`` per-block RHS.

        Returns:
            ``(blocks, block_cols)`` optimal points.

        Raises:
            LPError: If HiGHS does not reach optimality (infeasible,
                unbounded, or a numerical failure) or the point fails
                ``linprog``'s residual check.
        """
        highs = self._highs
        values = np.asarray(values, dtype=float).reshape(-1)
        self._row_upper[self._vary_idx] = values
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
        return outcome.x.reshape(self.blocks, self._n)

    def release(self) -> None:
        self._highs.clear()


class PersistentStackSolver:
    """Warm-started persistent-HiGHS solver for one controller's stack.

    Owns everything the stacked solves need — the scalar block data
    *and* the per-chunk-size HiGHS instances — so the controller that
    holds this solver is the explicit owner of its stacks: nothing is
    pinned in a global cache, and dropping the controller reclaims the
    models.

    The solved problem family is ``min cost @ x`` subject to
    ``a_ub x <= b_ub`` and ``a_eq x = b_eq`` per block, where only the
    ``varying_eq_rows`` entries of ``b_eq`` differ between blocks and
    between calls (the RMPC initial-state pattern).  Batches of ``k``
    blocks are split into chunks of at most ``chunk_size`` (see
    :data:`DEFAULT_CHUNK_SIZE`); each distinct chunk size keeps one
    persistent model, LRU-bounded by ``max_models``.  :meth:`release`
    drops every model, and so does a failed solve: the next solve of
    each chunk size is then cold on a fresh model.  Solves and releases
    hold a per-solver lock, so threads take turns.

    Args:
        cost: ``(n,)`` shared per-block objective.
        a_ub: ``(rows_ub, n)`` shared inequality block.
        b_ub: ``(rows_ub,)`` shared inequality RHS.
        a_eq: ``(rows_eq, n)`` shared equality block.
        b_eq: ``(rows_eq,)`` base equality RHS (varying entries are
            overwritten per solve).
        varying_eq_rows: Indices into the equality rows that change per
            block / per call.
        chunk_size: Chunk width for large batches.
        max_models: Persistent models kept across distinct chunk sizes.
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
        max_models: int = DEFAULT_MAX_MODELS,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
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
        self.max_models = int(max_models)
        self._models: dict = {}  # chunk size -> _ChunkModel (LRU order)
        self._lock = threading.Lock()
        self.model_builds = 0
        self.solve_calls = 0

    def _model(self, blocks: int) -> _ChunkModel:
        model = self._models.pop(blocks, None)
        if model is None:
            model = _ChunkModel(self, blocks)
            self.model_builds += 1
            _telemetry().inc("lp_persistent_model_builds_total")
            logger.debug(
                "persistent HiGHS chunk model built (%d blocks, %d built)",
                blocks, self.model_builds,
            )
            while len(self._models) >= self.max_models:
                self._models.pop(next(iter(self._models))).release()
        self._models[blocks] = model  # re-insert: LRU recency refresh
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
            failure also drops every model, so the next call solves as a
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
            start = 0
            try:
                while start < k:
                    stop = min(start + self.chunk_size, k)
                    points[start:stop] = self._model(stop - start).solve(
                        V[start:stop]
                    )
                    start = stop
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
        """Solves served by an already-built model (basis reuse)."""
        return sum(max(0, model.solves - 1) for model in self._models.values())

    def _release(self) -> None:
        for model in self._models.values():
            model.release()
        self._models.clear()

    def release(self) -> None:
        """Free every persistent model; the next solve of each chunk size
        builds a fresh one and starts cold."""
        with self._lock:
            self._release()
