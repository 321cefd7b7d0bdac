"""The LP layer: every LP of the package, solved on scipy's bundled HiGHS.

Both halves of the method are LPs (certifying XI/X′ offline, the RMPC κ_R
online), and most of their time used to go to :func:`scipy.optimize.linprog`'s
Python wrapper rather than to HiGHS.  One class, :class:`HighsModel`,
drives the HiGHS class scipy ships (``scipy.optimize._highspy._core._Highs``)
directly: it takes prebuilt CSC arrays (:class:`LPMatrix`, cached per
constraint set, so a repeated solve only rewrites right-hand sides), sets
exactly ``linprog(method="highs")``'s options (presolve on, dual simplex,
output off) and keeps ``linprog``'s status mapping and residual check — so
every cold solve returns the bitwise-identical status, ``x`` and objective.
It serves three routes:

* a cold solve (:func:`solve_prepared`, and every wrapper on it), one
  build and one run;
* the serial redundancy loop of
  :meth:`repro.geometry.HPolytope.remove_redundancies`, which frees a row,
  sets the cost and re-runs one model warm;
* the κ_R stack, one padded model per :class:`PersistentStackSolver`
  whose initial-state rows are rewritten and re-run warm.

The private core is imported behind a guard and checked against ``linprog``
on a small LP at import; if it is missing or disagrees, a warning is logged,
every cold solve goes through ``linprog`` (``lp_adapter_fallbacks_total``)
and no warm model is built.  Every solve counts one
``lp_solves_total{path}``: ``scalar`` and ``stacked`` for a cold solve,
``persistent`` for a warm κ_R stack, ``warm`` for a redundancy re-solve.
Variables are always free; the public wrappers raise :class:`LPError` on
solver failure.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from ..observability.metrics import registry as _telemetry

logger = logging.getLogger(__name__)

__all__ = [
    "LPError",
    "LPSolution",
    "LPMatrix",
    "LPOutcome",
    "HighsModel",
    "PersistentStackSolver",
    "STACK_CHUNK_SIZE",
    "highs_core",
    "solve_prepared",
    "solve_lp",
    "lp_feasible",
    "maximize",
    "solve_lp_batch",
    "maximize_batch",
]

#: Solves by ``path`` (``scalar`` / ``stacked`` / ``persistent`` / ``warm``).
LP_SOLVES_METRIC = "lp_solves_total"

#: Solves routed through ``linprog`` because the core is unusable.
FALLBACK_METRIC = "lp_adapter_fallbacks_total"

#: ``linprog``'s residual tolerance (``_check_result``: ``sqrt(1e-9) * 10``).
_RESIDUAL_TOL = float(np.sqrt(1e-9) * 10)


class LPError(RuntimeError):
    """Raised when an LP that was expected to solve does not.

    ``status`` is ``linprog``'s status code of the failed solve (2
    infeasible, 3 unbounded, 4 numerical trouble) when one is known.
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class LPOutcome(NamedTuple):
    """``linprog``'s status, point, objective and message for one solve
    (``x`` and ``fun`` are None unless HiGHS reports optimal)."""

    status: int
    x: Optional[np.ndarray]
    fun: Optional[float]
    message: str

    @property
    def success(self) -> bool:
        return self.status == 0


class LPMatrix:
    """``[A_ub; A_eq]`` as the CSC arrays ``linprog`` would hand HiGHS."""

    __slots__ = ("indptr", "indices", "data", "rows_ub", "rows_eq", "cols")

    def __init__(self, indptr, indices, data, rows_ub: int, rows_eq: int):
        if not np.isfinite(data).all():
            raise ValueError("constraint matrices must be finite")
        self.indptr, self.indices, self.data = indptr, indices, data
        self.rows_ub, self.rows_eq = int(rows_ub), int(rows_eq)
        self.cols = len(indptr) - 1

    @classmethod
    def from_blocks(cls, a_ub, a_eq, cols: int) -> "LPMatrix":
        """Combine dense or sparse blocks (either may be None)."""
        sparse = sp.issparse(a_ub) or sp.issparse(a_eq)
        if not sparse:
            a_ub, a_eq = (None if b is None else np.asarray(b, dtype=float)
                          for b in (a_ub, a_eq))
        blocks = [b for b in (a_ub, a_eq) if b is not None]
        for block in blocks:
            if block.ndim != 2 or block.shape[1] != cols:
                raise ValueError(
                    f"constraint matrix of shape {block.shape} does not "
                    f"match the {cols} variables"
                )
        rows_ub = 0 if a_ub is None else a_ub.shape[0]
        rows_eq = 0 if a_eq is None else a_eq.shape[0]
        if sparse:  # linprog's own route: COO blocks stacked into CSC
            csc = sp.vstack(
                [sp.coo_array(b, dtype=float) for b in blocks], format="csc"
            )
            csc.sort_indices()
            return cls(csc.indptr, csc.indices, csc.data, rows_ub, rows_eq)
        # Dense: the nonzeros of the transpose's rows are the CSC columns.
        dense_t = (np.vstack(blocks) if blocks else np.zeros((0, cols))).T
        nonzero = dense_t != 0
        indptr = np.zeros(cols + 1, dtype=np.int32)
        np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
        indices = np.nonzero(nonzero)[1].astype(np.int32)
        return cls(indptr, indices, dense_t[nonzero], rows_ub, rows_eq)

    @classmethod
    def stacked(cls, a_ub, a_eq, k: int) -> "LPMatrix":
        """``[diag(a_ub, …); diag(a_eq, …)]`` for ``k`` blocks.

        Built from the one-block combined CSC: ``data`` is tiled and
        ``indices``/``indptr`` are shifted per block, with every block's
        equality rows after all ``k · rows_ub`` inequality rows.  The arrays
        and their dtypes equal those of ``scipy.sparse.block_diag`` followed
        by :meth:`from_blocks`, so HiGHS sees identical input.
        """
        if sp.issparse(a_ub) or sp.issparse(a_eq):
            a_ub, a_eq = (None if b is None else _as_csr_block(b)
                          for b in (a_ub, a_eq))
        one = cls.from_blocks(a_ub, a_eq, np.shape(a_ub)[1])
        rows_ub, rows_eq, nnz = one.rows_ub, one.rows_eq, one.data.size
        # scipy's index dtype rule: int32 unless a dimension or nnz overflows.
        biggest = k * max(rows_ub + rows_eq, one.cols, nnz)
        dtype = np.int32 if biggest <= np.iinfo(np.int32).max else np.int64
        block = np.arange(k, dtype=np.int64)[:, None]
        ub = one.indices < rows_ub
        base = np.where(ub, one.indices, one.indices + (k - 1) * rows_ub)
        shift = np.where(ub, rows_ub, rows_eq)
        indptr = np.empty(k * one.cols + 1, dtype=dtype)
        indptr[:-1] = (one.indptr[:-1] + block * nnz).ravel()
        indptr[-1] = k * nnz
        indices = (base + block * shift).ravel().astype(dtype)
        return cls(indptr, indices, np.tile(one.data, k),
                   k * rows_ub, k * rows_eq)

    def blocks(self):
        """``(A_ub, A_eq)`` as sparse matrices (None when empty)."""
        csc = sp.csc_array(
            (self.data, self.indices, self.indptr),
            shape=(self.rows_ub + self.rows_eq, self.cols),
        )
        return (csc[: self.rows_ub] if self.rows_ub else None,
                csc[self.rows_ub :] if self.rows_eq else None)


class _Core:
    """The checked private core module and ``linprog``'s option set."""

    def __init__(self, module):
        self.module = module
        status = module.HighsModelStatus
        # linprog's mapping; every status not listed maps to 4.
        self.status_map = {
            status.kOptimal: 0, status.kTimeLimit: 1,
            status.kIterationLimit: 1, status.kInfeasible: 2,
            status.kModelError: 2, status.kUnbounded: 3,
        }
        self.optimal = status.kOptimal
        self.model_error = status.kModelError
        self.error = module.HighsStatus.kError
        self.options = options = module.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = module.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = (
            module.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )


class HighsModel:
    """One LP on the checked bundled core, passed once and edited in place.

    The LP is ``min cost @ x`` over free variables, with the first
    ``matrix.rows_ub`` rows bounded above by ``row_upper`` and the rest
    pinned to it, under ``linprog``'s options.  Edits change the model
    HiGHS holds: :meth:`set_rhs` rewrites right-hand sides,
    :meth:`free_row` unbounds an inequality row until :meth:`restore_row`
    bounds it again, and :meth:`set_cost` replaces the cost.  :meth:`run`
    solves the model as it stands, from the previous run's basis (so only
    the first run presolves and factorises from scratch), and maps the
    result as ``linprog`` does: its status mapping, then its residual
    check against ``row_upper``, the mirror of the row upper bounds HiGHS
    holds (a freed row at ``+inf``).  A cold solve is one build and one
    run; the redundancy loop builds with :meth:`over` and re-solves with
    :meth:`maximize_freed`.

    A model mutates in place and belongs to one caller at a time.
    """

    __slots__ = ("rows_ub", "row_upper", "runs", "passed",
                 "_core", "_highs", "_rhs")

    def __init__(self, core: _Core, cost, matrix: LPMatrix, row_upper):
        self._core = core
        self.rows_ub = rows_ub = matrix.rows_ub
        self._rhs = np.array(row_upper, dtype=float)
        self.row_upper = self._rhs.copy()
        row_lower = self._rhs.copy()
        row_lower[:rows_ub] = -np.inf
        module = core.module
        lp = module.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = matrix.cols
        lp.num_row_ = lp.a_matrix_.num_row_ = row_lower.size
        lp.a_matrix_.format_ = module.MatrixFormat.kColwise
        lp.col_cost_ = cost
        lp.col_lower_ = np.full(matrix.cols, -np.inf)
        lp.col_upper_ = np.full(matrix.cols, np.inf)
        lp.row_lower_ = row_lower
        lp.row_upper_ = self.row_upper
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        self._highs = highs = module._Highs()
        highs.passOptions(core.options)
        #: False when HiGHS rejected the model: every run then reports
        #: ``kModelError``.
        self.passed = highs.passModel(lp) != core.error
        #: Runs so far; every run after the first starts warm.
        self.runs = 0

    @classmethod
    def build(cls, cost, matrix: LPMatrix, row_upper) -> Optional["HighsModel"]:
        """A model, or None when the bundled core is unusable, a bound is
        not finite or HiGHS rejects the model."""
        core = _core
        if core is None or not np.isfinite(row_upper).all():
            return None
        model = cls(core, cost, matrix, row_upper)
        return model if model.passed else None

    @classmethod
    def over(cls, H, h) -> Optional["HighsModel"]:
        """A zero-cost model over ``{x : H x <= h}`` for
        :meth:`maximize_freed`, or None as from :meth:`build`."""
        H = np.asarray(H, dtype=float)
        cols = H.shape[1]
        return cls.build(np.zeros(cols), LPMatrix.from_blocks(H, None, cols), h)

    def set_rhs(self, rows, values) -> None:
        """Rewrite the right-hand sides of ``rows`` (an inequality row's
        upper bound, an equality row's value) to ``values``."""
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        self._rhs[rows] = self.row_upper[rows] = values
        lower = np.where(rows < self.rows_ub, -np.inf, values)
        change = self._highs.changeRowBounds
        for row, low, value in zip(rows.tolist(), lower.tolist(),
                                   values.tolist()):
            change(row, low, value)

    def free_row(self, i: int) -> None:
        """Unbound inequality row ``i``: it drops out of every later run
        until :meth:`restore_row`."""
        self._highs.changeRowBounds(i, -np.inf, np.inf)
        self.row_upper[i] = np.inf

    def restore_row(self, i: int) -> None:
        """Bound inequality row ``i`` at its right-hand side again."""
        self._highs.changeRowBounds(i, -np.inf, self._rhs[i])
        self.row_upper[i] = self._rhs[i]

    def set_cost(self, cost) -> None:
        """Replace the cost vector."""
        cols = np.arange(len(cost), dtype=np.int32)
        self._highs.changeColsCost(cols.size, cols, cost)

    def maximize_freed(self, i: int, direction) -> LPOutcome:
        """Minimise ``-direction @ x`` with row ``i`` freed (so the maximum
        of ``direction @ x`` is ``-fun``), warm, counted as ``warm`` — the
        redundancy loop's re-solve.  A failed HiGHS run is status 4, so
        the loop decides the row by a cold LP."""
        self.free_row(i)
        self.set_cost(-direction)
        return self.run("warm", on_failure=4)

    def run(self, path: Optional[str] = None,
            on_failure: Optional[int] = None) -> LPOutcome:
        """Solve the model as it stands (warm after the first run).

        Args:
            path: The ``lp_solves_total`` label to count the solve under
                (None counts nothing).
            on_failure: The status to report when HiGHS's ``run`` itself
                fails; by default ``linprog``'s mapping of the model
                status.

        Returns:
            ``linprog``'s status, point and objective; status 4 when the
            optimal point fails the residual check.
        """
        if path is not None:
            _telemetry().inc(LP_SOLVES_METRIC, path=path)
        core, highs = self._core, self._highs
        self.runs += 1
        status, failed = core.model_error, False
        if self.passed:
            failed = highs.run() == core.error
            status = highs.getModelStatus()
            if not failed and status == core.optimal:
                return self._checked()
        code = core.status_map.get(status, 4)
        if failed and on_failure is not None:
            code = on_failure
        return LPOutcome(code, None, None, highs.modelStatusToString(status))

    def _checked(self) -> LPOutcome:
        """The optimal point, demoted to status 4 when a residual is beyond
        the tolerance (``linprog``'s ``_check_result``)."""
        highs, rows_ub = self._highs, self.rows_ub
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        fun = highs.getInfo().objective_function_value
        slack = self.row_upper - np.array(solution.row_value)
        if (
            np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or (slack[:rows_ub] < -_RESIDUAL_TOL).any()
            or (np.abs(slack[rows_ub:]) > _RESIDUAL_TOL).any()
        ):
            return LPOutcome(4, x, fun, "solution violates the constraints")
        return LPOutcome(0, x, fun, "Optimal")


def _run_linprog(c, matrix: LPMatrix, b_ub, b_eq) -> LPOutcome:
    """The same LP through :func:`scipy.optimize.linprog` (the reference)."""
    a_ub, a_eq = matrix.blocks()
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub if matrix.rows_ub else None,
        A_eq=a_eq, b_eq=b_eq if matrix.rows_eq else None,
        bounds=(None, None), method="highs",
    )
    x = None if res.x is None else np.asarray(res.x, dtype=float)
    return LPOutcome(int(res.status), x, res.fun, str(res.message))


def _import_core():
    from scipy.optimize._highspy import _core

    return _core


def _self_test(core: _Core) -> bool:
    """A small sparse LP with inequality and equality rows, solved by the
    core and by ``linprog``: True iff bitwise-identical."""
    c = np.array([1.0, 2.0, -1.0])
    a_ub = sp.csr_matrix([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0],
                          [-1.0, 0.0, 2.0], [-1.0, -1.0, -1.0]])
    b = np.array([4.0, 1.0, 3.0, 2.0, 0.5])
    matrix = LPMatrix.from_blocks(a_ub, np.array([[1.0, -1.0, 0.5]]), 3)
    fast = HighsModel(core, c, matrix, b).run()
    slow = _run_linprog(c, matrix, b[:4], b[4:])
    return (fast.status == slow.status == 0
            and fast.x.tobytes() == slow.x.tobytes()
            and np.float64(fast.fun).tobytes()
            == np.float64(slow.fun).tobytes())


def _load_core() -> Optional[_Core]:
    """The checked core, or None (warning logged) to use ``linprog``."""
    try:
        core = _Core(_import_core())
        if not _self_test(core):
            raise RuntimeError("self-test disagrees with linprog")
        return core
    except Exception as exc:  # noqa: BLE001 - any failure means "fall back"
        logger.warning(
            "scipy's bundled HiGHS core is unusable (%s: %s); every LP goes "
            "through scipy.optimize.linprog", type(exc).__name__, exc,
        )
        return None


_core: Optional[_Core] = _load_core()


def highs_core() -> Optional[_Core]:
    """The checked bundled core, or None when every LP falls back to
    ``linprog``."""
    return _core


def solve_prepared(
    c, matrix: LPMatrix, b_ub, b_eq=None, path: str = "scalar"
) -> LPOutcome:
    """Minimise ``c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq`` over a
    prepared :class:`LPMatrix` — the adapter every LP goes through.

    Raises:
        ValueError: On shape mismatches or non-finite data (as ``linprog``).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    b_ub = np.asarray(() if b_ub is None else b_ub, dtype=float).reshape(-1)
    b_eq = np.asarray(() if b_eq is None else b_eq, dtype=float).reshape(-1)
    if (c.size, b_ub.size, b_eq.size) != (
        matrix.cols, matrix.rows_ub, matrix.rows_eq
    ):
        raise ValueError(
            f"(c, b_ub, b_eq) sizes {(c.size, b_ub.size, b_eq.size)} do not "
            f"match the constraints' {(matrix.cols, matrix.rows_ub, matrix.rows_eq)}"
        )
    row_upper = np.concatenate([b_ub, b_eq])
    if not (np.isfinite(c).all() and np.isfinite(row_upper).all()):
        raise ValueError("c, b_ub and b_eq must be finite")
    core = _core
    if core is None:
        reg = _telemetry()
        reg.inc(LP_SOLVES_METRIC, path=path)
        reg.inc(FALLBACK_METRIC, path=path)
        return _run_linprog(c, matrix, b_ub, b_eq)
    return HighsModel(core, c, matrix, row_upper).run(path)


# ----------------------------------------------------------------------
# Block-diagonal stacks
# ----------------------------------------------------------------------
def _as_csr_block(matrix):
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def _stack_rhs(rhs, k: int, rows: int, name: str) -> np.ndarray:
    """Tile a shared ``(rows,)`` RHS or flatten a per-block ``(k, rows)`` one."""
    arr = np.asarray(rhs, dtype=float)
    if arr.ndim == 1:
        if arr.size != rows:
            raise ValueError(
                f"{name} has {arr.size} entries, constraints have {rows} rows"
            )
        return np.tile(arr, k)
    if arr.ndim == 2:
        if arr.shape != (k, rows):
            raise ValueError(
                f"per-block {name} must have shape ({k}, {rows}), "
                f"got {arr.shape}"
            )
        return arr.reshape(-1)
    raise ValueError(f"{name} must be 1-D (shared) or 2-D (per-block)")


#: The largest model a :class:`PersistentStackSolver` builds: batches
#: above it run chunk by chunk through the same model, since the single
#: stacked solve's superlinear tail would otherwise eat the warm-start
#: amortisation.
STACK_CHUNK_SIZE = 1024


class PersistentStackSolver:
    """Warm-started persistent-HiGHS solver for one controller's stack —
    the κ_R route of :meth:`repro.controllers.rmpc.RobustMPC.solve_batch`.

    Owns everything the stacked solves need — the scalar block data
    *and* the one padded :class:`HighsModel` — so the controller that
    holds this solver is the explicit owner of its stack: nothing is
    pinned in a global cache, and dropping the controller reclaims the
    model.

    The solved problem family is ``min cost @ x`` subject to
    ``a_ub x <= b_ub`` and ``a_eq x = b_eq`` per block, where only the
    ``varying_eq_rows`` entries of ``b_eq`` differ between blocks and
    between calls (the RMPC initial-state pattern).  The model's capacity
    is ``min(next power of two >= k, STACK_CHUNK_SIZE)`` over the batches
    solved since the last release; a larger batch rebuilds it once, a
    smaller one solves on its leading blocks, and a larger batch than
    :data:`STACK_CHUNK_SIZE` runs chunk by chunk through it.  A solve of
    ``k`` rows rewrites only the first ``k`` blocks' varying rows and
    re-runs from the previous solve's basis; the spare blocks keep their
    last — feasible, already optimal — right-hand side, so the simplex
    does no work on them, and a fresh model parks them at the building
    batch's first row (a duplicate of a feasible row is feasible wherever
    the origin lies).  A warm solve attains the cold optimal cost but may
    land on a different optimal *vertex* of a degenerate LP (the
    plan-equivalent tier of :mod:`repro.framework.lockstep`).

    :meth:`release` drops the model, and so does a failed solve: the
    next solve is then cold on a fresh model.  ``RobustMPC.reset()`` —
    called at the start of every engine run — releases, so a run's plans
    (and its model-build counts) depend only on that run's batches.
    Solves and releases hold a per-solver lock, so threads sharing one
    solver take turns; ``RobustMPC`` keeps one solver per thread.

    Args:
        cost: ``(n,)`` shared per-block objective.
        a_ub: ``(rows_ub, n)`` shared inequality block.
        b_ub: ``(rows_ub,)`` shared inequality RHS.
        a_eq: ``(rows_eq, n)`` shared equality block.
        b_eq: ``(rows_eq,)`` base equality RHS (varying entries are
            overwritten per solve).
        varying_eq_rows: Indices into the equality rows that change per
            block / per call.
    """

    def __init__(self, cost, a_ub, b_ub, a_eq, b_eq, varying_eq_rows):
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
        self._model: Optional[HighsModel] = None
        self._capacity = 0
        self._vary_idx = np.zeros(0, dtype=np.int64)
        self._lock = threading.Lock()
        self.model_builds = 0

    def _model_for(self, values: np.ndarray) -> HighsModel:
        """The model, rebuilt first if it cannot hold ``len(values)``."""
        capacity = min(1 << (len(values) - 1).bit_length(), STACK_CHUNK_SIZE)
        if self._model is None or self._capacity < capacity:
            self._model = None
            self._build(capacity, values[0])
            self.model_builds += 1
            _telemetry().inc("lp_persistent_model_builds_total")
            logger.debug(
                "persistent HiGHS model built (%d blocks, %d built)",
                capacity, self.model_builds,
            )
        return self._model

    def _build(self, k: int, park) -> None:
        """Pass a ``k``-block model with every block's varying rows parked
        at ``park``."""
        core = _core
        if core is None:
            raise LPError("the bundled HiGHS core is unavailable")
        b_eq = self.b_eq.copy()
        b_eq[self.varying_eq_rows] = park
        self._model = HighsModel(
            core, np.tile(self.cost, k),
            LPMatrix.stacked(self.a_ub, self.a_eq, k),
            np.concatenate([np.tile(self.b_ub, k), np.tile(b_eq, k)]),
        )
        self._capacity = k
        # Flat row indices of the varying equality entries, block-major:
        # block i's varying rows live at rows_ub*k + i*rows_eq + varying.
        offsets = self.rows_ub * k + self.rows_eq * np.arange(k, dtype=np.int64)
        self._vary_idx = (
            offsets[:, None] + self.varying_eq_rows[None, :]
        ).reshape(-1)

    def solve(self, values: np.ndarray) -> np.ndarray:
        """One chunk on the current model: rewrite the leading
        ``len(values)`` blocks' varying RHS, re-run warm and return those
        blocks' optimal points.  :meth:`solve_batch`, the entry point,
        builds the model, splits the batch and holds the lock."""
        model = self._model
        model.set_rhs(self._vary_idx[: values.size], values.reshape(-1))
        # A failed HiGHS run fails the batch even when the model status
        # still reads optimal (it would map to 0 with no point).
        outcome = model.run("persistent", on_failure=4)
        # The first run of a freshly-passed model factorises from
        # scratch; every later one warm-starts from the incumbent basis.
        _telemetry().inc(
            "lp_persistent_solves_total",
            start="warm" if model.runs > 1 else "cold",
        )
        if not outcome.success:
            raise LPError(
                f"persistent stacked LP ({self._capacity} blocks) failed: "
                f"{outcome.message}"
            )
        return outcome.x.reshape(self._capacity, self.block_cols)[
            : len(values)
        ]

    def solve_batch(self, values) -> List[LPSolution]:
        """Solve ``k`` blocks whose varying equality RHS rows are ``values``.

        Args:
            values: ``(k, len(varying_eq_rows))`` per-block RHS entries.

        Returns:
            ``k`` :class:`LPSolution`, aligned with the input rows.
            Nothing partial: if any chunk fails the whole batch raises and
            no chunk's results are returned, so callers can fall back to
            scalar solves without double counting.  A failure also drops
            the model, so the next call solves as a fresh solver would.

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
            try:
                self._model_for(V)
                for start in range(0, k, self._capacity):
                    stop = min(start + self._capacity, k)
                    points[start:stop] = self.solve(V[start:stop])
            except LPError:
                self._model = None
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
        return max(0, self._model.runs - 1) if self._model else 0

    def release(self) -> None:
        """Free the persistent model; the next solve builds a fresh one
        and starts cold."""
        with self._lock:
            self._model = None


# ----------------------------------------------------------------------
# Public wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LPSolution:
    """Result of a successful LP solve.

    Attributes:
        x: Optimal point.
        value: Optimal objective value (of the *minimisation*).
        status: scipy status code (0 = optimal).
    """

    x: np.ndarray
    value: float
    status: int


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPSolution:
    """Minimise ``c @ x`` subject to ``a_ub @ x <= b_ub`` and equalities,
    over free variables.

    Raises:
        LPError: If the problem is infeasible, unbounded, or the solver
            fails numerically.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    res = solve_prepared(c, LPMatrix.from_blocks(a_ub, a_eq, c.size), b_ub, b_eq)
    if not res.success:
        raise LPError(
            f"LP failed (status={res.status}): {res.message}", res.status
        )
    return LPSolution(x=res.x, value=float(res.fun), status=res.status)


def lp_feasible(a_ub, b_ub, a_eq=None, b_eq=None) -> bool:
    """Return True iff ``{x : a_ub x <= b_ub, a_eq x = b_eq}`` is non-empty."""
    n = np.shape(a_ub)[1]
    res = solve_prepared(
        np.zeros(n), LPMatrix.from_blocks(a_ub, a_eq, n), b_ub, b_eq
    )
    # Status 2 is "infeasible"; anything else with success=False is a real
    # solver failure that the caller should see.
    if res.success:
        return True
    if res.status == 2:
        return False
    raise LPError(
        f"feasibility LP failed (status={res.status}): {res.message}",
        res.status,
    )


def solve_lp_batch(
    objectives, a_ub, b_ub, a_eq=None, b_eq=None
) -> List[LPSolution]:
    """Minimise every row of ``objectives`` over shared block constraints.

    The ``k`` independent problems ``min c_i @ x  s.t.  a_ub x <= b_ub_i,
    a_eq x = b_eq_i`` are assembled into a single block-diagonal LP
    (variables ``[x_1 … x_k]``, constraints ``diag(a_ub, …, a_ub)`` and
    ``diag(a_eq, …, a_eq)``) and handed to HiGHS in one call — replacing
    a Python loop of ``k`` scalar solves.  The constraint matrices are
    shared across blocks; the right-hand sides may be shared (1-D, tiled
    to every block) or per-block (2-D ``(k, rows)``), which is what lets
    :meth:`repro.controllers.rmpc.RobustMPC.solve_batch` stack ``k``
    Eq.-5 problems that differ only in their initial-state equalities.

    The stack is built sparse (memory ``O(k · nnz)``) as a combined CSC
    :class:`LPMatrix`, fresh per call (tens of µs: the one-block CSC
    tiled ``k`` times), which suits one-off stacks such as synthesis's
    :func:`maximize_batch`.  The RMPC's per-step stacks, which differ
    only in equality right-hand sides from call to call, are solved
    warm on a :class:`PersistentStackSolver` instead.

    Because the blocks are fully decoupled, the stacked optimum restricted
    to block ``i`` attains exactly the optimal *value* of problem ``i``
    (when an LP has multiple optima the returned vertex may differ from
    the one a scalar solve picks — see the two-tier determinism contract
    in :mod:`repro.framework.lockstep`).

    Args:
        objectives: ``(k, n)`` per-block cost rows.
        a_ub: Shared inequality block (dense or scipy sparse).
        b_ub: ``(rows,)`` shared or ``(k, rows)`` per-block RHS.
        a_eq: Optional shared equality block.
        b_eq: ``(rows_eq,)`` shared or ``(k, rows_eq)`` per-block RHS;
            required iff ``a_eq`` is given.

    Raises:
        LPError: If the stacked LP fails.  Any single infeasible or
            unbounded block makes the whole stack fail, so per-block
            failure attribution is lost — callers that need it should
            fall back to scalar :func:`solve_lp` calls.
    """
    if (a_eq is None) != (b_eq is None):
        raise ValueError("a_eq and b_eq must be given together")
    C = np.atleast_2d(np.asarray(objectives, dtype=float))
    k = C.shape[0]
    if k == 0:
        return []
    rows, n = a_ub.shape if sp.issparse(a_ub) else np.asarray(a_ub).shape
    if C.shape[1] != n:
        raise ValueError(
            f"objectives have {C.shape[1]} columns, constraints have {n}"
        )
    if k == 1:
        b = np.asarray(b_ub, dtype=float).reshape(-1)
        be = None if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
        return [solve_lp(C[0], a_ub=a_ub, b_ub=b, a_eq=a_eq, b_eq=be)]
    matrix = LPMatrix.stacked(a_ub, a_eq, k)
    stacked_b = _stack_rhs(b_ub, k, rows, "b_ub")
    stacked_b_eq = None
    if a_eq is not None:
        stacked_b_eq = _stack_rhs(b_eq, k, a_eq.shape[0], "b_eq")
    res = solve_prepared(
        C.reshape(-1), matrix, stacked_b, stacked_b_eq, path="stacked"
    )
    if not res.success:
        raise LPError(
            f"stacked LP ({k} blocks) failed (status={res.status}): "
            f"{res.message}", res.status,
        )
    X = res.x.reshape(k, n)
    values = np.einsum("ij,ij->i", C, X)
    return [
        LPSolution(x=X[i], value=float(values[i]), status=res.status)
        for i in range(k)
    ]


def maximize_batch(directions, a_ub, b_ub) -> np.ndarray:
    """Support values ``max d_i @ x`` for every row of ``directions``.

    One stacked block-diagonal LP (see :func:`solve_lp_batch`) instead of
    a loop of :func:`maximize` calls.

    Returns:
        Float array of per-direction maxima (signs already flipped back).

    Raises:
        LPError: If the region is empty or unbounded in any direction.
    """
    D = np.atleast_2d(np.asarray(directions, dtype=float))
    solutions = solve_lp_batch(-D, a_ub, b_ub)
    return np.array([-sol.value for sol in solutions])


def maximize(objective, a_ub, b_ub) -> LPSolution:
    """Maximise ``objective @ x`` over ``{x : a_ub x <= b_ub}``.

    Returns:
        An :class:`LPSolution` whose ``value`` is the *maximum* (sign
        already flipped back).

    Raises:
        LPError: If infeasible or unbounded.
    """
    objective = np.asarray(objective, dtype=float)
    sol = solve_lp(-objective, a_ub=a_ub, b_ub=b_ub)
    return LPSolution(x=sol.x, value=-sol.value, status=sol.status)
