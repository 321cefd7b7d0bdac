"""Robust model predictive control (paper Eq. 5).

The underlying safe controller of the ACC case study: a tube-style RMPC
with nominal prediction, recursively tightened state constraints and a
1-norm stage cost

    J(x(t)) = min  Σ_{k=0}^{N-1}  P ||x(k|t)||_1 + Q ||u(k|t)||_1
    s.t.    x(k+1|t) = A x(k|t) + B u(k|t)
            x(k|t) ∈ X(k),  u(k|t) ∈ U,  x(N|t) ∈ X_t,
            x(0|t) = x(t).

The 1-norm cost makes the whole problem a single LP, solved with HiGHS.
All constraint matrices are assembled once at construction (as sparse
CSR — the LP data is mostly structural zeros); each call only rewrites
the initial-state equality right-hand side, into a per-call copy.

Batch solving: :meth:`RobustMPC.solve_batch` stacks the ``k`` per-state
Eq.-5 problems into one block-diagonal HiGHS solve — the blocks share
every matrix and differ only in the initial-state equality RHS.  There
is one stacked route, for every batch size including one row: a
:class:`~repro.utils.lp.PersistentStackSolver` owned by this
controller keeps the stack in one padded persistent HiGHS model, only
rewrites the initial-state rows between calls, and starts each call
from the previous call's basis — whatever the batch size, which drifts
from step to step because κ_R runs only on the rows the monitor forces.
:meth:`RobustMPC.reset` releases the model, and every engine run starts
with ``reset()``: the run's first batch starts cold, on the kept model
when it needs the same capacity (re-parked and cleared, so it solves
exactly as a fresh build) and otherwise on a fresh one, so a run's
plans depend only on its own batches (a sharded ``jobs=k`` sweep equals
``jobs=1``).  Only when the bundled HiGHS core is unavailable does a
batch run the scalar :meth:`RobustMPC.solve` per row instead.

Each block attains exactly the scalar optimum *value*, but when an LP has
multiple optimal vertices the stacked solve may return a different one
than ``k`` scalar solves would (and a warm-started solve a different one
than a cold one) — the *plan-equivalent* tier of the determinism contract
(see :mod:`repro.framework.lockstep`), which is why the class declares
``bitwise_batch = False``.  The scalar path (and with it the
``exact_solves=True`` audit tier) is always the cold solve.

Thread-safety contract: after construction, the scalar solve paths
treat the assembled LP data as read-only (right-hand sides are modified
on per-call copies), so one controller instance is safe to share across
forked workers and re-entrant *scalar* calls.  :meth:`solve_batch`
mutates a persistent solver in place, so each thread gets its own
(built lazily; :meth:`reset` releases the calling thread's): threads
sharing a controller neither contend nor see each other's warm starts,
and a forked worker's runs start from ``reset()`` like any other run.
The remaining mutable state is the ``solve_count``
accounting counter, whose increments are not atomic — exact counts are
only guaranteed for unthreaded use (forked workers each count their own
copy).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.controllers.base import Controller
from repro.controllers.linear import lqr_gain
from repro.controllers.tightening import tightened_constraints
from repro.geometry import HPolytope
from repro.invariance.rci import maximal_rpi
from repro.observability.metrics import registry as _telemetry
from repro.systems.lti import DiscreteLTISystem
from repro.utils.lp import (
    LPError,
    LPMatrix,
    PersistentStackSolver,
    highs_core,
    solve_prepared,
)
from repro.utils.validation import as_vector

__all__ = [
    "RobustMPC",
    "RMPCInfeasibleError",
    "RMPCSolution",
    "build_terminal_set",
    "verify_plan_equivalence",
]


class RMPCInfeasibleError(RuntimeError):
    """Raised when the RMPC optimisation has no feasible solution at x."""


@dataclass
class RMPCSolution:
    """Full open-loop solution of one RMPC solve.

    Attributes:
        inputs: Planned inputs, shape ``(N, m)``.
        states: Predicted nominal states, shape ``(N+1, n)``.
        cost: Optimal objective value ``J(x)``.
    """

    inputs: np.ndarray
    states: np.ndarray
    cost: float


def build_terminal_set(
    system: DiscreteLTISystem,
    gain,
    state_constraint: HPolytope,
) -> HPolytope:
    """Terminal set ``X_t``: maximal robust positively invariant subset of
    ``state_constraint ∩ {x : K x ∈ U}`` under ``x⁺ = (A+BK) x + w``.

    This realises the premise of the paper's Proposition 1 — a robust
    local controller ``κ_L(x) = K x`` that keeps ``X_t`` invariant under
    the full disturbance.
    """
    K = np.atleast_2d(np.asarray(gain, dtype=float))
    closed_loop = system.closed_loop_matrix(K)
    input_region = system.input_set.linear_preimage(K)
    seed = state_constraint.intersect(input_region)
    result = maximal_rpi(closed_loop, seed, system.disturbance_set)
    return result.invariant_set


class RobustMPC(Controller):
    """The paper's RMPC κ_R (Eq. 5) as a single LP per step.

    Args:
        system: Constrained plant (provides A, B, X, U, W).
        horizon: Prediction horizon ``N`` (the paper uses 10).
        state_weight: ``P`` in the stage cost.
        input_weight: ``Q`` in the stage cost.
        terminal_set: ``X_t``.  When None, it is built from an LQR tube
            gain via :func:`build_terminal_set`.
        tube_gain: Feedback gain used only to build the default terminal
            set.  When None, an LQR gain with identity weights is used.
    """

    #: A stacked :meth:`solve_batch` may return a different optimal vertex
    #: than row-wise scalar solves when an LP has multiple optima, so the
    #: batch path is *plan-equivalent*, not bitwise (see the two-tier
    #: determinism contract in :mod:`repro.framework.lockstep`).
    bitwise_batch = False

    def __init__(
        self,
        system: DiscreteLTISystem,
        horizon: int = 10,
        state_weight: float = 1.0,
        input_weight: float = 1.0,
        terminal_set: Optional[HPolytope] = None,
        tube_gain=None,
    ):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.system = system
        self.horizon = int(horizon)
        self.state_weight = float(state_weight)
        self.input_weight = float(input_weight)
        self.input_dim = system.m

        if tube_gain is None:
            tube_gain = lqr_gain(
                system.A, system.B, np.eye(system.n), np.eye(system.m)
            )
        self.tube_gain = np.atleast_2d(np.asarray(tube_gain, dtype=float))

        self.tightened = tightened_constraints(
            system.safe_set, system.disturbance_set, self.horizon, system.A
        )
        if terminal_set is None:
            terminal_set = build_terminal_set(
                system, self.tube_gain, self.tightened[self.horizon]
            )
        self.terminal_set = terminal_set

        self._assemble_lp()
        # This controller owns its stacks: the persistent models live on
        # lazily-built PersistentStackSolvers, not in a module-level
        # cache, so dropping the controller reclaims them.  One solver
        # per thread: a run's warm starts must follow only that run's
        # batches, even while another thread runs the same (cached)
        # controller.
        self._persistent = threading.local()
        self._solve_count = 0

    # ------------------------------------------------------------------
    # LP assembly
    # ------------------------------------------------------------------
    def _assemble_lp(self) -> None:
        """Build the constant LP data for Eq. (5).

        Variable layout: ``[x_0 … x_N, u_0 … u_{N-1}, sx_0 … sx_N,
        su_0 … su_{N-1}]`` where ``sx, su`` are the 1-norm epigraph
        variables (``±x <= sx``).
        """
        n, m, N = self.system.n, self.system.m, self.horizon
        nx = n * (N + 1)
        nu = m * N
        self._nx, self._nu = nx, nu
        total = 2 * nx + 2 * nu
        self._total = total

        def x_slice(k):
            return slice(k * n, (k + 1) * n)

        def u_slice(k):
            return slice(nx + k * m, nx + (k + 1) * m)

        def sx_slice(k):
            return slice(nx + nu + k * n, nx + nu + (k + 1) * n)

        def su_slice(k):
            return slice(2 * nx + nu + k * m, 2 * nx + nu + (k + 1) * m)

        self._x_slice = x_slice
        self._u_slice = u_slice

        # Cost: P sum(sx) + Q sum(su); epigraph vars for x_N are included
        # with weight 0 (the paper's stage cost runs k = 0 … N-1).
        cost = np.zeros(total)
        for k in range(N):
            cost[sx_slice(k)] = self.state_weight
            cost[su_slice(k)] = self.input_weight
        self._cost = cost

        # Equalities: dynamics + initial state.
        A_eq = np.zeros((n * N + n, total))
        b_eq = np.zeros(n * N + n)
        for k in range(N):
            rows = slice(k * n, (k + 1) * n)
            A_eq[rows, x_slice(k + 1)] = -np.eye(n)
            A_eq[rows, x_slice(k)] = self.system.A
            A_eq[rows, u_slice(k)] = self.system.B
        A_eq[n * N :, x_slice(0)] = np.eye(n)
        self._b_eq = b_eq
        self._x0_rows = slice(n * N, n * N + n)

        # Inequalities.
        blocks = []
        rhs = []
        for k in range(N + 1):
            Xk = self.tightened[k] if k < N else self.tightened[N]
            row = np.zeros((Xk.num_constraints, total))
            row[:, x_slice(k)] = Xk.H
            blocks.append(row)
            rhs.append(Xk.h)
        term = np.zeros((self.terminal_set.num_constraints, total))
        term[:, x_slice(N)] = self.terminal_set.H
        blocks.append(term)
        rhs.append(self.terminal_set.h)
        U = self.system.input_set
        for k in range(N):
            row = np.zeros((U.num_constraints, total))
            row[:, u_slice(k)] = U.H
            blocks.append(row)
            rhs.append(U.h)
        # Epigraph: x - sx <= 0, -x - sx <= 0 (same for u).
        for k in range(N + 1):
            for sign in (1.0, -1.0):
                row = np.zeros((n, total))
                row[:, x_slice(k)] = sign * np.eye(n)
                row[:, sx_slice(k)] = -np.eye(n)
                blocks.append(row)
                rhs.append(np.zeros(n))
        for k in range(N):
            for sign in (1.0, -1.0):
                row = np.zeros((m, total))
                row[:, u_slice(k)] = sign * np.eye(m)
                row[:, su_slice(k)] = -np.eye(m)
                blocks.append(row)
                rhs.append(np.zeros(m))
        # The constraint matrices are mostly structural zeros (each row
        # touches one or two stage blocks), so they are kept sparse: CSR
        # as the shared block of the stacked batch solve, and combined
        # into HiGHS's CSC layout once for the scalar path.
        self._A_ub = sp.csr_matrix(np.vstack(blocks))
        self._A_eq = sp.csr_matrix(A_eq)
        self._b_ub = np.concatenate(rhs)
        self._matrix = LPMatrix.from_blocks(self._A_ub, self._A_eq, total)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _solve_raw(self, x: np.ndarray):
        """One scalar HiGHS solve at ``x`` (no counting, no unpacking).

        Writes the initial state into a *copy* of the equality RHS, so
        concurrent/re-entrant calls never race on shared buffers.
        """
        b_eq = self._b_eq.copy()
        b_eq[self._x0_rows] = x
        return solve_prepared(self._cost, self._matrix, self._b_ub, b_eq)

    def _plans(self, points: np.ndarray, costs) -> List[RMPCSolution]:
        """One plan per row of the ``(k, total)`` optimal points, as
        views into ``points``."""
        n, m, N = self.system.n, self.system.m, self.horizon
        k = len(points)
        states = points[:, : self._nx].reshape(k, N + 1, n)
        inputs = points[:, self._nx : self._nx + self._nu].reshape(k, N, m)
        return [
            RMPCSolution(inputs=u, states=x, cost=float(c))
            for u, x, c in zip(inputs, states, costs)
        ]

    def _validate_state(self, state) -> np.ndarray:
        x = as_vector(state, "state")
        if x.size != self.system.n:
            raise ValueError("state dimension mismatch")
        return x

    def solve(self, state) -> RMPCSolution:
        """Solve Eq. (5) at ``state`` and return the full plan.

        Raises:
            RMPCInfeasibleError: If ``state`` is outside the feasible
                region ``X_F``.
        """
        x = self._validate_state(state)
        res = self._solve_raw(x)
        if not res.success:
            raise RMPCInfeasibleError(
                f"RMPC infeasible at x={x} (status={res.status})"
            )
        self._solve_count += 1
        _telemetry().inc("rmpc_solves_total", path="scalar")
        return self._plans(res.x[None, :], [res.fun])[0]

    def _persistent_solver(self) -> PersistentStackSolver:
        """The calling thread's persistent HiGHS solver, built on first
        use."""
        solver = getattr(self._persistent, "solver", None)
        if solver is None:
            solver = self._persistent.solver = PersistentStackSolver(
                cost=self._cost,
                a_ub=self._A_ub,
                b_ub=self._b_ub,
                a_eq=self._A_eq,
                b_eq=self._b_eq,
                varying_eq_rows=np.arange(
                    self._x0_rows.start, self._x0_rows.stop
                ),
            )
        return solver

    def solve_batch(self, states) -> List[RMPCSolution]:
        """Solve Eq. (5) at every row of ``states`` in one stacked LP.

        The ``k`` per-state problems share every constraint matrix and
        differ only in the initial-state equality RHS, so they stack
        into a single block-diagonal solve on this thread's persistent
        model (see the module docstring) — one row too, on the model's
        first block.  Each returned plan attains exactly the scalar
        optimum value; the optimal vertex may differ when the LP is
        degenerate (plan-equivalent tier).  Counts ``k`` solves.
        Without the bundled HiGHS core the batch is ``k`` scalar
        :meth:`solve` calls.

        If the stacked solve fails — any single infeasible state sinks
        the whole stack, and the solver does not say which block — the
        rows are re-solved scalar so the offending episode is attributed
        exactly: the raised :class:`RMPCInfeasibleError` names its
        batch row and state.  Accounting stays consistent under the
        fallback: the failed stacked attempt counts zero (it produced no
        plans) and each successful scalar re-solve counts one.  A failed
        stacked attempt also drops the persistent model, so the next
        call solves as a freshly built controller would.

        Returns:
            ``k`` :class:`RMPCSolution`, aligned with the input rows
            (their arrays are views into one array of optimal points).

        Raises:
            RMPCInfeasibleError: If any row is outside ``X_F`` (named).
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        if X.shape[0] == 0:
            return []
        if X.shape[1] != self.system.n:
            raise ValueError("state dimension mismatch")
        k = X.shape[0]
        if highs_core() is not None:
            # All-or-nothing: a failed chunk discards every chunk's
            # result before the fallback, so nothing is counted twice.
            try:
                points = self._persistent_solver().solve_batch(X)
            except LPError:
                _telemetry().inc("rmpc_stacked_fallbacks_total")
            else:
                self._solve_count += k
                reg = _telemetry()
                reg.inc("rmpc_solves_total", k, path="stacked")
                reg.observe("rmpc_stacked_batch_size", k)
                return self._plans(points, (points @ self._cost).tolist())
        # Scalar rows: no core, or a failed stack — re-solved row by row
        # so an infeasibility (or numerical failure) is attributed to
        # the exact episode.  solve() does the counting.
        out = []
        for i, x in enumerate(X):
            try:
                out.append(self.solve(x))
            except RMPCInfeasibleError as exc:
                raise RMPCInfeasibleError(f"batch row {i}: {exc}") from None
        return out

    def compute(self, state) -> np.ndarray:
        """κ_R(x): first input of the optimal plan (receding horizon)."""
        return self.solve(state).inputs[0]

    def compute_batch(self, states) -> np.ndarray:
        """κ_R on every row via one stacked solve (see :meth:`solve_batch`).

        Plan-equivalent to row-wise :meth:`compute`, not bitwise: each
        row's input comes from a plan with the identical optimal cost and
        is feasible in ``U``, but a degenerate LP may yield a different
        optimal vertex than the scalar path.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        if X.shape[0] == 0:
            return np.zeros((0, self.input_dim))
        return np.stack([sol.inputs[0] for sol in self.solve_batch(X)])

    def is_feasible(self, state) -> bool:
        """Feasibility probe without raising.

        Probes do **not** count toward :attr:`solve_count` — the counter
        feeds the paper's computation-saving accounting, which measures
        control-law evaluations, not feasibility queries.
        """
        return bool(self._solve_raw(self._validate_state(state)).success)

    @property
    def solve_count(self) -> int:
        """Successful κ_R evaluations, for the paper's computation-saving
        accounting.  A stacked :meth:`solve_batch` over ``k`` states
        counts ``k`` (it replaces exactly ``k`` scalar solves);
        :meth:`is_feasible` probes count zero."""
        return self._solve_count

    def reset(self) -> None:
        """Zero the accounting and release the calling thread's
        persistent model: the next batch starts cold, so the next run's
        plans do not depend on earlier runs."""
        solver = getattr(self._persistent, "solver", None)
        if solver is not None:
            solver.release()
        self._solve_count = 0


def verify_plan_equivalence(
    controller: RobustMPC, states, cost_tol: float = 1e-9, input_tol: float = 1e-7
) -> dict:
    """Check the plan-equivalent contract of :meth:`RobustMPC.solve_batch`.

    For every row of ``states``, the stacked solve must attain the scalar
    solve's optimal cost (within ``cost_tol``) and return a first input
    feasible in ``U`` (within ``input_tol``).  This is the differential
    harness behind the two-tier determinism contract: where closed-form
    controllers are compared bitwise, stacked LP solves are compared by
    this function (plus zero safety violations at the episode level).

    Note: runs one batch solve and ``k`` scalar solves, so it inflates
    :attr:`RobustMPC.solve_count` — a verification harness, not a hot path.

    Returns:
        Dict with ``equivalent`` (bool), ``count``, ``max_cost_diff`` and
        ``inputs_feasible``.
    """
    X = np.atleast_2d(np.asarray(states, dtype=float))
    batch = controller.solve_batch(X)
    input_set = controller.system.input_set
    max_cost_diff = 0.0
    inputs_feasible = True
    for x, sol in zip(X, batch):
        scalar = controller.solve(x)
        max_cost_diff = max(max_cost_diff, abs(sol.cost - scalar.cost))
        if not input_set.contains(sol.inputs[0], tol=input_tol):
            inputs_feasible = False
    return {
        "count": len(batch),
        "max_cost_diff": max_cost_diff,
        "inputs_feasible": inputs_feasible,
        "equivalent": inputs_feasible and max_cost_diff <= cost_tol,
    }
