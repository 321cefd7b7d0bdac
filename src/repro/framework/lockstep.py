"""Vectorised lockstep execution of many episodes at once.

Where the serial :class:`~repro.framework.runner.BatchRunner` advances one
scalar state at a time through ``IntermittentController.run``, the
functions here step an ``(N, n)`` state matrix for ``N`` episodes
*simultaneously*:

* all ``N`` states are classified in Algorithm 1's order by
  :meth:`~repro.framework.monitor.SafetyMonitor.membership_batch`: one
  :meth:`~repro.geometry.HPolytope.contains_batch` over ``X'`` for every
  active row, then one over ``XI`` for only the rows outside ``X'``.
  Each membership row is computed by :func:`~repro.utils.rowdot.rowdot`
  independently of the other rows in the call, so every boolean is the
  one the serial :meth:`~repro.framework.monitor.SafetyMonitor.classify`
  short-circuit gives;
* RUN / SKIP / monitor-forced rows are masked, the safe controller runs
  once on the stacked RUN rows via
  :meth:`~repro.controllers.base.Controller.compute_batch`;
* the plant advances every active row in one
  :meth:`~repro.systems.lti.DiscreteLTISystem.step_batch` call.

It is the fast one of the two batch engines, and it needs only numpy,
not more cores; a sweep that has more cores shards whole grid cells over
them (:func:`repro.experiments.run_sweep`).

Determinism contract — two tiers, selected by the controller's
:attr:`~repro.controllers.base.Controller.bitwise_batch` flag:

* **bitwise** (closed-form controllers; every controller whose
  ``compute_batch`` evaluates the same floating-point expressions
  row-wise): each episode's :class:`RunStats` holds exactly the
  trajectory, inputs, decisions and forced mask the serial loop would
  produce (wall-clock timing arrays excepted — the shared per-step cost
  is amortised uniformly over the rows that paid it).  The differential
  test harness proves record-for-record equality against the serial
  engine.
* **plan-equivalent** (stacked LP controllers, i.e.
  :class:`~repro.controllers.rmpc.RobustMPC` with its block-diagonal
  :meth:`solve_batch`): when an LP has multiple optimal vertices, the
  stacked solve need not return the same one as ``k`` scalar solves, so
  trajectories may diverge from the serial loop while every solve still
  attains the identical optimal cost (within 1e-9), every applied input
  is feasible in ``U``, and Theorem 1 keeps all episodes violation-free.
  :func:`repro.controllers.rmpc.verify_plan_equivalence` is the
  differential check for this tier.  The classification above is
  bitwise under both tiers; only the stacked solve is not.

Passing ``exact_solves=True`` opts out of the stacked path: non-bitwise
controllers are routed through row-by-row
:meth:`~repro.controllers.base.Controller.compute_rowwise`, restoring
bitwise record-for-record parity with the serial engine for audits (at
scalar-solve speed).  Bitwise controllers are unaffected by the flag.

Caveats mirroring the serial semantics they replace:

* policies flagged ``stateless`` are evaluated through one representative
  instance's :meth:`~repro.skipping.base.SkippingPolicy.decide_batch`;
  stateful/stochastic policies keep their per-episode instances and are
  queried row by row in episode order, so per-episode generator streams
  line up with the serial engine;
* policies additionally flagged ``wants_context = False`` (AlwaysRun,
  AlwaysSkip, Periodic) take a context-free fast path: no per-row
  :class:`DecisionContext` is materialised and the disturbance-history
  window is not maintained — the decisions are identical by the
  ``decide_batch_at`` contract;
* the history window itself is a ring buffer: step ``t`` writes slot
  ``t % r`` and contexts gather the window back in chronological order,
  so maintaining ``r > 1`` histories costs one row-write per step
  instead of rolling the whole ``(N, r, n)`` block;
* a strict monitor aborts the whole batch with
  :class:`SafetyViolationError` as soon as any episode leaves ``XI``.
  The serial loop discovers violations episode-major and lockstep
  discovers them time-major, so *which* episode is named can differ —
  but a batch either raises under both engines or under neither;
* ``policy.observe`` is never called (the engine is for evaluation;
  route DRL *training* rollouts through the serial loop).
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from repro.controllers.base import Controller
from repro.framework.accounting import RunStats
from repro.framework.monitor import SafetyMonitor, SafetyViolationError
from repro.observability import metrics as _obs
from repro.skipping.base import RUN, DecisionContext, SkippingPolicy
from repro.systems.lti import DiscreteLTISystem
from repro.utils.validation import as_vector

__all__ = ["run_lockstep", "lockstep_controller_only"]


def _batch_compute_fn(controller: Controller, exact_solves: bool):
    """The engine's per-step κ evaluator under the two-tier contract.

    ``exact_solves`` only changes anything for controllers that declare
    ``bitwise_batch = False``: their stacked batch path is swapped for
    the row-by-row scalar reference, restoring bitwise parity with the
    serial engine.
    """
    if exact_solves and not getattr(controller, "bitwise_batch", True):
        return controller.compute_rowwise
    return controller.compute_batch


def _equal_value(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right)
    try:
        return bool(left == right)
    except Exception:
        return False


def _interchangeable(policy, reference) -> bool:
    """True iff two policy instances are guaranteed to decide identically.

    ``stateless`` only promises decisions are a pure function of the
    context *and the instance's parameters* — ``PeriodicSkipPolicy(2)``
    and ``PeriodicSkipPolicy(3)`` are both stateless yet disagree.  One
    representative may serve every episode only when the instances are
    the same object or carry equal attributes; otherwise the engine falls
    back to querying each episode's own policy.
    """
    if policy is reference:
        return True
    if type(policy) is not type(reference):
        return False
    left = getattr(policy, "__dict__", None)
    right = getattr(reference, "__dict__", None)
    if left is None or right is None or left.keys() != right.keys():
        return False
    return all(
        left[key] is right[key] or _equal_value(left[key], right[key])
        for key in left
    )


def _padded_realisations(realisations, n: int) -> tuple:
    """Stack per-episode ``(T_i, n)`` arrays into ``(N, T_max, n)`` + horizons.

    Rows beyond an episode's own horizon are zero padding; the per-episode
    slices handed back out at the end never include them.
    """
    W = [np.atleast_2d(np.asarray(w, dtype=float)) for w in realisations]
    horizons = np.array([w.shape[0] for w in W], dtype=int)
    for i, w in enumerate(W):
        if w.shape[1] != n:
            raise ValueError(
                f"episode {i} realisation has dimension {w.shape[1]}, plant has {n}"
            )
    t_max = int(horizons.max()) if len(W) else 0
    padded = np.zeros((len(W), t_max, n))
    for i, w in enumerate(W):
        padded[i, : horizons[i]] = w
    return padded, horizons


def _record_batch(mode: str, count: int, horizons) -> None:
    """Per-run episode/step counters (one call per lockstep entry)."""
    reg = _obs.registry()
    reg.inc("lockstep_runs_total", mode=mode)
    reg.inc("lockstep_episodes_total", count, mode=mode)
    reg.inc("lockstep_steps_total", int(horizons.sum()), mode=mode)


def _record_stages(mode: str, steps: int, seconds: dict) -> None:
    """Fold one run's per-stage wall clock into the registry, if enabled.

    Seconds land in ``lockstep_stage_seconds{stage,mode}`` (a wall-clock
    counter, excluded from deterministic snapshots), the number of steps
    each stage was charged in ``lockstep_stage_calls{stage,mode}``, and
    every stage becomes one ``stage:<name>`` leaf span under the open
    span (``paired_evaluation``'s per-approach ``episode-batch``).
    With telemetry disabled nothing is reported.
    """
    reg = _obs.active()
    if reg is None or not steps:
        return
    for stage, spent in seconds.items():
        reg.inc("lockstep_stage_seconds", spent, stage=stage, mode=mode)
        reg.inc("lockstep_stage_calls", steps, stage=stage, mode=mode)
        reg.trace.add_span(f"stage:{stage}", duration=spent, calls=steps)


def run_lockstep(
    system: DiscreteLTISystem,
    controller: Controller,
    monitors: Sequence[SafetyMonitor],
    policies: Sequence[SkippingPolicy],
    initial_states,
    realisations,
    skip_input=None,
    memory_length: int = 1,
    reveal_future: bool = False,
    exact_solves: bool = False,
) -> List[RunStats]:
    """Run ``N`` Algorithm-1 episodes in lockstep.

    Args:
        system: The plant (shared across episodes).
        controller: Safe controller κ (shared; must be stateless across
            calls, as all the library's controllers are).
        monitors: One fresh :class:`SafetyMonitor` per episode (they carry
            violation counters).  All must share the same sets/config —
            true for any factory-built batch; the sets of ``monitors[0]``
            drive the batched classification.
        policies: One Ω per episode.  If every policy is ``stateless``
            *and* the instances are interchangeable (same object, or same
            type with equal attributes — true for any factory-built
            batch), ``policies[0].decide_batch`` serves all rows;
            otherwise each episode's own instance is queried row by row.
        initial_states: ``(N, n)`` start states (each must lie in ``XI``).
        realisations: Sequence of ``N`` disturbance arrays ``(T_i, n)``
            (horizons may differ; finished episodes simply stop stepping).
        skip_input: Constant input applied when skipping (default zero).
        memory_length: The paper's ``r`` — disturbance-history window.
        reveal_future: Pass the realised future to Ω via the context.
        exact_solves: Route non-bitwise controllers (stacked LP solvers)
            through the row-by-row scalar path for record-for-record
            parity with the serial engine (see the module's two-tier
            determinism contract).  No effect on bitwise controllers.

    One stage clock times the run: every step reads ``perf_counter``
    once per boundary of its ``classify`` / ``decide`` / ``control`` /
    ``step`` stages.  Those reads give the per-row amortised wall-clock
    arrays in :class:`RunStats` (``monitor_seconds``: classify + decide,
    shared by every active row; ``controller_seconds``: κ alone, shared
    by the rows it ran on) and, with telemetry enabled
    (:func:`repro.observability.metrics.active`), the per-stage totals
    reported to the ambient registry under ``mode="monitored"``.

    Returns:
        ``N`` :class:`RunStats`, aligned with the inputs.

    Raises:
        ValueError: If any initial state is outside ``XI``, naming the
            first such episode.
        SafetyViolationError: Under a strict monitor, as soon as any
            episode's state leaves ``XI``.
    """
    if memory_length < 1:
        raise ValueError("memory_length must be >= 1")
    X0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    count = X0.shape[0]
    if count == 0:
        return []
    if len(monitors) != count or len(policies) != count:
        raise ValueError("need exactly one monitor and one policy per episode")
    n, m, r = system.n, system.m, int(memory_length)
    skip_u = np.zeros(m) if skip_input is None else as_vector(skip_input)
    W, horizons = _padded_realisations(realisations, n)
    t_max = W.shape[1]

    reference = monitors[0]
    sset, iset, tol = reference.strengthened_set, reference.invariant_set, reference.tol
    for monitor in monitors:
        if (
            monitor.strengthened_set is not sset
            or monitor.invariant_set is not iset
            or monitor.tol != tol
        ):
            raise ValueError(
                "lockstep monitors must share one set configuration "
                "(identical X'/XI objects and tol) — heterogeneous "
                "monitors would be classified against episode 0's sets"
            )
    outside = ~iset.contains_batch(X0, tol)
    if np.any(outside):
        first = int(np.argmax(outside))
        raise ValueError(
            "initial state must be inside the invariant set XI "
            f"(episode {first}: {X0[first]})"
        )

    shared_policy = all(getattr(p, "stateless", False) for p in policies) and all(
        _interchangeable(p, policies[0]) for p in policies[1:]
    )
    # Context-free fast path: a shared policy that declares it never reads
    # the context (beyond the step index) lets every step skip the per-row
    # DecisionContext materialisation — the largest remaining per-step
    # Python cost at large N.
    context_free = shared_policy and not getattr(
        policies[0], "wants_context", True
    )
    for policy in policies:
        policy.reset()
    controller.reset()
    _record_batch("monitored", count, horizons)

    compute_batch = _batch_compute_fn(controller, exact_solves)
    classify_s = decide_s = control_s = step_s = 0.0

    states = np.empty((count, t_max + 1, n))
    inputs = np.zeros((count, t_max, m))
    decisions = np.zeros((count, t_max), dtype=int)
    forced = np.zeros((count, t_max), dtype=bool)
    controller_seconds = np.zeros((count, t_max))
    monitor_seconds = np.zeros((count, t_max))
    states[:, 0] = X0
    X = X0.copy()
    # Disturbance-history ring buffer: step t writes slot t % r; contexts
    # gather slots back into chronological (oldest → newest) order.  One
    # row-write per step regardless of r, versus rolling the whole
    # (N, r, n) block.
    history = np.zeros((count, r, n))

    for t in range(t_max):
        idx = np.flatnonzero(horizons > t)
        w_t = W[idx, t]
        if not context_free:
            # The history window only ever feeds DecisionContexts, so the
            # context-free fast path skips maintaining it too.
            history[idx, t % r] = w_t
            window = np.arange(t + 1, t + 1 + r) % r

        t0 = time.perf_counter()
        in_strengthened, unsafe = reference.membership_batch(X[idx])
        if np.any(unsafe):
            _obs.registry().inc(
                "safety_violations_total", int(np.count_nonzero(unsafe))
            )
            for gi in idx[unsafe]:
                monitors[gi].violations += 1
                if monitors[gi].strict:
                    raise SafetyViolationError(
                        f"state {X[gi]} left the robust invariant set"
                    )
        free_idx = idx[in_strengthened]
        forced_idx = idx[~in_strengthened]
        t1 = time.perf_counter()

        if not len(free_idx):
            choices = np.zeros(0, dtype=int)
        elif context_free:
            choices = np.asarray(policies[0].decide_batch_at(t, len(free_idx)))
        else:
            contexts = [
                DecisionContext(
                    time=t,
                    state=X[gi].copy(),
                    past_disturbances=history[gi, window],
                    future_disturbances=(
                        W[gi, t : horizons[gi]].copy() if reveal_future else None
                    ),
                )
                for gi in free_idx
            ]
            if shared_policy:
                choices = np.asarray(policies[0].decide_batch(contexts))
            else:
                choices = np.array(
                    [policies[gi].decide(ctx) for gi, ctx in zip(free_idx, contexts)],
                    dtype=int,
                )
        run_idx = np.concatenate([forced_idx, free_idx[choices == RUN]])
        decisions[run_idx, t] = 1
        forced[forced_idx, t] = True
        inputs[free_idx[choices != RUN], t] = skip_u
        t2 = time.perf_counter()

        if len(run_idx):
            inputs[run_idx, t] = compute_batch(X[run_idx])
        t3 = time.perf_counter()

        nxt = system.step_batch(X[idx], inputs[idx, t], w_t)
        X[idx] = nxt
        states[idx, t + 1] = nxt
        t4 = time.perf_counter()

        # One clock read per stage boundary feeds both views: the rows'
        # amortised shares (monitor + Ω over every active row, κ over the
        # rows it ran on) and the stage totals.  Context materialisation
        # and the run/skip bookkeeping are charged to ``decide``.
        monitor_seconds[idx, t] = (t2 - t0) / len(idx)
        if len(run_idx):
            controller_seconds[run_idx, t] = (t3 - t2) / len(run_idx)
        classify_s += t1 - t0
        decide_s += t2 - t1
        control_s += t3 - t2
        step_s += t4 - t3

    _record_stages(
        "monitored", t_max,
        {"classify": classify_s, "decide": decide_s,
         "control": control_s, "step": step_s},
    )
    return [
        RunStats(
            states=states[i, : horizons[i] + 1].copy(),
            inputs=inputs[i, : horizons[i]].copy(),
            decisions=decisions[i, : horizons[i]].copy(),
            forced=forced[i, : horizons[i]].copy(),
            controller_seconds=controller_seconds[i, : horizons[i]].copy(),
            monitor_seconds=monitor_seconds[i, : horizons[i]].copy(),
            disturbances=W[i, : horizons[i]].copy(),
        )
        for i in range(count)
    ]


def lockstep_controller_only(
    system: DiscreteLTISystem,
    controller: Controller,
    initial_states,
    realisations,
    exact_solves: bool = False,
) -> List[RunStats]:
    """Vectorised :func:`~repro.framework.intermittent.run_controller_only`.

    κ runs on every row of every step (no monitor, no skipping) — the
    κ-every-step baseline leg of :func:`~repro.framework.evaluation.
    paired_evaluation`, in lockstep.  ``exact_solves`` and the stage
    clock behave exactly as in :func:`run_lockstep`: its ``control``
    reads give ``controller_seconds``, and with telemetry enabled the
    ``control`` and ``step`` totals are reported to the ambient registry
    under ``mode="controller_only"``.
    This is the workload where the RMPC's warm-started stacked solve
    shines: the stacked LP is identical every step except for its
    initial-state RHS, at a constant batch height.

    Returns:
        ``N`` :class:`RunStats` with all decisions 1 and zero monitor time.
    """
    X0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    count = X0.shape[0]
    if count == 0:
        return []
    n, m = system.n, system.m
    W, horizons = _padded_realisations(realisations, n)
    t_max = W.shape[1]
    controller.reset()
    _record_batch("controller_only", count, horizons)

    compute_batch = _batch_compute_fn(controller, exact_solves)
    control_s = step_s = 0.0

    states = np.empty((count, t_max + 1, n))
    inputs = np.zeros((count, t_max, m))
    controller_seconds = np.zeros((count, t_max))
    states[:, 0] = X0
    X = X0.copy()
    for t in range(t_max):
        idx = np.flatnonzero(horizons > t)
        t0 = time.perf_counter()
        inputs[idx, t] = compute_batch(X[idx])
        t1 = time.perf_counter()
        nxt = system.step_batch(X[idx], inputs[idx, t], W[idx, t])
        X[idx] = nxt
        states[idx, t + 1] = nxt
        t2 = time.perf_counter()
        controller_seconds[idx, t] = (t1 - t0) / len(idx)
        control_s += t1 - t0
        step_s += t2 - t1

    _record_stages(
        "controller_only", t_max, {"control": control_s, "step": step_s}
    )
    return [
        RunStats(
            states=states[i, : horizons[i] + 1].copy(),
            inputs=inputs[i, : horizons[i]].copy(),
            decisions=np.ones(horizons[i], dtype=int),
            forced=np.zeros(horizons[i], dtype=bool),
            controller_seconds=controller_seconds[i, : horizons[i]].copy(),
            monitor_seconds=np.zeros(horizons[i]),
            disturbances=W[i, : horizons[i]].copy(),
        )
        for i in range(count)
    ]
