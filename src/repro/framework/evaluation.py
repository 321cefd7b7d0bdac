"""Engine-agnostic paired evaluation of control approaches.

The paper's Sec.-IV comparisons all share one shape: run several control
approaches — the κ-every-step baseline plus monitored skipping policies —
over the *identical* set of (initial state, disturbance realisation)
pairs, and reduce every episode to a tuple of metrics.  This module owns
that shape, scenario-agnostically; the experiment runner
(:func:`repro.experiments.run_experiment` / :func:`~repro.experiments.
run_sweep`, one call per grid cell) is its only client; the ACC
comparison of the paper reaches it through the runner too.

:func:`run_episodes` is the one episode-batch path: it runs one
approach over every case on the chosen engine and is shared by
:func:`paired_evaluation` and :class:`~repro.framework.runner.
BatchRunner`.  ``"serial"`` is the reference loop, one episode at a
time; ``"lockstep"`` advances all cases as a single state matrix.  Both
run in the caller's process; a sweep uses more cores by sharding whole
cells (:func:`repro.experiments.run_sweep`).  Because realisations are
materialised by the caller up front and every episode starts from a
reset controller and policy, both engines yield the same deterministic
metric values — only wall-clock-derived entries vary.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.controllers.base import Controller
from repro.controllers.rmpc import RMPCInfeasibleError
from repro.framework.accounting import RunStats
from repro.framework.intermittent import IntermittentController, run_controller_only
from repro.framework.lockstep import lockstep_controller_only, run_lockstep
from repro.framework.monitor import SafetyMonitor
from repro.observability import metrics as _obs
from repro.skipping.base import SkippingPolicy
from repro.systems.lti import DiscreteLTISystem

__all__ = ["ENGINES", "paired_evaluation", "run_episodes"]


def _solver_probe() -> tuple:
    """Snapshot of the ambient registry's solver-effort counters (they
    are always on and never reset by ``controller.reset()``, so
    before/after deltas attribute effort per approach)."""
    reg = _obs.registry()
    return (
        reg.total("rmpc_solves_total"),
        reg.total("rmpc_solves_total", path="scalar"),
        reg.total("rmpc_solves_total", path="stacked"),
        reg.total("rmpc_stacked_fallbacks_total"),
    )


def _effort_dict(delta: tuple) -> dict:
    """A probe delta as the solver-effort mapping the result layer
    surfaces per approach (see ``ApproachResult.solver``)."""
    total, scalar, stacked, fallbacks = delta
    return {
        "solve_count": total,
        "scalar_solves": scalar,
        "stacked_solves": stacked,
        "stacked_fallbacks": fallbacks,
    }


def _probe_delta(before: tuple, after: tuple) -> tuple:
    return tuple(b - a for a, b in zip(before, after))


#: The execution engines every evaluation entry point accepts.
ENGINES = ("serial", "lockstep")


def run_episodes(
    system: DiscreteLTISystem,
    controller: Controller,
    monitor_factory: Callable[[], SafetyMonitor],
    policies: Optional[Sequence[SkippingPolicy]],
    initial_states,
    realisations: Sequence,
    *,
    engine: str = "serial",
    skip_input=None,
    memory_length: int = 1,
    reveal_future: bool = False,
    exact_solves: bool = False,
) -> List[RunStats]:
    """Run one episode per case on ``engine``; the one episode-batch path.

    Args:
        system: The plant (shared across cases).
        controller: Safe controller κ (shared; reset at every episode).
        monitor_factory: Fresh :class:`SafetyMonitor` per episode.
        policies: One Ω per case, or ``None`` for the κ-every-step
            baseline (no monitor, no skipping).
        initial_states: ``(N, n)`` start states, one per case.
        realisations: ``N`` pre-drawn disturbance arrays ``(T_i, n)``.
        engine: ``"serial"`` (the reference loop) or ``"lockstep"`` (see
            :mod:`repro.framework.lockstep`).
        skip_input: Constant input applied when skipping (default zero).
        memory_length: The paper's ``r`` (disturbance-history window).
        reveal_future: Pass the realised future to Ω (model-based case).
        exact_solves: Lockstep only — keep the scalar path for
            non-bitwise (stacked LP) controllers so results match the
            serial engine record for record.  The serial engine always
            runs scalar solves.

    Returns:
        ``N`` :class:`RunStats` in case order.

    Raises:
        ValueError: On an unknown engine, or a realisation count that
            differs from the case count.
        RMPCInfeasibleError: Under the serial engine, naming the case.
    """
    states = np.atleast_2d(np.asarray(initial_states, dtype=float))
    if len(realisations) != len(states):
        raise ValueError(
            f"{len(states)} initial states but {len(realisations)} realisations"
        )
    if engine == "lockstep":
        if policies is None:
            return lockstep_controller_only(
                system, controller, states, realisations,
                exact_solves=exact_solves,
            )
        return run_lockstep(
            system,
            controller,
            [monitor_factory() for _ in states],
            policies,
            states,
            realisations,
            skip_input=skip_input,
            memory_length=memory_length,
            reveal_future=reveal_future,
            exact_solves=exact_solves,
        )
    if engine != "serial":
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    stats_list = []
    for i, (x0, disturbances) in enumerate(zip(states, realisations)):
        try:
            if policies is None:
                stats = run_controller_only(system, controller, x0, disturbances)
            else:
                stats = IntermittentController(
                    system,
                    controller,
                    monitor_factory(),
                    policies[i],
                    skip_input=skip_input,
                    memory_length=memory_length,
                    reveal_future=reveal_future,
                ).run(x0, disturbances)
        except RMPCInfeasibleError as exc:
            # Name the episode: the layers above add the approach and
            # the grid coordinates.
            raise RMPCInfeasibleError(f"case {i}: {exc}") from None
        stats_list.append(stats)
    return stats_list


def paired_evaluation(
    system: DiscreteLTISystem,
    controller: Controller,
    monitor_factory: Callable[[], SafetyMonitor],
    approaches: Mapping[str, Optional[SkippingPolicy]],
    initial_states,
    realisations: Sequence,
    metrics_of: Callable[[RunStats], tuple],
    skip_input=None,
    memory_length: int = 1,
    engine: str = "serial",
    exact_solves: bool = False,
    solver_effort: Optional[dict] = None,
) -> Dict[str, List[tuple]]:
    """Run every approach over every case; collect per-case metric tuples.

    Approaches run one after another, each as one
    :func:`run_episodes` batch under its own ``episode-batch`` span.

    Args:
        system: The plant (shared across approaches and cases).
        controller: Safe controller κ (shared; must reset cleanly).
        monitor_factory: Fresh :class:`SafetyMonitor` per episode.
        approaches: Name → skipping policy.  ``None`` marks the
            κ-every-step baseline (no monitor, no skipping).  Policy
            instances are shared across that approach's cases, so they
            must be effectively stateless — which every engine requires
            for paired results to be meaningful, and lockstep enforces.
        initial_states: ``(N, n)`` start states, one per case.
        realisations: ``N`` pre-drawn disturbance arrays ``(T_i, n)``.
        metrics_of: Reduces one episode's :class:`RunStats` to a tuple;
            entry order is the caller's contract.
        skip_input: Constant input applied when skipping (default zero).
        memory_length: The paper's ``r`` (disturbance-history window).
        engine: ``"serial"`` or ``"lockstep"``.
        exact_solves: Lockstep only — keep the scalar path for
            non-bitwise (stacked LP) controllers so results match the
            serial engine record for record; the default stacked path is
            plan-equivalent (see :mod:`repro.framework.lockstep`).  The
            serial engine and ``exact_solves`` audits always run scalar
            solves.
        solver_effort: Optional out-parameter: pass a dict and it is
            filled with approach name → solver-effort mapping
            (``solve_count``, ``scalar_solves``, ``stacked_solves``,
            ``stacked_fallbacks``) measured as
            before/after deltas of the always-on telemetry counters —
            or ``None`` per approach when the controller has no
            ``solve_count`` (closed-form κ evaluations are not LP
            solves).

    Returns:
        Approach name → list of ``N`` metric tuples in case order.

    Raises:
        ValueError: On unknown engines, empty case sets, a realisation
            count that differs from the case count, or — under
            lockstep — approaches whose policy is not flagged stateless.
        RMPCInfeasibleError: Naming the approach (and, under the serial
            engine, the case).
    """
    initial_states = np.atleast_2d(np.asarray(initial_states, dtype=float))
    num_cases = initial_states.shape[0]
    if num_cases < 1:
        raise ValueError("need at least one evaluation case")

    # Solver effort is read from the always-on telemetry counters, but
    # only means something for controllers that actually solve LPs.
    instrumented = getattr(controller, "solve_count", None) is not None
    want_effort = solver_effort is not None

    collected: Dict[str, List[tuple]] = {}
    for name, policy in approaches.items():
        # The serial loop resets a shared policy at every episode; the
        # lockstep engine interleaves the cases on one instance.
        if (
            engine == "lockstep"
            and policy is not None
            and not getattr(policy, "stateless", False)
        ):
            raise ValueError(
                f"approach {name!r}: the lockstep engine shares one "
                "policy instance across interleaved cases, which is "
                "only serial-equivalent for stateless policies "
                "(for DRL, evaluate with epsilon=0)"
            )
        before = _solver_probe() if (want_effort and instrumented) else None
        # A no-op context when telemetry is off; when on, the lockstep
        # engine's ``stage:*`` leaves nest under this span.
        with _obs.registry().span(
            "episode-batch", approach=name, engine=engine, cases=num_cases,
        ):
            try:
                stats_list = run_episodes(
                    system,
                    controller,
                    monitor_factory,
                    None if policy is None else [policy] * num_cases,
                    initial_states,
                    realisations,
                    engine=engine,
                    skip_input=skip_input,
                    memory_length=memory_length,
                    exact_solves=exact_solves,
                )
            except RMPCInfeasibleError as exc:
                raise RMPCInfeasibleError(f"approach {name!r}: {exc}") from None
        if want_effort:
            solver_effort[name] = (
                _effort_dict(_probe_delta(before, _solver_probe()))
                if instrumented
                else None
            )
        collected[name] = [metrics_of(stats) for stats in stats_list]
    return collected
