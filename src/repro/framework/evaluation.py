"""Engine-agnostic paired evaluation of control approaches.

The paper's Sec.-IV comparisons all share one shape: run several control
approaches — the κ-every-step baseline plus monitored skipping policies —
over the *identical* set of (initial state, disturbance realisation)
pairs, and reduce every episode to a tuple of metrics.  This module owns
that shape, scenario-agnostically; the experiment runner
(:func:`repro.experiments.run_experiment` / :func:`~repro.experiments.
run_sweep`, one call per grid cell) is its only client; the ACC
comparison of the paper reaches it through the runner too.

Engine semantics match the batch runner: ``"serial"`` is the reference
case-major loop, ``"lockstep"`` advances all cases of one approach as a
single state matrix.  Both run in the caller's process; a sweep uses
more cores by sharding whole cells (:func:`repro.experiments.run_sweep`).
Because realisations are materialised by the caller up front and all
supplied policies must be effectively stateless, both engines yield the
same deterministic metric values — only wall-clock-derived entries vary.
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

__all__ = ["ENGINES", "paired_evaluation"]


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
    collect_timing: bool = True,
    solver_effort: Optional[dict] = None,
) -> Dict[str, List[tuple]]:
    """Run every approach over every case; collect per-case metric tuples.

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
        collect_timing: Lockstep only — ``False`` skips per-row
            wall-clock collection (timing-derived metrics read zero;
            everything else is bitwise-unchanged).
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
        ValueError: On unknown engines, empty case sets, or — under
            lockstep — approaches whose policy is not flagged stateless.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    initial_states = np.atleast_2d(np.asarray(initial_states, dtype=float))
    num_cases = initial_states.shape[0]
    if num_cases < 1:
        raise ValueError("need at least one evaluation case")
    if len(realisations) != num_cases:
        raise ValueError(
            f"{num_cases} initial states but {len(realisations)} realisations"
        )

    # Solver effort is read from the always-on telemetry counters, but
    # only means something for controllers that actually solve LPs.
    instrumented = getattr(controller, "solve_count", None) is not None
    want_effort = solver_effort is not None

    if engine == "lockstep":
        collected: Dict[str, List[tuple]] = {}
        for name, policy in approaches.items():
            if policy is not None and not getattr(policy, "stateless", False):
                raise ValueError(
                    f"approach {name!r}: the lockstep engine shares one "
                    "policy instance across interleaved cases, which is "
                    "only serial-equivalent for stateless policies "
                    "(for DRL, evaluate with epsilon=0)"
                )
            before = _solver_probe() if (want_effort and instrumented) else None
            # A no-op context when telemetry is off; when on, the
            # engine's ``stage:*`` leaves nest under this span.
            with _obs.registry().span(
                "episode-batch",
                approach=name, engine="lockstep", cases=num_cases,
            ):
                if policy is None:
                    stats_list = lockstep_controller_only(
                        system,
                        controller,
                        initial_states,
                        realisations,
                        exact_solves=exact_solves,
                        collect_timing=collect_timing,
                    )
                else:
                    stats_list = run_lockstep(
                        system,
                        controller,
                        [monitor_factory() for _ in range(num_cases)],
                        [policy] * num_cases,
                        initial_states,
                        realisations,
                        skip_input=skip_input,
                        memory_length=memory_length,
                        exact_solves=exact_solves,
                        collect_timing=collect_timing,
                    )
            if want_effort:
                solver_effort[name] = (
                    _effort_dict(_probe_delta(before, _solver_probe()))
                    if instrumented
                    else None
                )
            collected[name] = [metrics_of(stats) for stats in stats_list]
        return collected

    collected = {name: [] for name in approaches}
    # Sized from the probe, so a new counter cannot be silently dropped.
    zero = (0,) * len(_solver_probe())
    totals = {name: zero for name in approaches}
    with _obs.registry().span(
        "episode-batch",
        engine=engine, cases=num_cases, approaches=len(approaches),
    ):
        for i in range(num_cases):
            x0 = initial_states[i]
            disturbances = realisations[i]
            for name, policy in approaches.items():
                before = _solver_probe() if instrumented else None
                try:
                    if policy is None:
                        stats = run_controller_only(
                            system, controller, x0, disturbances
                        )
                    else:
                        runner = IntermittentController(
                            system=system,
                            controller=controller,
                            monitor=monitor_factory(),
                            policy=policy,
                            skip_input=skip_input,
                            memory_length=memory_length,
                        )
                        stats = runner.run(x0, disturbances)
                except RMPCInfeasibleError as exc:
                    # Name the episode: the cell layer above adds the
                    # grid coordinates, this layer owns the case index.
                    raise RMPCInfeasibleError(
                        f"case {i} ({name}): {exc}"
                    ) from None
                collected[name].append(metrics_of(stats))
                if instrumented:
                    delta = _probe_delta(before, _solver_probe())
                    totals[name] = tuple(
                        a + b for a, b in zip(totals[name], delta)
                    )
    if want_effort:
        for name in approaches:
            solver_effort[name] = (
                _effort_dict(totals[name]) if instrumented else None
            )
    return collected
