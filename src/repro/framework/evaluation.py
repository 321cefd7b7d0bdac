"""Engine-agnostic paired evaluation of control approaches.

The paper's Sec.-IV comparisons all share one shape: run several control
approaches — the κ-every-step baseline plus monitored skipping policies —
over the *identical* set of (initial state, disturbance realisation)
pairs, and reduce every episode to a tuple of metrics.  This module owns
that shape, scenario-agnostically; the experiment runner
(:func:`repro.experiments.run_experiment` / :func:`~repro.experiments.
run_sweep`, one call per grid cell) is its only client; the ACC
comparison of the paper reaches it through the runner too.

Engine semantics match the batch runners: ``"serial"`` is the reference
case-major loop, ``"parallel"`` fans cases out over forked workers
(:func:`repro.utils.parallel.fork_map`), ``"lockstep"`` advances all
cases of one approach as a single state matrix.  Because realisations are
materialised by the caller up front and all supplied policies must be
effectively stateless, every engine yields the same deterministic metric
values — only wall-clock-derived entries vary.
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
from repro.utils.parallel import fork_map

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
        reg.total("rmpc_solves_total", path="stacked", backend="highs"),
        reg.total("rmpc_stacked_fallbacks_total"),
    )


def _effort_dict(delta: tuple) -> dict:
    """A probe delta as the solver-effort mapping the result layer
    surfaces per approach (see ``ApproachResult.solver``)."""
    total, scalar, stacked, highs, fallbacks = delta
    return {
        "solve_count": total,
        "scalar_solves": scalar,
        "stacked_solves": stacked,
        "stacked_fallbacks": fallbacks,
        "lp_backend": (
            ("highs" if highs > 0 else "scipy") if stacked > 0 else None
        ),
    }


def _probe_delta(before: tuple, after: tuple) -> tuple:
    return tuple(b - a for a, b in zip(before, after))


#: The execution engines every evaluation entry point accepts.
ENGINES = ("serial", "parallel", "lockstep")


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
    jobs: int = 1,
    exact_solves: bool = False,
    lp_backend: Optional[str] = None,
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
        engine: ``"serial"``, ``"parallel"`` or ``"lockstep"``.
        jobs: Worker processes for the parallel engine (``None``/0 = one
            per CPU); ignored otherwise.
        exact_solves: Lockstep only — keep the scalar path for
            non-bitwise (stacked LP) controllers so results match the
            serial engine record for record; the default stacked path is
            plan-equivalent (see :mod:`repro.framework.lockstep`).
        lp_backend: Lockstep only — stacked-solve backend request
            (``auto|highs|scipy``; :mod:`repro.utils.lp_backends`)
            threaded to controllers exposing ``set_lp_backend``; ``None``
            keeps the controller's own setting.  The serial/parallel
            engines and ``exact_solves`` audits always use scalar scipy
            solves and are backend-invariant.
        collect_timing: Lockstep only — ``False`` skips per-row
            wall-clock collection (timing-derived metrics read zero;
            everything else is bitwise-unchanged).
        solver_effort: Optional out-parameter: pass a dict and it is
            filled with approach name → solver-effort mapping
            (``solve_count``, ``scalar_solves``, ``stacked_solves``,
            ``stacked_fallbacks``, ``lp_backend``) measured as
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
                        lp_backend=lp_backend,
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
                        lp_backend=lp_backend,
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

    def evaluate_case(i: int) -> tuple:
        x0 = initial_states[i]
        disturbances = realisations[i]
        metrics = {}
        efforts = {}
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
                # Name the episode: the cell layer above adds the grid
                # coordinates, this layer owns the case index.
                raise RMPCInfeasibleError(
                    f"case {i} ({name}): {exc}"
                ) from None
            metrics[name] = metrics_of(stats)
            if instrumented:
                efforts[name] = _probe_delta(before, _solver_probe())
        return metrics, efforts

    def evaluate_case_scoped(i: int) -> tuple:
        # Each case runs under its own registry so forked workers can
        # ship their telemetry back through the result pipe; the serial
        # fallback takes the identical path, keeping jobs=k snapshots
        # equal to jobs=1 by construction (merge happens in case order).
        with _obs.scoped_registry() as case_reg:
            out = evaluate_case(i)
            return out, case_reg.snapshot()

    with _obs.registry().span(
        "episode-batch",
        engine=engine, cases=num_cases, approaches=len(approaches),
    ):
        pairs = fork_map(
            evaluate_case_scoped,
            range(num_cases),
            jobs=1 if engine == "serial" else jobs,
        )
        ambient = _obs.registry()
        for _, snap in pairs:
            ambient.merge_snapshot(snap)
    per_case = [metrics for (metrics, _), _ in pairs]
    if want_effort:
        for name in approaches:
            if not instrumented:
                solver_effort[name] = None
                continue
            total = (0, 0, 0, 0, 0)
            for (_, efforts), _ in pairs:
                total = tuple(
                    a + b for a, b in zip(total, efforts[name])
                )
            solver_effort[name] = _effort_dict(total)
    return {
        name: [metrics[name] for metrics in per_case] for name in approaches
    }
