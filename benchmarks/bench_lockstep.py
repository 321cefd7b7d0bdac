"""Episodes/sec of the three batch engines: serial vs parallel vs lockstep.

Standalone script (not a pytest-benchmark kernel) so CI can smoke it at
tiny scale and operators can size batches::

    PYTHONPATH=src python benchmarks/bench_lockstep.py \
        --episodes 256 --horizon 100 --jobs 2

It runs the same seeded bang-bang batch on the ACC case study through
every engine and cross-checks every row under the two-tier determinism
contract (see ``repro.framework.lockstep``); any failed check makes the
script exit non-zero:

* **bitwise** rows (closed-form controllers; every engine for them, plus
  the ``lockstep-exact`` audit row of LP controllers) must produce
  record-for-record identical deterministic fields to the serial
  reference — the differential guarantee the test suite proves at small
  scale;
* **plan-equivalent** rows (the lockstep engine's stacked block-diagonal
  κ_R solves) must match the scalar solves' optimal cost within 1e-9
  with feasible first inputs (``verify_plan_equivalence``) and finish
  every episode with zero safety violations.

Two controller configurations are timed:

* ``linear`` — an LQR feedback (vectorised ``compute_batch``, non-strict
  monitor).  Every per-step cost is batchable, so this row isolates the
  engine overhead: it is where lockstep's single-core speedup shows,
  while fork-based parallelism pays overhead on a single-CPU container.
* ``rmpc`` — the paper's robust MPC κ_R.  Lockstep stacks the per-step
  Eq.-5 LPs of all running episodes into one sparse block-diagonal HiGHS
  solve (``RobustMPC.solve_batch``, warm-started by default); the
  ``lockstep-exact`` row times the ``exact_solves=True`` audit mode,
  which keeps the scalar path and so bounds what the engine alone buys.

A third section times the *LP backends* head to head on the stacked
κ_R solve itself (``--warm-steps N``): the same receding-horizon batch
sequence is solved cold (``scipy``: a fresh stacked ``solve_lp_batch``
per step, which re-factorises from scratch) and warm (``highs``, the
default: each step only rewrites the initial-state equality RHS and
reuses the incumbent basis).  The row is judged by *solve time per
lockstep step*; both backends must attain identical per-step total
optimal cost (plan-equivalent tier).

The whole benchmark runs under an enabled metrics registry, so every
lockstep row also carries its per-stage wall-clock breakdown
(classify / decide / control / step), read as the before/after delta of
the engine's ``lockstep_stage_seconds`` / ``lockstep_stage_calls``
telemetry.  A lockstep row missing any stage fails the run too — the
gate on the registry timing path.

Every run also writes a ``BENCH_lockstep.json`` perf-trajectory artifact
(per-row episodes/sec + speedups + stage breakdowns, machine info) so
successive commits can be compared; disable with ``--artifact ''``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from machine import machine_info, visible_cpus

from repro.acc import acc_disturbance_factory, build_case_study
from repro.controllers import LinearFeedback, lqr_gain, verify_plan_equivalence
from repro.framework import BatchRunner, ParallelBatchRunner
from repro.observability import metrics as _obs
from repro.skipping import AlwaysSkipPolicy

#: The lockstep loop's stages; every lockstep row must report all four.
STAGES = ("classify", "decide", "control", "step")


def _configurations(case) -> dict:
    """controller-name -> (controller, monitor_factory) pairs to bench."""
    system = case.system
    lo, hi = system.input_set.bounding_box()
    lqr = LinearFeedback(
        lqr_gain(system.A, system.B, np.eye(system.n), np.eye(system.m)),
        saturation=(lo, hi),
    )
    return {
        # Non-strict monitor: the LQR is not the certified κ, so XI
        # excursions must be recorded (identically per engine), not raised.
        "linear": (lqr, lambda: case.make_monitor(strict=False)),
        "rmpc": (case.mpc, case.make_monitor),
    }


def _stage_totals() -> dict:
    """Cumulative ``stage -> (seconds, calls)`` in the ambient registry."""
    reg = _obs.registry()
    return {
        stage: (
            reg.total("lockstep_stage_seconds", stage=stage),
            reg.total("lockstep_stage_calls", stage=stage),
        )
        for stage in STAGES
    }


def _stage_breakdown(before: dict, after: dict) -> dict:
    """``{stage: {seconds, calls, share}}`` between two :func:`_stage_totals`
    probes; stages the run never charged are left out."""
    spent = {
        stage: (after[stage][0] - before[stage][0],
                after[stage][1] - before[stage][1])
        for stage in STAGES
    }
    spent = {stage: pair for stage, pair in spent.items() if pair[1] > 0}
    total = sum(seconds for seconds, _ in spent.values())
    return {
        stage: {
            "seconds": seconds,
            "calls": calls,
            "share": seconds / total if total > 0 else 0.0,
        }
        for stage, (seconds, calls) in spent.items()
    }


def run_benchmark(
    episodes: int,
    horizon: int,
    jobs: int,
    seed: int,
    experiment: str = "overall",
    controllers=("linear", "rmpc"),
) -> dict:
    """Time one batch per (controller configuration, engine).

    The ``linear`` configuration gets one extra lockstep row on top of
    the plain (timing-on) one: ``lockstep-fast`` drops the per-row
    wall-clock amortisation (``collect_timing=False``) and stays on the
    bitwise contract.  Every lockstep row carries its per-stage
    wall-clock breakdown (``profile``) and the stages it failed to
    report (``missing_stages``, empty when the registry path works).

    Returns:
        Dict with per-configuration throughput, speedup over that
        configuration's serial baseline, the determinism contract each
        row was checked under, its pass/fail flag (``ok``), and the
        run's telemetry snapshot (``telemetry``) — the whole benchmark
        runs under its own enabled registry.
    """
    with _obs.scoped_registry(enabled=True) as reg:
        report = _run_benchmark(
            episodes, horizon, jobs, seed, experiment, controllers
        )
        report["telemetry"] = reg.snapshot()
    return report


def _run_benchmark(
    episodes: int,
    horizon: int,
    jobs: int,
    seed: int,
    experiment: str,
    controllers,
) -> dict:
    case = build_case_study()
    factory = acc_disturbance_factory(case, experiment, horizon)
    rng = np.random.default_rng(seed)
    states = case.sample_initial_states(rng, episodes)
    available = _configurations(case)

    rows = []
    for name in controllers:
        controller, monitor_factory = available[name]
        bitwise = getattr(controller, "bitwise_batch", True)

        def make_runner(cls, **extra):
            return cls(
                case.system,
                controller,
                monitor_factory=monitor_factory,
                policy_factory=AlwaysSkipPolicy,
                skip_input=case.skip_input,
                **extra,
            )

        def lockstep_runner(**extra):
            return make_runner(BatchRunner, engine="lockstep", **extra)

        def timed(runner):
            tick = time.perf_counter()
            result = runner.run_seeded(states, factory, root_seed=seed)
            return result, time.perf_counter() - tick

        serial_result, serial_seconds = timed(make_runner(BatchRunner))
        reference = serial_result.deterministic_records()
        engines = [
            ("serial", make_runner(BatchRunner), "bitwise",
             serial_result, serial_seconds),
            ("parallel", make_runner(ParallelBatchRunner, jobs=jobs),
             "bitwise", None, None),
            ("lockstep", lockstep_runner(),
             "bitwise" if bitwise else "plan-equivalent", None, None),
        ]
        if bitwise:
            # Per-row timing amortisation skipped.
            engines.append(
                ("lockstep-fast",
                 lockstep_runner(collect_timing=False),
                 "bitwise", None, None)
            )
        if not bitwise:
            # Audit mode: scalar solves restore bitwise parity, timing
            # what the engine alone (without solve stacking) buys.
            engines.append(
                ("lockstep-exact",
                 lockstep_runner(exact_solves=True),
                 "bitwise", None, None)
            )
        for engine, runner, contract, result, seconds in engines:
            before = _stage_totals()
            if result is None:
                result, seconds = timed(runner)
            stages = _stage_breakdown(before, _stage_totals())
            identical = result.deterministic_records() == reference
            if contract == "bitwise":
                ok = identical
                equivalence = None
            else:
                # Plan-equivalent tier: every episode violation-free and
                # the stacked solve cost-identical (1e-9) to the scalar
                # solve with feasible first inputs, probed at the batch's
                # initial states.
                violation_free = all(
                    record.max_violation <= 0.0 for record in result.records
                )
                equivalence = verify_plan_equivalence(controller, states)
                ok = violation_free and equivalence["equivalent"]
                equivalence = {**equivalence, "violation_free": violation_free}
            row = {
                "controller": name,
                "engine": engine,
                "jobs": jobs if engine == "parallel" else 1,
                "contract": contract,
                "seconds": seconds,
                "episodes_per_sec": episodes / seconds,
                "speedup": serial_seconds / seconds,
                "identical": identical,
                "ok": ok,
                "equivalence": equivalence,
            }
            if engine.startswith("lockstep"):
                row["profile"] = stages
                row["missing_stages"] = [
                    stage for stage in STAGES if stage not in stages
                ]
            rows.append(row)
    return {
        "episodes": episodes,
        "horizon": horizon,
        "seed": seed,
        "cpus": visible_cpus(),
        "machine": machine_info(),
        "rows": rows,
    }


def run_warm_start_benchmark(
    episodes: int,
    steps: int,
    seed: int,
    case=None,
) -> dict:
    """Solve-time per lockstep step of the stacked κ_R solve, per backend.

    Materialises one nominal receding-horizon state sequence (each step's
    batch is the previous step's planned next states), then times each
    backend over the *identical* sequence — so the scipy row pays a cold
    stacked solve per step while the highs row warm-starts from the
    previous basis, and their per-step total costs must agree within the
    plan-equivalent tolerance.

    Returns:
        Dict with per-backend rows (seconds,
        solve-ms/step, speedup over scipy, max per-step cost deviation,
        ``ok``) and the workload shape.
    """
    if case is None:
        case = build_case_study()
    mpc = case.mpc
    states = case.sample_initial_states(np.random.default_rng(seed), episodes)

    # Reference rollout (scipy): fixes the batches both backends solve
    # and the per-step total optimal costs they must both attain.
    default_backend = mpc.lp_backend
    mpc.set_lp_backend("scipy")
    sequence = [states]
    reference_costs = []
    for _ in range(steps):
        solutions = mpc.solve_batch(sequence[-1])
        reference_costs.append(sum(sol.cost for sol in solutions))
        sequence.append(np.stack([sol.states[1] for sol in solutions]))
    sequence = sequence[:steps]
    tol = 1e-8 * max(1, episodes)

    rows = []
    scipy_seconds = None
    for backend in ("scipy", "highs"):
        mpc.set_lp_backend(backend)
        mpc.reset()  # cold start for every timed row
        max_cost_diff = 0.0
        tick = time.perf_counter()
        for step_states, reference in zip(sequence, reference_costs):
            solutions = mpc.solve_batch(step_states)
            max_cost_diff = max(
                max_cost_diff,
                abs(sum(sol.cost for sol in solutions) - reference),
            )
        seconds = time.perf_counter() - tick
        if backend == "scipy":
            scipy_seconds = seconds
        rows.append(
            {
                "backend": backend,
                "seconds": seconds,
                "solve_ms_per_step": 1e3 * seconds / steps,
                "speedup_vs_scipy": scipy_seconds / seconds,
                "warm_solves": mpc._persistent_solver().warm_solves,
                "max_cost_diff": max_cost_diff,
                "ok": max_cost_diff <= tol,
            }
        )
    mpc.set_lp_backend(default_backend)
    mpc.reset()
    return {
        "episodes": episodes,
        "steps": steps,
        "seed": seed,
        "cost_tolerance": tol,
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=256)
    parser.add_argument("--horizon", type=int, default=100)
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker count for the parallel engine rows",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--experiment", default="overall")
    parser.add_argument(
        "--controllers", nargs="+", default=["linear", "rmpc"],
        choices=["linear", "rmpc"],
        help="controller configurations to bench",
    )
    parser.add_argument(
        "--warm-steps", type=int, default=8, dest="warm_steps",
        help="lockstep steps for the LP-backend warm-start section "
             "(0 disables)",
    )
    parser.add_argument(
        "--artifact", default="BENCH_lockstep.json",
        help="perf-trajectory artifact path ('' disables writing)",
    )
    parser.add_argument("--json", default=None, help="also dump results here")
    args = parser.parse_args(argv)

    report = run_benchmark(
        args.episodes, args.horizon, args.jobs, args.seed,
        args.experiment, args.controllers,
    )
    print(
        f"lockstep benchmark: {report['episodes']} episodes x "
        f"{report['horizon']} steps, {report['cpus']} visible CPU(s)"
    )
    print(
        f"{'controller':<11} {'engine':<15} {'jobs':>4} {'sec':>8} "
        f"{'ep/s':>8} {'speedup':>8} {'contract':>15} {'ok':>5}"
    )
    for row in report["rows"]:
        print(
            f"{row['controller']:<11} {row['engine']:<15} {row['jobs']:>4} "
            f"{row['seconds']:>8.2f} {row['episodes_per_sec']:>8.2f} "
            f"{row['speedup']:>7.2f}x {row['contract']:>15} "
            f"{str(row['ok']):>5}"
        )
    print("\nstage breakdown (share of lockstep stage wall-clock)")
    for row in report["rows"]:
        if "profile" not in row:
            continue
        breakdown = ", ".join(
            f"{stage} {data['share']:.0%}"
            for stage, data in row["profile"].items()
        )
        print(f"{row['controller']:<11} {row['engine']:<15} {breakdown}")
    if args.warm_steps > 0 and "rmpc" in args.controllers:
        warm = run_warm_start_benchmark(
            args.episodes, args.warm_steps, args.seed
        )
        report["warm_start"] = warm
        print(
            f"\nwarm-start (stacked κ_R solve, {warm['episodes']} episodes x "
            f"{warm['steps']} steps)"
        )
        print(
            f"{'backend':<8} {'sec':>8} {'solve ms/step':>14} "
            f"{'vs scipy':>9} {'ok':>5}"
        )
        for row in warm["rows"]:
            print(
                f"{row['backend']:<8} {row['seconds']:>8.2f} "
                f"{row['solve_ms_per_step']:>14.1f} "
                f"{row['speedup_vs_scipy']:>8.2f}x {str(row['ok']):>5}"
            )
    for path in (args.artifact, args.json):
        if path:
            with open(path, "w") as handle:
                json.dump(report, handle, indent=2)
            print(f"report written to {path}")
    failed = False
    for row in report.get("warm_start", {}).get("rows", ()):
        if not row["ok"]:
            failed = True
            print(
                f"ERROR: warm-start backend {row['backend']} deviated from "
                f"the reference costs (max diff {row['max_cost_diff']:.2e})"
            )
    for row in report["rows"]:
        if not row["ok"]:
            failed = True
            print(
                f"ERROR: {row['controller']}/{row['engine']} failed its "
                f"{row['contract']} determinism check"
                + (
                    f" ({row['equivalence']})"
                    if row["equivalence"] is not None
                    else ""
                )
            )
        if row.get("missing_stages"):
            failed = True
            print(
                f"ERROR: {row['controller']}/{row['engine']} reported no "
                f"lockstep_stage_seconds for {row['missing_stages']}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
