"""Episodes/sec of the two batch engines: serial vs lockstep.

Standalone script (not a pytest-benchmark kernel) so CI can smoke it at
tiny scale and operators can size batches::

    PYTHONPATH=src python benchmarks/bench_lockstep.py \
        --episodes 256 --horizon 100

It runs the same seeded bang-bang batch on the ACC case study through
both engines (one process each) and cross-checks every row under the two-tier determinism
contract (see ``repro.framework.lockstep``); any failed check makes the
script exit non-zero:

* **bitwise** rows (closed-form controllers; both engines for them, plus
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
  engine overhead: it is where lockstep's speedup shows.
* ``rmpc`` — the paper's robust MPC κ_R.  Lockstep stacks the per-step
  Eq.-5 LPs of the monitor-forced episodes into one sparse
  block-diagonal HiGHS solve (``RobustMPC.solve_batch``, warm-started on
  one padded persistent model); the ``lockstep-exact`` row times the
  ``exact_solves=True`` audit mode, which keeps the scalar path and so
  bounds what the engine alone buys.  Every row records its
  persistent-model builds and cold/warm persistent solves
  (``persistent``), read from the registry like the stage breakdown.
  The run fails when the ``rmpc`` lockstep row makes no warm persistent
  solve, or when a ``serial`` or ``lockstep-exact`` row makes any
  persistent solve.

Every row is timed ``REPEATS`` (3) times: it records the median, min and
max seconds, and speedups are ratios of medians.

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
import statistics
import sys
import time

import numpy as np

from machine import machine_info, visible_cpus

from repro.acc import acc_disturbance_factory, build_case_study
from repro.controllers import LinearFeedback, lqr_gain, verify_plan_equivalence
from repro.framework import BatchRunner
from repro.observability import metrics as _obs
from repro.skipping import AlwaysSkipPolicy

#: The lockstep loop's stages; every lockstep row must report all four.
STAGES = ("classify", "decide", "control", "step")

#: Timed runs per row: a single run of the serial ``rmpc`` row spans
#: 9.5–16.8 s on a shared 2-vCPU VM, so each row reports the median, min
#: and max of this many, and speedups are ratios of medians.
REPEATS = 3


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


def _persistent_totals() -> dict:
    """Cumulative persistent-model builds and cold/warm persistent solves
    in the ambient registry."""
    reg = _obs.registry()
    return {
        "model_builds": reg.total("lp_persistent_model_builds_total"),
        "cold_solves": reg.total("lp_persistent_solves_total", start="cold"),
        "warm_solves": reg.total("lp_persistent_solves_total", start="warm"),
    }


def _persistent_error(row: dict):
    """The warm κ_R route's gate, or None when it holds: the ``rmpc``
    lockstep row must re-solve its persistent model warm (zero warm
    solves means every solve builds a fresh model), and the scalar routes
    — ``serial`` and ``lockstep-exact`` — must make no persistent solve
    at all."""
    counts = row["persistent"]
    solves = counts["cold_solves"] + counts["warm_solves"]
    if row["engine"] in ("serial", "lockstep-exact") and solves:
        return f"made {solves:.0f} persistent solves on a scalar route"
    if (row["controller"], row["engine"]) == ("rmpc", "lockstep") and not (
        counts["warm_solves"]
    ):
        return "made no warm persistent solve"
    return None


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
    seed: int,
    experiment: str = "overall",
    controllers=("linear", "rmpc"),
) -> dict:
    """Time one batch :data:`REPEATS` times per (controller
    configuration, engine).

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
            episodes, horizon, seed, experiment, controllers
        )
        report["telemetry"] = reg.snapshot()
    return report


def _run_benchmark(
    episodes: int,
    horizon: int,
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

        def make_runner(**extra):
            return BatchRunner(
                case.system,
                controller,
                monitor_factory=monitor_factory,
                policy_factory=AlwaysSkipPolicy,
                skip_input=case.skip_input,
                **extra,
            )

        def lockstep_runner(**extra):
            return make_runner(engine="lockstep", **extra)

        def measure(runner):
            """:data:`REPEATS` timed runs of one row: every run's result
            and seconds, plus the first run's stage breakdown and
            persistent-model counts (every run starts from ``reset()``,
            so each run's counts are the same)."""
            results, seconds = [], []
            for _ in range(REPEATS):
                stages_before, lp_before = _stage_totals(), _persistent_totals()
                tick = time.perf_counter()
                results.append(
                    runner.run_seeded(states, factory, root_seed=seed)
                )
                seconds.append(time.perf_counter() - tick)
                if len(results) == 1:
                    stages = _stage_breakdown(stages_before, _stage_totals())
                    persistent = {
                        key: value - lp_before[key]
                        for key, value in _persistent_totals().items()
                    }
            return results, seconds, stages, persistent

        serial = measure(make_runner())
        reference = serial[0][0].deterministic_records()
        serial_seconds = statistics.median(serial[1])
        engines = [
            ("serial", None, "bitwise"),
            ("lockstep", lockstep_runner(),
             "bitwise" if bitwise else "plan-equivalent"),
        ]
        if bitwise:
            # Per-row timing amortisation skipped.
            engines.append(
                ("lockstep-fast", lockstep_runner(collect_timing=False),
                 "bitwise")
            )
        if not bitwise:
            # Audit mode: scalar solves restore bitwise parity, timing
            # what the engine alone (without solve stacking) buys.
            engines.append(
                ("lockstep-exact", lockstep_runner(exact_solves=True),
                 "bitwise")
            )
        for engine, runner, contract in engines:
            results, seconds, stages, persistent = (
                serial if runner is None else measure(runner)
            )
            median = statistics.median(seconds)
            identical = all(
                result.deterministic_records() == reference
                for result in results
            )
            if contract == "bitwise":
                ok = identical
                equivalence = None
            else:
                # Plan-equivalent tier: every episode violation-free and
                # the stacked solve cost-identical (1e-9) to the scalar
                # solve with feasible first inputs, probed at the batch's
                # initial states.
                violation_free = all(
                    record.max_violation <= 0.0
                    for result in results
                    for record in result.records
                )
                equivalence = verify_plan_equivalence(controller, states)
                ok = violation_free and equivalence["equivalent"]
                equivalence = {**equivalence, "violation_free": violation_free}
            row = {
                "controller": name,
                "engine": engine,
                "contract": contract,
                "seconds": median,
                "seconds_min": min(seconds),
                "seconds_max": max(seconds),
                "episodes_per_sec": episodes / median,
                "speedup": serial_seconds / median,
                "identical": identical,
                "ok": ok,
                "equivalence": equivalence,
                "persistent": persistent,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=256)
    parser.add_argument("--horizon", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--experiment", default="overall")
    parser.add_argument(
        "--controllers", nargs="+", default=["linear", "rmpc"],
        choices=["linear", "rmpc"],
        help="controller configurations to bench",
    )
    parser.add_argument(
        "--artifact", default="BENCH_lockstep.json",
        help="perf-trajectory artifact path ('' disables writing)",
    )
    parser.add_argument("--json", default=None, help="also dump results here")
    args = parser.parse_args(argv)

    report = run_benchmark(
        args.episodes, args.horizon, args.seed,
        args.experiment, args.controllers,
    )
    print(
        f"lockstep benchmark: {report['episodes']} episodes x "
        f"{report['horizon']} steps, {report['cpus']} visible CPU(s)"
    )
    print(
        f"{'controller':<11} {'engine':<15} {'sec':>8} {'min-max':>13} "
        f"{'ep/s':>8} {'speedup':>8} {'contract':>15} {'ok':>5}"
    )
    for row in report["rows"]:
        spread = f"{row['seconds_min']:.2f}-{row['seconds_max']:.2f}"
        print(
            f"{row['controller']:<11} {row['engine']:<15} "
            f"{row['seconds']:>8.2f} {spread:>13} "
            f"{row['episodes_per_sec']:>8.2f} "
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
    for row in report["rows"]:
        persistent = row.get("persistent", {})
        if any(persistent.values()):
            print(
                f"{row['controller']:<11} {row['engine']:<15} persistent "
                f"model builds {persistent['model_builds']:.0f}, solves "
                f"{persistent['cold_solves']:.0f} cold / "
                f"{persistent['warm_solves']:.0f} warm"
            )
    for path in (args.artifact, args.json):
        if path:
            with open(path, "w") as handle:
                json.dump(report, handle, indent=2)
            print(f"report written to {path}")
    failed = False
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
        error = _persistent_error(row)
        if error:
            failed = True
            print(f"ERROR: {row['controller']}/{row['engine']} {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
