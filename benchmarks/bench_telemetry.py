"""Telemetry smoke + overhead gate for the observability subsystem.

Standalone script (not a pytest-benchmark kernel) so CI can gate the
:mod:`repro.observability` cost model on every commit::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --quick \
        --artifact BENCH_telemetry.json

Two sections, both of which must pass for a zero exit code:

* **Overhead gate** — the lockstep paired evaluation of a *linear*
  scenario (closed-form κ, so engine overhead is not hidden behind LP
  solves) is timed with telemetry off and with full telemetry on
  (cell/episode-batch spans, lockstep stage timing,
  solver-effort probes).  Min-of-repeats per configuration; the run
  passes when telemetry-on wall clock is within ``--max-overhead``
  (default 5%) of telemetry-off, or within the absolute jitter floor
  (default 2 ms) — single-core CI containers see scheduling noise far
  above the true instrumentation cost at smoke scale.  The gate also
  re-asserts the hard contract: both runs' deterministic metric arrays
  must be bitwise-identical.

* **Snapshot smoke** — a small cross-scenario sweep runs with
  ``telemetry=True`` and its merged snapshot is embedded in the
  artifact under ``"telemetry"`` (rendered later with
  ``repro telemetry BENCH_telemetry.json``), proving the end-to-end
  export path (registry → per-cell scopes → merged sweep snapshot →
  JSON) on every commit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import (
    ExecutionConfig,
    ExperimentSpec,
    SweepPlan,
    run_experiment,
    run_sweep,
)


def _deterministic_metrics(cell) -> dict:
    """A cell's per-approach metric arrays as comparable nested lists."""
    return {
        name: {
            metric: values.tolist()
            for metric, values in stats.metrics.items()
        }
        for name, stats in cell.approaches.items()
    }


def run_overhead_gate(
    scenario: str,
    episodes: int,
    horizon: int,
    seed: int,
    repeats: int,
    max_overhead: float,
    jitter_floor_ms: float,
) -> dict:
    """Min-of-repeats lockstep timing, telemetry off vs on, plus parity.

    Returns:
        Dict with per-configuration seconds, the overhead ratio, the
        bitwise-parity flag and the gate verdict (``ok``).
    """
    spec = ExperimentSpec(
        scenario=scenario, num_cases=episodes, horizon=horizon, seed=seed
    )
    configurations = {
        "off": ExecutionConfig(engine="lockstep", telemetry=False),
        "on": ExecutionConfig(engine="lockstep", telemetry=True),
    }
    # Untimed warm-up: synthesise the certified sets and bring every
    # in-process cache to steady state so the timed repeats measure the
    # evaluation (and its instrumentation), nothing else.
    results = {
        name: run_experiment(spec, execution)
        for name, execution in configurations.items()
    }
    seconds = {}
    for name, execution in configurations.items():
        best = float("inf")
        for _ in range(repeats):
            tick = time.perf_counter()
            results[name] = run_experiment(spec, execution)
            best = min(best, time.perf_counter() - tick)
        seconds[name] = best
    identical = _deterministic_metrics(results["off"]) == (
        _deterministic_metrics(results["on"])
    )
    ratio = seconds["on"] / seconds["off"]
    delta_ms = 1e3 * (seconds["on"] - seconds["off"])
    within_budget = ratio <= 1.0 + max_overhead or delta_ms <= jitter_floor_ms
    return {
        "scenario": scenario,
        "episodes": episodes,
        "horizon": horizon,
        "seed": seed,
        "repeats": repeats,
        "seconds_off": seconds["off"],
        "seconds_on": seconds["on"],
        "overhead_ratio": ratio,
        "overhead_delta_ms": delta_ms,
        "max_overhead": max_overhead,
        "jitter_floor_ms": jitter_floor_ms,
        "identical": identical,
        "snapshot_present": results["on"].telemetry is not None,
        "ok": within_budget and identical
        and results["on"].telemetry is not None,
    }


def run_snapshot_smoke(
    scenario_names, episodes: int, horizon: int, seed: int
) -> dict:
    """One telemetry-on sweep; returns its merged snapshot + row count."""
    plan = SweepPlan.for_scenarios(
        scenario_names, num_cases=episodes, horizon=horizon, seed=seed
    )
    result = run_sweep(
        plan, ExecutionConfig(engine="lockstep", telemetry=True)
    )
    snapshot = result.telemetry
    counters = sum(
        len(entries) for entries in snapshot["counters"].values()
    )
    return {
        "scenarios": list(scenario_names),
        "cells": len(result),
        "counter_series": counters,
        "spans": len(snapshot.get("spans", [])),
        "always_safe": result.always_safe,
        "ok": result.always_safe and counters > 0,
        "telemetry": snapshot,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", default="dc_motor",
        help="linear (closed-form κ) scenario for the overhead gate",
    )
    parser.add_argument(
        "--sweep-scenarios", nargs="+", default=["thermal", "pendulum"],
        metavar="NAME", dest="snapshot_scenarios",
        help="scenarios of the snapshot-smoke sweep",
    )
    parser.add_argument("--episodes", type=int, default=32)
    parser.add_argument("--horizon", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per configuration (the best one counts)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.05, dest="max_overhead",
        help="relative telemetry-on overhead bound (0.05 = 5%%)",
    )
    parser.add_argument(
        "--jitter-floor-ms", type=float, default=2.0, dest="jitter_floor_ms",
        help="absolute delta [ms] below which the relative bound is "
             "waived (scheduling noise floor on shared CI runners)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke scale: 8 episodes x 20 steps, 3 repeats",
    )
    parser.add_argument(
        "--artifact", default="BENCH_telemetry.json",
        help="artifact path with the gate numbers and the embedded "
             "snapshot ('' disables writing)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.episodes = 8
        args.horizon = 20
        args.repeats = 3

    gate = run_overhead_gate(
        args.scenario, args.episodes, args.horizon, args.seed,
        args.repeats, args.max_overhead, args.jitter_floor_ms,
    )
    print(
        f"telemetry overhead gate ({gate['scenario']}, "
        f"{gate['episodes']} episodes x {gate['horizon']} steps, "
        f"best of {gate['repeats']}):"
    )
    print(
        f"  off {1e3 * gate['seconds_off']:8.2f} ms   "
        f"on {1e3 * gate['seconds_on']:8.2f} ms   "
        f"ratio {gate['overhead_ratio']:.3f}   "
        f"delta {gate['overhead_delta_ms']:+.2f} ms   "
        f"bitwise={gate['identical']}   ok={gate['ok']}"
    )

    smoke = run_snapshot_smoke(
        args.snapshot_scenarios, max(2, args.episodes // 4),
        max(10, args.horizon // 2), args.seed,
    )
    print(
        f"snapshot smoke: {smoke['cells']} cell(s) over "
        f"{', '.join(smoke['scenarios'])} — {smoke['counter_series']} "
        f"counter series, {smoke['spans']} root span(s), "
        f"safe={smoke['always_safe']}, ok={smoke['ok']}"
    )

    report = {
        "overhead_gate": gate,
        "snapshot_smoke": {
            key: value for key, value in smoke.items() if key != "telemetry"
        },
        "telemetry": smoke["telemetry"],
    }
    if args.artifact:
        with open(args.artifact, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.artifact}")
    if not gate["ok"]:
        print(
            "ERROR: telemetry overhead gate failed — "
            + (
                "deterministic metrics differ between telemetry on/off"
                if not gate["identical"]
                else f"lockstep run {gate['overhead_ratio']:.3f}x slower "
                     f"({gate['overhead_delta_ms']:+.2f} ms) with telemetry on"
            )
        )
        return 1
    if not smoke["ok"]:
        print("ERROR: telemetry snapshot smoke failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
