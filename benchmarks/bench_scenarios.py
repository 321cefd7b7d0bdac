"""Every registered scenario through the lockstep engine, parity-checked.

Standalone script (not a pytest-benchmark kernel) so CI can smoke the
whole scenario zoo and a new scenario cannot merge without engine
parity::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --quick
    PYTHONPATH=src python benchmarks/bench_scenarios.py \
        --episodes 128 --horizon 100

For each registered scenario it runs the same seeded bang-bang batch on
the serial reference engine and on the lockstep engine, then asserts
the two-tier determinism contract (see ``repro.framework.lockstep``):

* **bitwise scenarios** (closed-form κ, e.g. the LQR recipes): every
  deterministic field (energy, skip rate, forced steps, max violation)
  matches record for record between serial and lockstep;
* **plan-equivalent scenarios** (RMPC recipes, whose lockstep path is
  the stacked block-diagonal solve): the ``exact_solves=True`` audit run
  must match serial record for record, and the stacked run must pass
  ``verify_plan_equivalence`` (scalar-equal optimal cost, feasible
  first inputs) at the batch's initial states; and
* **zero safety violations** everywhere — the strict certified monitor
  never saw a state leave ``XI`` (it would raise), and no visited state
  violates the safe set ``X`` (``max_violation <= 0``) under any engine;
* **telemetry transparency** — the same paired evaluation run with full
  telemetry (spans, stage timing, metrics) produces bitwise-identical
  deterministic metric arrays to the telemetry-off run, for every
  scenario (the :mod:`repro.observability` hard contract).

Any mismatch or violation makes the script exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import scenarios
from repro.controllers import verify_plan_equivalence
from repro.experiments import ExecutionConfig, ExperimentSpec, run_experiment
from repro.framework import BatchRunner
from repro.skipping import AlwaysSkipPolicy


def _deterministic_metrics(cell) -> dict:
    """A cell's per-approach metric arrays as comparable nested lists."""
    return {
        name: {
            metric: values.tolist()
            for metric, values in stats.metrics.items()
        }
        for name, stats in cell.approaches.items()
    }


def telemetry_parity(name: str, episodes: int, horizon: int, seed: int) -> bool:
    """True iff telemetry on/off leaves the paired evaluation bitwise-equal.

    Runs the scenario's paired lockstep evaluation twice — once plain,
    once with full telemetry (cell/episode-batch spans, per-approach
    stage timing, solver-effort probes) — and compares every
    deterministic per-case metric array exactly.
    """
    spec = ExperimentSpec(
        scenario=name, num_cases=episodes, horizon=horizon, seed=seed
    )
    plain = run_experiment(
        spec, ExecutionConfig(engine="lockstep", telemetry=False)
    )
    instrumented = run_experiment(
        spec, ExecutionConfig(engine="lockstep", telemetry=True)
    )
    return (
        _deterministic_metrics(plain) == _deterministic_metrics(instrumented)
        and instrumented.telemetry is not None
    )


def scenario_row(
    name: str, episodes: int, horizon: int, seed: int
) -> dict:
    """One scenario's build + serial/lockstep timing + parity row."""
    tick = time.perf_counter()
    case = scenarios.build(name)
    build_seconds = time.perf_counter() - tick

    rng = np.random.default_rng(seed)
    states = case.sample_initial_states(rng, episodes)
    factory = case.disturbance_factory(horizon)
    bitwise = getattr(case.controller, "bitwise_batch", True)

    def timed(engine: str, **extra):
        runner = BatchRunner(
            case.system,
            case.controller,
            monitor_factory=case.make_monitor,  # strict: XI exits raise
            policy_factory=AlwaysSkipPolicy,
            skip_input=case.skip_input,
            engine=engine,
            **extra,
        )
        start = time.perf_counter()
        result = runner.run_seeded(states, factory, root_seed=seed)
        return result, time.perf_counter() - start

    serial_result, serial_seconds = timed("serial")
    lockstep_result, lockstep_seconds = timed("lockstep")
    reference = serial_result.deterministic_records()
    identical = lockstep_result.deterministic_records() == reference
    if bitwise:
        parity = identical
    else:
        # Plan-equivalent tier: the audit mode must restore bitwise
        # parity, and the stacked solves must be cost-identical with
        # feasible inputs at the visited start states.
        exact_result, _ = timed("lockstep", exact_solves=True)
        parity = (
            exact_result.deterministic_records() == reference
            and verify_plan_equivalence(case.controller, states)["equivalent"]
        )
    max_violation = max(
        record.max_violation
        for result in (serial_result, lockstep_result)
        for record in result.records
    )
    transparent = telemetry_parity(name, episodes, horizon, seed)
    return {
        "scenario": name,
        "n": case.system.n,
        "controller": case.spec.controller,
        "contract": "bitwise" if bitwise else "plan-equivalent",
        "build_seconds": build_seconds,
        "serial_seconds": serial_seconds,
        "lockstep_seconds": lockstep_seconds,
        "speedup": serial_seconds / lockstep_seconds,
        "identical": identical,
        "parity": parity,
        "telemetry_transparent": transparent,
        "max_violation": max_violation,
        "safe": max_violation <= 0.0,
    }


def run_benchmark(
    episodes: int, horizon: int, seed: int, names=None
) -> dict:
    """Bench every requested scenario; returns rows + the overall verdict."""
    if names is None:
        names = scenarios.list_scenarios()
    rows = [scenario_row(name, episodes, horizon, seed) for name in names]
    return {
        "episodes": episodes,
        "horizon": horizon,
        "seed": seed,
        "rows": rows,
        "ok": all(
            row["parity"] and row["safe"] and row["telemetry_transparent"]
            for row in rows
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=64)
    parser.add_argument("--horizon", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="scenario subset (default: every registered scenario)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke scale: 4 episodes x 10 steps",
    )
    parser.add_argument("--json", default=None, help="also dump results here")
    args = parser.parse_args(argv)
    episodes = 4 if args.quick else args.episodes
    horizon = 10 if args.quick else args.horizon

    report = run_benchmark(episodes, horizon, args.seed, args.scenarios)
    print(
        f"scenario zoo benchmark: {len(report['rows'])} scenario(s), "
        f"{episodes} episodes x {horizon} steps"
    )
    print(
        f"{'scenario':<14} {'n':>2} {'ctrl':<7} {'contract':>15} "
        f"{'build[s]':>9} {'serial[s]':>9} {'lock[s]':>8} {'speedup':>8} "
        f"{'parity':>6} {'telem':>5} {'max viol':>9}"
    )
    for row in report["rows"]:
        print(
            f"{row['scenario']:<14} {row['n']:>2} {row['controller']:<7} "
            f"{row['contract']:>15} "
            f"{row['build_seconds']:>9.2f} {row['serial_seconds']:>9.2f} "
            f"{row['lockstep_seconds']:>8.2f} {row['speedup']:>7.2f}x "
            f"{str(row['parity']):>6} {str(row['telemetry_transparent']):>5} "
            f"{row['max_violation']:>9.2e}"
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")
    if not report["ok"]:
        print(
            "ERROR: an engine failed its determinism-contract check, "
            "telemetry perturbed the deterministic records, or a "
            "trajectory left the safe set"
        )
        return 1
    print(
        "all scenarios: determinism contract holds "
        "(bitwise / plan-equivalent), telemetry transparent, "
        "zero violations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
