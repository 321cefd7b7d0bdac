#!/usr/bin/env python3
"""Scenario zoo tour: one pipeline, five plants.

Shows the three levels of the scenario subsystem:

1. the registry — list what ships, pick a benchmark by name;
2. a custom scenario — declare any constrained LTI plant as a
   :class:`ScenarioSpec` and get the full paper machinery (certified XI,
   strengthened X', monitor, sampler) from one ``build_case_study`` call;
3. the experiment API — the Table-I-style paired comparison, run on one
   scenario (``run_experiment``) and swept over every registered
   scenario (``run_sweep``) through the lockstep engine.

Run:  PYTHONPATH=src python examples/scenario_zoo.py
"""

from repro import scenarios
from repro.experiments import (
    ExecutionConfig,
    ExperimentSpec,
    SweepPlan,
    run_experiment,
    run_sweep,
)
from repro.geometry import HPolytope
from repro.scenarios import ScenarioSpec, build_case_study

LOCKSTEP = ExecutionConfig(engine="lockstep")


def tour_registry():
    print("=== registered scenarios ===")
    for name in scenarios.list_scenarios():
        spec = scenarios.get(name)
        print(f"  {name:<14} n={spec.n} m={spec.m} [{spec.controller}] "
              f"{spec.description}")
    print()


def build_custom_scenario():
    print("=== custom scenario: undamped oscillator ===")
    # A lightly-damped spring-mass about its rest point, declared in
    # continuous time; the builder discretizes, synthesises the RMPC,
    # certifies XI and derives X'.
    spec = ScenarioSpec(
        name="oscillator",
        description="spring-mass about rest, 2 states, RMPC",
        A=[[0.0, 1.0], [-4.0, -0.4]],
        B=[[0.0], [1.0]],
        continuous=True,
        dt=0.05,
        safe_set=HPolytope.from_box([-1.0, -2.0], [1.0, 2.0]),
        input_set=HPolytope.from_box([-5.0], [5.0]),
        disturbance_set=HPolytope.from_box([-0.01, -0.02], [0.01, 0.02]),
        controller="rmpc",
        horizon=8,
    )
    case = build_case_study(spec)
    _, xi_radius = case.invariant_set.chebyshev_center()
    _, xp_radius = case.strengthened_set.chebyshev_center()
    print(f"  XI: {case.invariant_set.num_constraints} constraints, "
          f"radius {xi_radius:.3f}")
    print(f"  X': {case.strengthened_set.num_constraints} constraints, "
          f"radius {xp_radius:.3f}")

    # The spec is ready for a paired experiment (the run reuses the
    # sets just built: the builder caches by the spec's numbers).
    result = run_experiment(
        ExperimentSpec(scenario=spec, num_cases=4, horizon=30, seed=7),
        LOCKSTEP,
    )
    saving = 100 * result.energy_saving("bang_bang").mean()
    print(f"  bang-bang energy saving over 4 paired cases: {saving:.1f}%")
    print(f"  every trajectory safe: {result.always_safe}\n")


def cross_scenario_sweep():
    print("=== cross-scenario sweep (lockstep engine) ===")
    results = run_sweep(
        SweepPlan.for_scenarios(
            scenarios.list_scenarios(), execution=LOCKSTEP,
            num_cases=4, horizon=30, seed=1,
        )
    )
    print(f"  {'scenario':<14} {'bang-bang saving':>17} {'skip%':>6} {'safe':>5}")
    for result in results:
        stats = result.stats("bang_bang")
        print(
            f"  {result.scenario:<14} "
            f"{100 * result.energy_saving('bang_bang').mean():16.1f}% "
            f"{100 * stats.metrics['skip_rate'].mean():5.0f}% "
            f"{str(result.always_safe):>5}"
        )


def main():
    tour_registry()
    build_custom_scenario()
    cross_scenario_sweep()


if __name__ == "__main__":
    main()
