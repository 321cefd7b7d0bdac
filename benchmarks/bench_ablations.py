"""Ablations over the reproduction's design choices.

1. **Engine-map convexity** (fuel quadratic coefficient): skipping gains
   shrink as the map gets more convex — the fuel surrogate standing in
   for SUMO's HBEFA3 meter fixes this coefficient, so the savings depend
   on it.
2. **Skip mode**: coast (paper's zero input) vs trim-hold — coast is
   where the fuel savings live.
3. **Multi-skip strengthened sets** ``S_k``: how much state space still
   admits k guaranteed consecutive skips (extension of Definition 3).
4. **Monitor strictness overhead**: the classify cost with/without the
   X' short-circuit.
"""

import numpy as np

from benchmarks.conftest import compare, emit, pct
from repro.acc import build_case_study
from repro.acc.model import ACCParameters
from repro.invariance import k_step_strengthened_sets
from repro.traffic.fuel import FuelModel, HBEFA3Fuel


def bench_ablation_fuel_convexity(benchmark, acc_case, overall_agent):
    agent, _env, _history = overall_agent
    meter_backup = acc_case.fuel_meter.model
    rows = []
    savings = {}
    try:
        for quad in (0.0, 2e-7, 8e-7):
            acc_case.fuel_meter.__init__(FuelModel(quadratic=quad))
            result = compare(
                acc_case, "overall", num_cases=12, seed=1, agent=agent
            )
            bb = float(result.fuel_saving("bang_bang").mean())
            drl = float(result.fuel_saving("drl").mean())
            savings[quad] = (bb, drl)
            rows.append((f"{quad:.0e}", pct(bb), pct(drl)))
    finally:
        acc_case.fuel_meter.__init__(meter_backup)
    emit(
        "Ablation — engine-map convexity vs skipping gains",
        rows,
        ("quadratic coeff", "bang-bang saving", "DRL saving"),
    )
    # Bang-bang's coast-and-burst strategy degrades fastest with
    # convexity (its savings fall monotonically).
    bb_savings = [savings[q][0] for q in (0.0, 2e-7, 8e-7)]
    assert bb_savings[0] > bb_savings[1] > bb_savings[2]
    benchmark.extra_info["savings"] = {str(k): v for k, v in savings.items()}
    benchmark(lambda: acc_case.fuel_meter.trip_fuel(
        np.full(100, 40.0), np.full(100, 8.0), 0.1
    ))


def bench_ablation_skip_mode(benchmark, acc_case):
    """Coast-mode skipping vs trim-hold skipping (energy + fuel)."""
    trim_case = build_case_study(ACCParameters(skip_mode="trim"))
    rows = []
    info = {}
    for name, case in (("coast", acc_case), ("trim", trim_case)):
        result = compare(case, "overall", num_cases=10, seed=1)
        fuel = float(result.fuel_saving("bang_bang").mean())
        energy = float(result.energy_saving("bang_bang").mean())
        skip = float(result.stats("bang_bang").metrics["skip_rate"].mean())
        info[name] = {"fuel": fuel, "energy": energy, "skip": skip}
        rows.append((name, pct(fuel), pct(energy), f"{skip:.2f}"))
    emit(
        "Ablation — skip mode (bang-bang vs RMPC-only)",
        rows,
        ("skip mode", "fuel saving", "energy saving", "skip rate"),
    )
    # Coast skipping is what actually saves fuel; trim-hold cannot.
    assert info["coast"]["fuel"] > info["trim"]["fuel"]
    benchmark.extra_info.update(info)
    benchmark(lambda: trim_case.strengthened_set.contains(np.zeros(2)))


def bench_ablation_multi_skip_sets(benchmark, acc_case):
    """Area of the k-consecutive-skip sets S_1 ⊇ S_2 ⊇ … (Def. 3 extension)."""
    depth = 6
    sets = k_step_strengthened_sets(
        acc_case.system, acc_case.invariant_set, depth,
        skip_input=acc_case.skip_input,
    )
    base = acc_case.invariant_set.volume()
    rows = []
    areas = []
    for k, poly in enumerate(sets, start=1):
        area = poly.volume()
        areas.append(area)
        rows.append((k, f"{area:.1f}", pct(area / base)))
    emit(
        "Ablation — k-consecutive-skip sets (area, % of XI)",
        rows,
        ("k", "area", "fraction of XI"),
    )
    assert all(a >= b - 1e-9 for a, b in zip(areas, areas[1:]))
    benchmark.extra_info["areas"] = [float(a) for a in areas]
    benchmark(
        lambda: k_step_strengthened_sets(
            acc_case.system, acc_case.invariant_set, 2,
            skip_input=acc_case.skip_input,
        )
    )


def bench_ablation_reward_weights(benchmark, acc_case):
    """Sensitivity of the trained policy to the reward weight w2 —
    run three short trainings and compare skip rates."""
    from repro.acc import train_skipping_agent

    rows = []
    skip_rates = {}
    for w2 in (0.003, 0.03, 0.3):
        agent, _env, _history = train_skipping_agent(
            acc_case, "overall", episodes=25, seed=0, weight_energy=w2
        )
        result = compare(acc_case, "overall", num_cases=6, seed=1, agent=agent)
        skip = float(result.stats("drl").metrics["skip_rate"].mean())
        skip_rates[w2] = skip
        rows.append((w2, f"{skip:.2f}", pct(float(result.fuel_saving('drl').mean()))))
    emit(
        "Ablation — reward energy weight w2 vs learned skip rate",
        rows,
        ("w2", "DRL skip rate", "DRL fuel saving"),
    )
    # More energy pressure → the agent skips more.
    assert skip_rates[0.3] > skip_rates[0.003]
    benchmark.extra_info["skip_rates"] = {str(k): v for k, v in skip_rates.items()}
    benchmark(lambda: acc_case.strengthened_set.contains(np.zeros(2)))
