"""Table I + Fig. 5 — fuel saving vs front-vehicle velocity range.

Paper setup: Ex.1–Ex.5 share the bounded-acceleration pattern
(v_f' ∈ [−20, 20]) but shrink the velocity range from [30, 50] down to
[39, 41]; 500 cases each.  Reported: DRL saving grows as the range
narrows (≈7% → ≈13% in the paper's Fig. 5).

Each experiment's disturbance set differs, so XI and X' are recomputed
per range (Table I is exactly this parameter sweep).  The timed kernel
is one evaluation episode on the narrowest range.
"""

from benchmarks.conftest import CASES, EPISODES, RESTARTS, compare, emit, pct
from repro.acc import (
    case_study_for_experiment,
    experiment_vf_range,
    train_skipping_agent,
)

EXPERIMENTS = ("ex1", "ex2", "ex3", "ex4", "ex5")


def bench_fig5_saving_vs_vf_range(benchmark, acc_case):
    rows = []
    savings = {}
    for experiment in EXPERIMENTS:
        case = case_study_for_experiment(experiment)
        agent, _env, _history = train_skipping_agent(
            case, experiment, episodes=EPISODES, seed=0,
            restarts=RESTARTS, validation_cases=6,
        )
        result = compare(case, experiment, num_cases=CASES, seed=1, agent=agent)
        drl = float(result.fuel_saving("drl").mean())
        bb = float(result.fuel_saving("bang_bang").mean())
        savings[experiment] = drl
        rows.append(
            (
                experiment,
                str(experiment_vf_range(experiment)),
                pct(drl),
                pct(bb),
                f"{result.stats('drl').metrics['skip_rate'].mean():.2f}",
            )
        )
    emit(
        "Fig. 5 — saving vs vf range (paper: grows as range narrows)",
        rows,
        ("exp", "vf range", "DRL saving", "bang-bang saving", "DRL skip"),
    )
    benchmark.extra_info["drl_savings"] = savings

    # Paper shape: the narrowest range saves more than the widest.
    assert savings["ex5"] > savings["ex1"]

    # Timed kernel: a single paired evaluation case on Ex.5.
    case5 = case_study_for_experiment("ex5")
    benchmark(lambda: compare(case5, "ex5", num_cases=1, seed=7))
