"""Fig. 6 — fuel saving vs regularity of the front-vehicle velocity.

Paper setup: Ex.6 (completely random) → Ex.7 (continuous random) →
Ex.8/9/10 (sinusoid with shrinking noise): the more regular the pattern,
the more the DRL agent saves (Ex.7 ≈ 7.5% rising to Ex.10 ≈ 22.5%),
with Ex.6 an outlier that still saves.

All five experiments share the [30, 50] velocity range, hence the same
safe sets; only the pattern (and the trained agent) differs.  The timed
kernel is one evaluation episode on Ex.10.
"""

from benchmarks.conftest import CASES, EPISODES, RESTARTS, compare, emit, pct
from repro.acc import train_skipping_agent

EXPERIMENTS = ("ex6", "ex7", "ex8", "ex9", "ex10")


def bench_fig6_saving_vs_regularity(benchmark, acc_case):
    rows = []
    savings = {}
    gaps = {}
    for experiment in EXPERIMENTS:
        agent, _env, _history = train_skipping_agent(
            acc_case, experiment, episodes=EPISODES, seed=0,
            restarts=RESTARTS, validation_cases=6,
        )
        result = compare(
            acc_case, experiment, num_cases=CASES, seed=1, agent=agent
        )
        drl = float(result.fuel_saving("drl").mean())
        bb = float(result.fuel_saving("bang_bang").mean())
        savings[experiment] = drl
        gaps[experiment] = drl - bb
        rows.append(
            (experiment, pct(drl), pct(bb), pct(drl - bb),
             f"{result.stats('drl').metrics['forced_steps'].mean():.1f}")
        )
    emit(
        "Fig. 6 — saving vs regularity (paper: rises Ex.7→Ex.10, Ex.6 outlier)",
        rows,
        ("exp", "DRL saving", "bang-bang saving", "DRL-bb gap", "forced steps"),
    )
    benchmark.extra_info["drl_savings"] = savings
    benchmark.extra_info["drl_vs_bb_gap"] = gaps

    # Paper shape, as it manifests robustly at reduced training scale:
    # regularity makes the perturbation *learnable*, so the DRL's edge
    # over the pattern-blind bang-bang grows from the continuous-random
    # Ex.7 to the clean sinusoid Ex.10.  (The raw DRL saving ordering of
    # the paper's Fig. 6 additionally needs Fig.-4-scale training —
    # REPRO_FULL=1 — because an under-trained agent cannot exploit the
    # structure at all; see EXPERIMENTS.md.)  All experiments save.
    assert gaps["ex10"] > gaps["ex7"]
    assert all(s > 0.0 for s in savings.values())

    benchmark(lambda: compare(acc_case, "ex10", num_cases=1, seed=7))
