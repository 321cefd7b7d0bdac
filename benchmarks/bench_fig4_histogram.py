"""Fig. 4 — fuel-saving histogram over random initial states.

Paper setup: 500 cases, sinusoidal front vehicle (Eq. 8, v_e = 40,
a_f = 9, noise ∈ [−1, 1]), 100 steps per case.  Reported: the
distribution of fuel savings of (a) bang-bang control and (b) DRL-based
opportunistic intermittent control against RMPC-only, binned 0–10% …
50–60%, plus the mean savings (paper: 16.28% bang-bang, 23.83% DRL).

The pytest-benchmark kernel times a single intermittent-control episode
(the unit of work the histogram aggregates); the full paired evaluation
runs once and its table is attached as ``extra_info``.
"""

import numpy as np

from benchmarks.conftest import CASES_FIG4, HORIZON, compare, emit, pct
from repro.acc import FIG4_BIN_EDGES, saving_histogram
from repro.framework import IntermittentController
from repro.skipping import AlwaysSkipPolicy


def bench_fig4_fuel_saving_histogram(benchmark, acc_case, overall_agent):
    agent, _env, _history = overall_agent
    result = compare(
        acc_case, "overall", num_cases=CASES_FIG4, seed=1, agent=agent
    )

    bb_hist = saving_histogram(result.fuel_saving("bang_bang"))
    drl_hist = saving_histogram(result.fuel_saving("drl"))
    labels = [
        f"{int(100*a)}%-{int(100*b)}%"
        for a, b in zip(FIG4_BIN_EDGES[:-1], FIG4_BIN_EDGES[1:])
    ]
    rows = [
        (label, int(bb), int(drl))
        for label, bb, drl in zip(labels, bb_hist, drl_hist)
    ]
    emit(
        f"Fig. 4 — fuel-saving histogram ({CASES_FIG4} cases)",
        rows,
        ("saving bin", "bang-bang", "DRL"),
    )
    bb_mean = float(result.fuel_saving("bang_bang").mean())
    drl_mean = float(result.fuel_saving("drl").mean())
    emit(
        "Fig. 4 — mean fuel saving vs RMPC-only (paper: 16.28% / 23.83%)",
        [("bang-bang", pct(bb_mean)), ("DRL", pct(drl_mean))],
        ("approach", "mean saving"),
    )

    benchmark.extra_info["bang_bang_mean_saving"] = bb_mean
    benchmark.extra_info["drl_mean_saving"] = drl_mean
    benchmark.extra_info["bb_histogram"] = bb_hist.tolist()
    benchmark.extra_info["drl_histogram"] = drl_hist.tolist()
    benchmark.extra_info["drl_skip_rate"] = float(
        result.stats("drl").metrics["skip_rate"].mean()
    )

    # Paper shape: both approaches save on average, DRL saves more.
    assert bb_mean > 0.0
    assert drl_mean > bb_mean

    # Timed kernel: one bang-bang episode of the histogram's workload.
    rng = np.random.default_rng(2)
    from repro.traffic import experiment_pattern

    pattern = experiment_pattern("overall", rng)
    x0 = acc_case.sample_initial_states(rng, 1)[0]
    W = acc_case.coords.disturbance_from_vf(pattern.generate(HORIZON))
    runner = IntermittentController(
        acc_case.system, acc_case.mpc, acc_case.make_monitor(),
        AlwaysSkipPolicy(), skip_input=acc_case.skip_input,
    )
    benchmark(lambda: runner.run(x0, W))
