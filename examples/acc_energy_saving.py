#!/usr/bin/env python3
"""The paper's headline experiment (Sec. IV-A) at demo scale.

Builds the ACC case study, trains the double-DQN skipping agent on the
sinusoidal front-vehicle scenario (Eq. 8), and compares three approaches
on paired random cases:

* RMPC-only — the traditional approach (κ_R every step);
* bang-bang — Eq. (7): zero input whenever the state is in X';
* DRL-based opportunistic intermittent control — the paper's method.

Reported: fuel (HBEFA3 surrogate), the formal Σ‖u‖₁ energy, skip rates
and the computation-saving ratio.  Demo scale (short training, few
cases) keeps the run under ~3 minutes; the benchmarks run the full
version.

Run:  python examples/acc_energy_saving.py
"""

import numpy as np

from repro.acc import build_case_study, greedy_drl_policy, train_skipping_agent
from repro.experiments import ExperimentSpec, run_experiment
from repro.framework import computation_saving


def main():
    print("Building ACC case study (RMPC + XI + X')...")
    case = build_case_study()
    print(f"  XI area {case.invariant_set.volume():.0f}, "
          f"X' area {case.strengthened_set.volume():.0f} "
          f"(safe set {case.system.safe_set.volume():.0f})")

    print("Training double-DQN skipping agent (demo scale)...")
    agent, _env, history = train_skipping_agent(
        case, "overall", episodes=120, seed=0
    )
    print(f"  episode return: first 10 {np.mean(history.returns[:10]):.4f}  "
          f"last 10 {np.mean(history.returns[-10:]):.4f}")

    print("Evaluating 12 paired cases x 100 steps...")
    cell = run_experiment(
        ExperimentSpec(
            scenario=case, pattern="overall",
            approaches=("bang_bang", "drl"),
            num_cases=12, horizon=100, seed=1,
            policies={"drl": greedy_drl_policy(case, agent)},
        )
    )

    print(f"\n{'approach':<12} {'fuel[g]':>8} {'saving':>8} "
          f"{'energy':>8} {'skip%':>6} {'forced':>7}")
    for name, key in (("RMPC-only", "baseline"), ("bang-bang", "bang_bang"),
                      ("DRL", "drl")):
        metrics = cell.stats(key).metrics
        saving = (
            "-" if key == "baseline"
            else f"{100*cell.fuel_saving(key).mean():.1f}%"
        )
        print(
            f"{name:<12} {metrics['fuel'].mean():8.2f} {saving:>8} "
            f"{metrics['energy'].mean():8.1f} "
            f"{100*metrics['skip_rate'].mean():5.0f}% "
            f"{metrics['forced_steps'].mean():7.1f}"
        )

    drl = cell.stats("drl")
    t_controller = cell.stats("baseline").mean_controller_ms / 1e3
    t_monitor = drl.mean_monitor_ms / 1e3
    skipped = int(drl.metrics["skip_rate"].mean() * 100)
    saving = computation_saving(t_controller, t_monitor, 100, skipped)
    print(f"\ncomputation: controller {1e3*t_controller:.2f} ms/step vs "
          f"monitor+NN {1e3*t_monitor:.3f} ms/step")
    print(f"computation saving at {skipped} skips/100 steps: {100*saving:.1f}% "
          "(paper: ~60%)")


if __name__ == "__main__":
    main()
