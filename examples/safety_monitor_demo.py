#!/usr/bin/env python3
"""Fig. 1 + Fig. 2 demo: the nested safe sets and the monitor timeline.

Renders the ACC case study's three nested sets X ⊇ XI ⊇ X' as ASCII art
(the paper's Fig. 1) and then walks a single trajectory, printing the
Fig.-2-style timeline: at each step the monitor's classification and the
resulting skipping choice.

Run:  python examples/safety_monitor_demo.py
(First run computes the safe sets; allow ~15 s.)
"""

import numpy as np

from repro.acc import build_case_study
from repro.framework import IntermittentController, StateClass
from repro.geometry import ascii_sets
from repro.skipping import AlwaysSkipPolicy
from repro.traffic import SinusoidalPattern


def main():
    case = build_case_study()
    print("Paper Fig. 1 — nested safe sets (shifted coordinates):")
    print("  '.' = X (safe set)   '+' = XI (robust invariant)   '#' = X'\n")
    print(
        ascii_sets(
            [case.system.safe_set, case.invariant_set, case.strengthened_set],
            glyphs=[".", "+", "#"],
            width=66,
            height=22,
        )
    )

    # Fig. 2: run bang-bang from a state near the boundary and print the
    # monitor's decisions step by step.
    rng = np.random.default_rng(3)
    pattern = SinusoidalPattern(ve=40.0, amplitude=9.0, noise=1.0, rng=rng)
    vf = pattern.generate(60)
    disturbances = case.coords.disturbance_from_vf(vf)
    x0 = case.strengthened_set.support_point(np.array([1.0, -0.2])) * 0.98

    monitor = case.make_monitor()
    runner = IntermittentController(
        case.system, case.mpc, monitor, AlwaysSkipPolicy(),
        skip_input=case.skip_input,
    )
    stats = runner.run(x0, disturbances)

    print("\nPaper Fig. 2 — monitor timeline (bang-bang policy):")
    print("t    s[m]    v[m/s]  region        z  u_raw")
    for t in range(stats.steps):
        state = stats.states[t]
        region = (
            "X'      " if case.strengthened_set.contains(state)
            else "XI - X' "
        )
        s_raw, v_raw = case.coords.from_shifted(state)
        u_raw = stats.inputs[t, 0] + case.params.u_trim
        marker = "forced" if stats.forced[t] else ""
        print(
            f"{t:<4d} {s_raw:7.2f} {v_raw:7.2f}  {region}  "
            f"{stats.decisions[t]}  {u_raw:6.2f}  {marker}"
        )
    print(
        f"\nskipped {stats.skipped_steps}/{stats.steps}, "
        f"forced {stats.forced_steps}, all safe: "
        f"{case.system.safe_set.contains_batch(stats.states).all()}"
    )


if __name__ == "__main__":
    main()
