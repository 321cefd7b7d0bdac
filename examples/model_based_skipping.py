#!/usr/bin/env python3
"""Model-based skipping (paper Eq. 6) with a known disturbance.

When the controller is analytic (u = Kx) and the perturbation trace is
known, the skipping choice can be optimised exactly.  This example runs
the receding-horizon MILP of Eq. (6) on a double integrator tracking
through a known sinusoidal disturbance, and compares four policies:

* always-run      — the underlying controller at every step;
* bang-bang       — Eq. (7): skip whenever the monitor allows;
* MILP (Eq. 6)    — mixed-integer optimal skipping, horizon 5;
* exhaustive      — brute-force ground truth for the same horizon.

Run:  python examples/model_based_skipping.py
"""

import numpy as np

from repro.controllers import LinearFeedback, lqr_gain
from repro.framework import IntermittentController, SafetyMonitor
from repro.geometry import HPolytope
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import (
    AlwaysRunPolicy,
    AlwaysSkipPolicy,
    ExhaustiveSkippingPolicy,
    MILPSkippingPolicy,
)
from repro.systems import DiscreteLTISystem, SinusoidalDisturbance


def main():
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    system = DiscreteLTISystem(
        A,
        B,
        safe_set=HPolytope.from_box([-3.0, -1.5], [3.0, 1.5]),
        input_set=HPolytope.from_box([-3.0], [3.0]),
        disturbance_set=HPolytope.from_box([-0.06, -0.06], [0.06, 0.06]),
    )
    K = lqr_gain(A, B, np.eye(2), np.eye(1))
    controller = LinearFeedback(K)

    seed = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed, system.disturbance_set
    ).invariant_set
    x_prime = strengthened_safe_set(system, xi)

    # A *known* perturbation: sinusoid on the position channel plus a
    # small bias — exactly the setting Eq. (6) assumes.
    rng = np.random.default_rng(1)
    sine = SinusoidalDisturbance(amplitude=0.05, dt=dt, bound=0.06)
    horizon = 80
    W = np.zeros((horizon, 2))
    W[:, 0] = sine.sample(horizon)[:, 0]
    W[:, 1] = rng.uniform(0.0, 0.04, size=horizon)

    x0 = x_prime.sample(rng, 1)[0]
    print(f"x0 = {np.round(x0, 3)}   (inside X', area {x_prime.volume():.2f})\n")

    def run(policy, reveal):
        monitor = SafetyMonitor(
            strengthened_set=x_prime, invariant_set=xi,
            safe_set=system.safe_set,
        )
        return IntermittentController(
            system, controller, monitor, policy, reveal_future=reveal
        ).run(x0, W)

    policies = [
        ("always-run", AlwaysRunPolicy(), False),
        ("bang-bang (Eq. 7)", AlwaysSkipPolicy(), False),
        ("MILP (Eq. 6, H=5)", MILPSkippingPolicy(system, K, x_prime, horizon=5), True),
        ("exhaustive (H=5)",
         ExhaustiveSkippingPolicy(system, controller, x_prime, horizon=5), True),
    ]
    print(f"{'policy':<20} {'energy':>8} {'skip%':>6} {'forced':>7} {'safe':>5}")
    for name, policy, reveal in policies:
        stats = run(policy, reveal)
        safe = system.safe_set.contains_batch(stats.states).all()
        print(
            f"{name:<20} {stats.energy:8.3f} {100*stats.skip_rate:5.0f}% "
            f"{stats.forced_steps:7d} {str(bool(safe)):>5}"
        )
    print("\nThe MILP plans ahead with the known disturbance: it matches the")
    print("exhaustive optimum and avoids the forced recoveries bang-bang needs.")


if __name__ == "__main__":
    main()
