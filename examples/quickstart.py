#!/usr/bin/env python3
"""Quickstart: safe intermittent control on a double integrator.

Walks through the whole pipeline of the paper on the smallest possible
system:

1. define a constrained LTI plant with a bounded disturbance;
2. design a safe controller (LQR);
3. compute the robust invariant set XI and the strengthened safe set X';
4. run Algorithm 1 with the bang-bang skipping policy;
5. compare energy and computation against running the controller at
   every step.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.controllers import LinearFeedback, lqr_gain
from repro.framework import (
    IntermittentController,
    SafetyMonitor,
    run_controller_only,
)
from repro.geometry import HPolytope
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import AlwaysSkipPolicy
from repro.systems import DiscreteLTISystem


def main():
    # 1. Plant: x = (position, velocity), u = acceleration, |w| <= 0.05.
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    system = DiscreteLTISystem(
        A,
        B,
        safe_set=HPolytope.from_box([-5.0, -2.0], [5.0, 2.0]),
        input_set=HPolytope.from_box([-3.0], [3.0]),
        disturbance_set=HPolytope.from_box([-0.05, -0.05], [0.05, 0.05]),
    )

    # 2. Underlying safe controller: LQR state feedback.
    K = lqr_gain(A, B, np.eye(2), np.eye(1))
    controller = LinearFeedback(K)
    print(f"LQR gain K = {np.round(K, 3)}")

    # 3. Safe sets: XI (robust invariant under u = Kx, respecting U) and
    #    the strengthened set X' = B(XI, 0) ∩ XI (Definition 3).
    seed = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed, system.disturbance_set
    ).invariant_set
    x_prime = strengthened_safe_set(system, xi)
    print(f"XI area  = {xi.volume():.2f}  (safe set area {system.safe_set.volume():.2f})")
    print(f"X' area  = {x_prime.volume():.2f}")

    # 4. Algorithm 1 with the bang-bang policy: skip whenever allowed.
    monitor = SafetyMonitor(
        strengthened_set=x_prime, invariant_set=xi, safe_set=system.safe_set
    )
    runner = IntermittentController(
        system, controller, monitor, AlwaysSkipPolicy()
    )
    rng = np.random.default_rng(0)
    lo, hi = system.disturbance_set.bounding_box()
    disturbances = rng.uniform(lo, hi, size=(200, 2))
    # Algorithm 1 requires x(0) ∈ XI; start from a random state in X'.
    x0 = x_prime.sample(rng, 1)[0]
    stats = runner.run(x0, disturbances)

    # 5. Compare with running the controller every step.
    baseline = run_controller_only(system, controller, x0, disturbances)
    print("\n--- 200 steps from x0 =", np.round(x0, 3), "---")
    print(f"always-run  energy Σ|u| = {baseline.energy:8.3f}")
    print(f"intermittent energy Σ|u| = {stats.energy:8.3f}  "
          f"({100 * (1 - stats.energy / baseline.energy):.1f}% saved)")
    print(f"skipped {stats.skipped_steps}/{stats.steps} steps "
          f"({stats.forced_steps} monitor-forced)")
    print(f"all states safe: {system.safe_set.contains_batch(stats.states).all()}")
    # Computation saving is only meaningful when κ is expensive (an
    # LQR gain costs microseconds, so monitoring dominates here); see
    # examples/acc_energy_saving.py for the RMPC numbers of Sec. IV-A.
    saving = stats.computation_saving()
    if saving > 0:
        print(f"computation saving (measured): {100 * saving:.1f}%")
    else:
        print("computation saving: n/a for a trivial controller "
              "(monitoring costs more than u = Kx itself)")


if __name__ == "__main__":
    main()
