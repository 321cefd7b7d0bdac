"""Longitudinal two-vehicle simulator (the SUMO substitute's plant layer).

Integrates the *raw-coordinate* ACC scenario of the paper's Fig. 3:

    s(t+1) = s(t) − (v(t) − v_f(t)) δ
    v(t+1) = v(t) − (k v(t) − u(t)) δ

given a front-vehicle velocity trace and an arbitrary ego control
callback.  This duplicates — deliberately — the shifted-coordinate
simulation done by :class:`repro.framework.IntermittentController`; the
two integrations agreeing exactly is the substitute's fidelity argument,
checked by ``tests/test_traffic.py::TestLongitudinalSimulator::
test_matches_shifted_framework_simulation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.acc.model import ACCParameters
from repro.traffic.fuel import HBEFA3Fuel

__all__ = ["LongitudinalSimulator", "TrafficTrace"]


@dataclass
class TrafficTrace:
    """Raw-coordinate trajectory of one simulated run.

    Attributes:
        distances: Relative distance ``s`` per step, length ``T+1``.
        velocities: Ego velocity ``v`` per step, length ``T+1``.
        front_velocities: Front velocity trace, length ``T``.
        commands: Applied raw commands ``u``, length ``T``.
    """

    distances: np.ndarray
    velocities: np.ndarray
    front_velocities: np.ndarray
    commands: np.ndarray

    @property
    def steps(self) -> int:
        return int(self.commands.size)

    def fuel(self, meter: HBEFA3Fuel, dt: float) -> float:
        """Trip fuel using velocities *during* each step."""
        return meter.trip_fuel(self.velocities[:-1], self.commands, dt)

    def distance_bounds_respected(self, s_range: tuple) -> bool:
        """True iff the safe-distance constraint held throughout."""
        return bool(
            np.all(self.distances >= s_range[0] - 1e-6)
            and np.all(self.distances <= s_range[1] + 1e-6)
        )


class LongitudinalSimulator:
    """Raw ACC plant integrator.

    Args:
        params: ACC constants (δ, drag, limits).
        clip_command: Clip ego commands into ``u_range`` (actuator
            saturation), default True.
    """

    def __init__(self, params: ACCParameters = ACCParameters(), clip_command: bool = True):
        self.params = params
        self.clip_command = bool(clip_command)

    def run(
        self,
        s0: float,
        v0: float,
        front_velocities,
        controller: Callable[[int, float, float], float],
    ) -> TrafficTrace:
        """Simulate ``len(front_velocities)`` steps.

        Args:
            s0: Initial relative distance.
            v0: Initial ego velocity.
            front_velocities: Trace of ``v_f``.
            controller: Callback ``(t, s, v) -> u`` in raw coordinates.

        Returns:
            The full :class:`TrafficTrace`.
        """
        p = self.params
        vf = np.asarray(front_velocities, dtype=float).reshape(-1)
        horizon = vf.size
        s = np.empty(horizon + 1)
        v = np.empty(horizon + 1)
        u = np.empty(horizon)
        s[0], v[0] = float(s0), float(v0)
        for t in range(horizon):
            command = float(controller(t, s[t], v[t]))
            if self.clip_command:
                command = float(np.clip(command, p.u_range[0], p.u_range[1]))
            u[t] = command
            s[t + 1] = s[t] - (v[t] - vf[t]) * p.delta
            v[t + 1] = v[t] - (p.drag * v[t] - command) * p.delta
        return TrafficTrace(
            distances=s, velocities=v, front_velocities=vf, commands=u
        )
