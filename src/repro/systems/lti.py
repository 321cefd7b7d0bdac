"""Discrete linear time-invariant systems with bounded disturbances.

Implements the plant of the paper's Eq. (1):

    x(t+1) = A x(t) + B u(t) + w(t),   x ∈ X, u ∈ U, w ∈ W,

where ``X``, ``U`` and ``W`` are polytopes containing the origin.  The class
bundles the matrices with the constraint sets because every downstream
algorithm (invariance, reachability, MPC tightening) needs all of them
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.geometry import HPolytope
from repro.utils.rowdot import rowdot
from repro.utils.validation import as_matrix, as_vector, check_square

__all__ = ["DiscreteLTISystem", "SimulationResult"]


@dataclass
class SimulationResult:
    """Trajectory produced by :meth:`DiscreteLTISystem.simulate`.

    Attributes:
        states: Array ``(T+1, n)`` of visited states (``states[0]`` is x0).
        inputs: Array ``(T, m)`` of applied inputs.
        disturbances: Array ``(T, n)`` of realised disturbances.
        safe: Boolean array ``(T+1,)``: state inside the safe set ``X``.
    """

    states: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    safe: np.ndarray

    @property
    def energy(self) -> float:
        """Total actuation energy ``Σ_t ||u(t)||_1`` (paper's Problem 1)."""
        return float(np.abs(self.inputs).sum())

    @property
    def always_safe(self) -> bool:
        """True iff every visited state is inside the safe set."""
        return bool(np.all(self.safe))

    def __len__(self) -> int:
        return self.inputs.shape[0]


class DiscreteLTISystem:
    """The constrained discrete LTI plant of the paper (Eq. 1–2).

    Args:
        A: State matrix ``(n, n)``.
        B: Input matrix ``(n, m)``.
        safe_set: State constraint polytope ``X`` (must contain 0).
        input_set: Input constraint polytope ``U`` (must contain 0).
        disturbance_set: Disturbance polytope ``W`` (must contain 0).
            Disturbances enter additively in state space, so ``W`` lives in
            ``R^n`` (a disturbance affecting only some states is a flat
            polytope, e.g. a box with zero width on the unaffected axes).

    Raises:
        ValueError: On dimension mismatches or when a constraint set does
            not contain the origin (the paper's standing assumption).
    """

    def __init__(
        self,
        A,
        B,
        safe_set: HPolytope,
        input_set: HPolytope,
        disturbance_set: HPolytope,
    ):
        self.A = check_square(as_matrix(A, "A"), "A")
        self.B = as_matrix(B, "B")
        if self.B.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"B has {self.B.shape[0]} rows, A is {self.A.shape[0]}x{self.A.shape[0]}"
            )
        if safe_set.dim != self.n:
            raise ValueError("safe_set dimension must equal state dimension")
        if input_set.dim != self.m:
            raise ValueError("input_set dimension must equal input dimension")
        if disturbance_set.dim != self.n:
            raise ValueError(
                "disturbance_set must live in state space R^n "
                "(lift input-channel disturbances before constructing)"
            )
        for poly, name in (
            (safe_set, "safe_set"),
            (input_set, "input_set"),
            (disturbance_set, "disturbance_set"),
        ):
            if not poly.contains(np.zeros(poly.dim), tol=1e-6):
                raise ValueError(f"{name} must contain the origin (paper Eq. 2)")
        self.safe_set = safe_set
        self.input_set = input_set
        self.disturbance_set = disturbance_set

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Input dimension."""
        return self.B.shape[1]

    def step(self, state, control, disturbance=None) -> np.ndarray:
        """One step of the dynamics ``A x + B u + w``.

        ``disturbance`` defaults to zero (the nominal system used by the
        tube-MPC predictions).

        The matvecs are evaluated by :func:`~repro.utils.rowdot.rowdot`,
        so :meth:`step_batch` reproduces this result bit for bit.
        """
        x = as_vector(state, "state")
        u = as_vector(control, "control")
        nxt = rowdot(self.A, x) + rowdot(self.B, u)
        if disturbance is not None:
            nxt = nxt + as_vector(disturbance, "disturbance")
        return nxt

    def step_batch(self, states, controls, disturbances=None) -> np.ndarray:
        """One dynamics step for ``N`` trajectories at once.

        The lockstep engine's replacement for ``N`` scalar :meth:`step`
        calls.  Row ``i`` is bitwise-equal to ``step(states[i], …)``: both
        paths evaluate the matvecs by :func:`~repro.utils.rowdot.rowdot`.

        Args:
            states: ``(N, n)`` state matrix.
            controls: ``(N, m)`` input matrix.
            disturbances: Optional ``(N, n)`` disturbance matrix (defaults
                to zero, matching :meth:`step`).

        Returns:
            ``(N, n)`` array; row ``i`` equals ``step(states[i],
            controls[i], disturbances[i])``.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        U = np.atleast_2d(np.asarray(controls, dtype=float))
        if X.shape[1] != self.n:
            raise ValueError(f"states must be (N, {self.n}), got {X.shape}")
        if U.shape != (X.shape[0], self.m):
            raise ValueError(
                f"controls must be ({X.shape[0]}, {self.m}), got {U.shape}"
            )
        nxt = rowdot(self.A, X) + rowdot(self.B, U)
        if disturbances is not None:
            W = np.atleast_2d(np.asarray(disturbances, dtype=float))
            if W.shape != X.shape:
                raise ValueError(
                    f"disturbances must be {X.shape}, got {W.shape}"
                )
            nxt = nxt + W
        return nxt

    def closed_loop_matrix(self, K) -> np.ndarray:
        """``A + B K`` for a feedback gain ``K`` of shape ``(m, n)``."""
        K = as_matrix(K, "K")
        if K.shape != (self.m, self.n):
            raise ValueError(f"K must be ({self.m}, {self.n}), got {K.shape}")
        return self.A + self.B @ K

    def simulate(
        self,
        x0,
        policy: Callable[[int, np.ndarray], np.ndarray],
        disturbances,
        clip_input: bool = True,
    ) -> SimulationResult:
        """Roll the closed loop forward under a state-feedback policy.

        Args:
            x0: Initial state.
            policy: Callable ``(t, x) -> u``.
            disturbances: Either an array ``(T, n)`` of disturbance
                realisations or a callable ``(t, x) -> w``.
            clip_input: If True, project the policy output onto the box
                hull of ``U`` componentwise (models actuator saturation).

        Returns:
            A :class:`SimulationResult` covering all ``T`` steps.
        """
        x = as_vector(x0, "x0")
        if callable(disturbances):
            w_fn = disturbances
            horizon = None
            raise ValueError(
                "pass a pre-sampled (T, n) disturbance array; callables "
                "make results non-reproducible across policies"
            )
        W = np.atleast_2d(np.asarray(disturbances, dtype=float))
        horizon = W.shape[0]
        lo, hi = (None, None)
        if clip_input:
            lo, hi = self.input_set.bounding_box()
        states = np.empty((horizon + 1, self.n))
        inputs = np.empty((horizon, self.m))
        states[0] = x
        for t in range(horizon):
            u = as_vector(policy(t, states[t]), "policy output")
            if clip_input:
                u = np.clip(u, lo, hi)
            inputs[t] = u
            states[t + 1] = self.step(states[t], u, W[t])
        safe = self.safe_set.contains_batch(states)
        return SimulationResult(states=states, inputs=inputs, disturbances=W, safe=safe)

    def __repr__(self) -> str:
        return f"DiscreteLTISystem(n={self.n}, m={self.m})"
