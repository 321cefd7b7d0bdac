"""Linear state feedback and LQR synthesis.

Provides the ``κ(x) = K x`` controllers used both as stand-alone safe
controllers (the simple case of Sec. III-A) and as the tube/terminal
controller inside the robust MPC.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import solve_discrete_are

from repro.controllers.base import Controller
from repro.utils.rowdot import rowdot
from repro.utils.validation import as_matrix, as_vector, check_square

__all__ = ["LinearFeedback", "lqr_gain"]


class LinearFeedback(Controller):
    """``u = K x`` with optional componentwise saturation.

    Args:
        K: Gain matrix of shape ``(m, n)``.
        saturation: Optional ``(lower, upper)`` pair of length-``m``
            vectors; outputs are clipped into the box.  Use the bounding
            box of the input polytope to model actuator limits.
    """

    def __init__(self, K, saturation: Optional[tuple] = None):
        self.K = as_matrix(K, "K")
        self.input_dim = self.K.shape[0]
        if saturation is not None:
            lower = as_vector(saturation[0], "saturation lower")
            upper = as_vector(saturation[1], "saturation upper")
            if lower.size != self.input_dim or upper.size != self.input_dim:
                raise ValueError("saturation bounds must match input dimension")
            self._lower, self._upper = lower, upper
        else:
            self._lower = self._upper = None

    def compute(self, state) -> np.ndarray:
        # ``K x`` by the row-dot kernel, so compute_batch rows reproduce
        # this bit for bit (see repro.utils.rowdot).
        x = as_vector(state, "state")
        u = rowdot(self.K, x)
        if self._lower is not None:
            u = np.clip(u, self._lower, self._upper)
        return u

    def compute_batch(self, states) -> np.ndarray:
        """Vectorised ``U = X K^T`` in one broadcast for all rows, clipped.

        Row ``i`` is bitwise-equal to ``compute(states[i])`` — the batch
        engines' determinism contract (see :meth:`compute`).
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        U = rowdot(self.K, X)
        if self._lower is not None:
            U = np.clip(U, self._lower, self._upper)
        return U


def lqr_gain(A, B, Q, R) -> np.ndarray:
    """Infinite-horizon discrete LQR gain.

    Solves the DARE and returns ``K`` such that ``u = K x`` is optimal for
    cost ``Σ xᵀQx + uᵀRu`` — note the sign convention ``u = +K x`` (the
    gain already includes the conventional minus).

    Args:
        A: State matrix.
        B: Input matrix.
        Q: State cost (PSD).
        R: Input cost (PD).

    Returns:
        Gain matrix ``K`` of shape ``(m, n)``; ``A + B K`` is Schur stable
        for stabilisable/detectable data.
    """
    A = check_square(as_matrix(A, "A"), "A")
    B = as_matrix(B, "B")
    Q = as_matrix(Q, "Q")
    R = as_matrix(R, "R")
    P = solve_discrete_are(A, B, Q, R)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return K
