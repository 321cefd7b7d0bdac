"""Controller interface.

A controller is a state-feedback law ``u = κ(x)``.  The framework layer
times each evaluation to reproduce the paper's computation-saving numbers,
so controllers should do all their work inside :meth:`Controller.compute`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import as_vector

__all__ = ["Controller", "ConstantController"]


class Controller(ABC):
    """Abstract state-feedback controller ``u = κ(x)``."""

    #: Dimension of the produced input vector; subclasses must set it.
    input_dim: int

    #: Determinism tier of :meth:`compute_batch` (the two-tier contract of
    #: :mod:`repro.framework.lockstep`).  True — the default, and what
    #: every closed-form controller satisfies — promises row ``i`` equals
    #: ``compute(states[i])`` bit for bit.  Controllers whose batch path
    #: is a stacked LP solve (:class:`~repro.controllers.rmpc.RobustMPC`)
    #: set it False and promise *plan equivalence* instead: identical
    #: optimal cost, feasible inputs, but possibly a different optimal
    #: vertex when the LP is degenerate.
    bitwise_batch: bool = True

    @abstractmethod
    def compute(self, state) -> np.ndarray:
        """Compute the control input for ``state``.

        Returns:
            Input vector of shape ``(input_dim,)``.
        """

    def compute_rowwise(self, states) -> np.ndarray:
        """Row-by-row :meth:`compute` over an ``(N, n)`` state matrix.

        The bitwise reference path: row ``i`` *is* ``compute(states[i])``.
        The lockstep engine routes non-bitwise controllers through this
        when ``exact_solves=True`` is requested for record-for-record
        audits.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        if X.shape[0] == 0:
            return np.zeros((0, self.input_dim))
        return np.stack(
            [as_vector(self.compute(x), "controller output") for x in X]
        )

    def compute_batch(self, states) -> np.ndarray:
        """Compute inputs for every row of an ``(N, n)`` state matrix.

        The generic fallback evaluates :meth:`compute` row by row, so any
        controller works inside the lockstep engine; controllers with a
        closed form (:class:`~repro.controllers.linear.LinearFeedback`,
        :class:`ConstantController`) override it with a single vectorised
        expression.  Unless a subclass declares ``bitwise_batch = False``,
        row ``i`` of the result must equal ``compute(states[i])``
        exactly — the batch engines' bitwise determinism tier is built on
        that contract (non-bitwise overrides owe plan equivalence; see
        :attr:`bitwise_batch`).

        Returns:
            Array of shape ``(N, input_dim)``.
        """
        return self.compute_rowwise(states)

    def __call__(self, state) -> np.ndarray:
        return self.compute(state)

    def reset(self) -> None:
        """Clear internal state (warm starts, caches).  Default: no-op."""


class ConstantController(Controller):
    """Always returns the same input (e.g. the zero/skip input)."""

    def __init__(self, value):
        self.value = as_vector(value, "value")
        self.input_dim = self.value.size

    def compute(self, state) -> np.ndarray:
        return self.value.copy()

    def compute_batch(self, states) -> np.ndarray:
        X = np.atleast_2d(np.asarray(states, dtype=float))
        return np.tile(self.value, (X.shape[0], 1))
