"""Runtime safety monitor (paper Fig. 2 / Algorithm 1, lines 4–9).

The monitor owns the three nested sets and classifies every measured
state:

* inside ``X'``  → the skipping decision function Ω may choose freely;
* inside ``XI − X'`` → the safe controller **must** run (``z = 1``);
* outside ``XI`` → a contract violation: Theorem 1 says this cannot
  happen when the initial state is in ``XI``; the monitor records it and
  (by default) raises, because silent safety violations would invalidate
  every downstream experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.geometry import HPolytope
from repro.observability.metrics import registry as _telemetry

__all__ = ["SafetyMonitor", "StateClass", "SafetyViolationError"]


class SafetyViolationError(RuntimeError):
    """The state left the robust invariant set — Theorem 1 contract broken."""


#: Set triples whose nesting (X' ⊆ XI ⊆ X) has already been proven; see
#: :meth:`SafetyMonitor.__post_init__`.  FIFO-bounded so a long-lived
#: process sweeping many scenarios cannot pin polytopes forever — an
#: eviction merely means the nesting is re-proven on next use.
_VALIDATED_NESTINGS: dict = {}
_VALIDATED_NESTINGS_MAX = 128


class StateClass(Enum):
    """Classification of a state against the nested safe sets."""

    STRENGTHENED = "strengthened"  # x ∈ X'
    INVARIANT_ONLY = "invariant_only"  # x ∈ XI − X'
    UNSAFE_REGION = "unsafe_region"  # x ∉ XI (contract violation)


@dataclass
class SafetyMonitor:
    """Classifies states against ``X' ⊆ XI ⊆ X`` and enforces z = 1
    outside ``X'``.

    Attributes:
        strengthened_set: ``X'`` (Definition 3).
        invariant_set: ``XI`` (Definition 1).
        safe_set: ``X`` (problem definition); only used for reporting.
        strict: When True (default), :meth:`classify` raises
            :class:`SafetyViolationError` if the state leaves ``XI``.
        tol: Membership tolerance forwarded to the polytope tests.
    """

    strengthened_set: HPolytope
    invariant_set: HPolytope
    safe_set: HPolytope
    strict: bool = True
    tol: float = 1e-7
    violations: int = field(default=0, init=False)

    def __post_init__(self):
        # Batch runners build one fresh monitor per episode over the same
        # set objects; the nesting proof is a pure function of those sets,
        # so re-proving it per episode is pure LP waste.  The cache keeps
        # strong references, which also pins the ids it is keyed on.
        key = (id(self.strengthened_set), id(self.invariant_set), id(self.safe_set))
        if key in _VALIDATED_NESTINGS:
            _telemetry().inc("monitor_nesting_proofs_total", result="cached")
            return
        _telemetry().inc("monitor_nesting_proofs_total", result="proved")
        if not self.invariant_set.contains_polytope(self.strengthened_set):
            raise ValueError("X' must be a subset of XI (Definition 3)")
        if not self.safe_set.contains_polytope(self.invariant_set, tol=1e-6):
            raise ValueError("XI must be a subset of the safe set X")
        while len(_VALIDATED_NESTINGS) >= _VALIDATED_NESTINGS_MAX:
            _VALIDATED_NESTINGS.pop(next(iter(_VALIDATED_NESTINGS)))
        _VALIDATED_NESTINGS[key] = (
            self.strengthened_set,
            self.invariant_set,
            self.safe_set,
        )

    def classify(self, state) -> StateClass:
        """Classify ``state``; raises on contract violation when strict.

        Scalar fast path: short-circuits after the ``X'`` test in the
        common case.  This sits inside Algorithm 1's timed monitor
        section, so its cost is a *measured* quantity — keep it lean and
        use :meth:`classify_batch` for whole-trajectory scans instead.
        """
        if self.strengthened_set.contains(state, self.tol):
            return StateClass.STRENGTHENED
        if self.invariant_set.contains(state, self.tol):
            return StateClass.INVARIANT_ONLY
        self.violations += 1
        if self.strict:
            raise SafetyViolationError(
                f"state {np.asarray(state)} left the robust invariant set"
            )
        return StateClass.UNSAFE_REGION

    def membership_batch(self, states) -> tuple:
        """Algorithm 1's ``X'``-then-``XI`` test for every row of a ``(T, n)``
        array.

        One :meth:`~repro.geometry.HPolytope.contains_batch` over ``X'``
        for every row, then one over ``XI`` for only the rows outside
        ``X'`` — the order of :meth:`classify`'s short-circuit, so each
        row gets the booleans the scalar path would give it.  The lockstep
        engine classifies every step through this.

        Returns:
            ``(in_strengthened, unsafe)``: boolean ``(T,)`` arrays, ``x ∈
            X'`` and ``x ∉ X' ∪ XI`` (a contract violation).
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        in_strengthened = self.strengthened_set.contains_batch(X, self.tol)
        unsafe = ~in_strengthened
        outside = np.flatnonzero(unsafe)
        if len(outside):
            unsafe[outside] = ~self.invariant_set.contains_batch(
                X[outside], self.tol
            )
        return in_strengthened, unsafe

    def classify_batch(self, states) -> list:
        """Classify every row of a ``(T, n)`` state array at once.

        Runs the membership tests of :meth:`membership_batch` instead of
        ``T`` scalar checks, then applies exactly the sequential semantics
        of :meth:`classify`:

        * strict monitors raise at the *first* state outside ``XI``, having
          counted that one violation (states after it are never reached in
          the sequential contract, so they are not counted);
        * non-strict monitors count every violating state and report
          :data:`StateClass.UNSAFE_REGION` for each.

        Returns:
            List of ``T`` :class:`StateClass` values, aligned with rows.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        in_strengthened, unsafe = self.membership_batch(X)
        if np.any(unsafe):
            if self.strict:
                first = int(np.argmax(unsafe))
                self.violations += 1
                raise SafetyViolationError(
                    f"state {X[first]} left the robust invariant set"
                )
            self.violations += int(np.sum(unsafe))
        return [
            StateClass.STRENGTHENED if strengthened
            else StateClass.UNSAFE_REGION if violated
            else StateClass.INVARIANT_ONLY
            for strengthened, violated in zip(in_strengthened, unsafe)
        ]

    def may_skip(self, state) -> bool:
        """Algorithm 1 line 5: True iff Ω is allowed to decide at ``state``."""
        return self.classify(state) is StateClass.STRENGTHENED

    def admissible_initial(self, state) -> bool:
        """Algorithm 1 line 2 check: x(0) ∈ XI."""
        return self.invariant_set.contains(state, self.tol)
