"""Disturbance (perturbation) processes.

The paper treats the disturbance ``w(t)`` as the carrier of "operation
context and environment" — in the ACC case study it is the front vehicle's
velocity deviation.  :class:`SinusoidalDisturbance` generates the paper's
Eq. (8) pattern, ``a_f sin(π/2 δ t) + noise``, inside a symmetric bound.
It is deterministic given its ``numpy.random.Generator`` and exposes
``sample(horizon)`` returning a ``(horizon, 1)`` array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SinusoidalDisturbance"]


class SinusoidalDisturbance:
    """The paper's Eq. (8) pattern: sinusoid plus bounded uniform noise.

    ``w(t) = amplitude * sin(π/2 · dt · t + phase) + noise``, clipped to
    the declared bounds.  With ``amplitude=9``, ``noise_bound=1`` and
    bounds ``±10`` this reproduces Ex.10 / the Sec. IV-A pattern (after
    centring; the traffic layer adds the mean velocity back).

    Args:
        amplitude: ``a_f`` in Eq. (8).
        dt: Sampling period ``δ`` (the paper uses 0.1).
        noise_bound: Half-width of the uniform noise term.
        bound: Hard bound ``|w| <= bound`` (defaults to amplitude+noise).
        rng: Random generator (required unless noise_bound == 0).
        phase: Phase offset in radians.

    Attributes:
        lower: Lower bound ``[-bound]`` of the process.
        upper: Upper bound ``[bound]``.
    """

    def __init__(
        self,
        amplitude: float,
        dt: float = 0.1,
        noise_bound: float = 0.0,
        bound: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        phase: float = 0.0,
    ):
        if bound is None:
            bound = abs(amplitude) + abs(noise_bound)
        if bound < 0:
            raise ValueError("lower bound exceeds upper bound")
        self.lower = np.array([-float(bound)])
        self.upper = np.array([float(bound)])
        if noise_bound > 0 and rng is None:
            raise ValueError("rng is required when noise_bound > 0")
        self.amplitude = float(amplitude)
        self.dt = float(dt)
        self.noise_bound = float(noise_bound)
        self.rng = rng
        self.phase = float(phase)
        self._t = 0

    def sample(self, horizon: int) -> np.ndarray:
        t = np.arange(self._t, self._t + horizon)
        self._t += horizon
        base = self.amplitude * np.sin(np.pi / 2.0 * self.dt * t + self.phase)
        if self.noise_bound > 0:
            base = base + self.rng.uniform(
                -self.noise_bound, self.noise_bound, size=horizon
            )
        return np.clip(base[:, None], self.lower, self.upper)

    @property
    def dim(self) -> int:
        """Dimension of the disturbance vector."""
        return self.lower.size

    def reset(self, t: int = 0) -> None:
        """Rewind the internal clock (the sinusoid is time-indexed)."""
        self._t = int(t)
