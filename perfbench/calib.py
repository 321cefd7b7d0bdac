"""Host speed, measured by a fixed reference loop next to every repetition.

On a shared host the speed of a vCPU changes by tens of percent within
seconds, and by up to 2x for minutes, while other tenants load the machine;
process CPU time rises with wall time, so it does not help.  The reference
loop runs the same Python bytecode and small numpy solves every time and
touches no program code, so its time tracks only the host.  A repetition's
*normalised* time is its wall time scaled by ``NOMINAL_S`` over the loop's
time around it: the wall time the repetition would take on a host where
the loop takes ``NOMINAL_S``.  Program changes move normalised times as
they move wall times; host contention mostly cancels.

The speed of one vCPU changes within a second and does not follow the
other vCPU's, so the loop runs on the measured process itself, between
short segments of the timed section: :class:`Clock` ends a segment at
every explicit :meth:`Clock.mark` (a sweep cell, a service round's two
halves) and, where asked, on a ``SIGALRM`` timer every ``PERIOD_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: The reference loop's time the normalised timings are scaled to [s]:
#: about its uncontended time on a 2-vCPU Xeon VM.
NOMINAL_S = 0.002

#: Timings of the loop per sample; a sample is the fastest of them, so a
#: single interrupt does not count as a slow host.
REPEATS = 2

#: Timer period of a :class:`Clock` that samples on a timer [s].
PERIOD_S = 0.25

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((40, 40)) + 40.0 * np.eye(40)
_VECTOR = _RNG.standard_normal(40)


def _loop() -> float:
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(30):
        np.linalg.solve(_MATRIX, _VECTOR)
    return float(total)


def sample() -> float:
    """Seconds the reference loop takes now: the fastest of ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def normalised(wall_s: float, calib_s: float) -> float:
    """``wall_s`` scaled to a host where the loop takes ``NOMINAL_S``."""
    return wall_s * NOMINAL_S / calib_s


class Clock:
    """Times a section in segments, sampling the loop between them.

    ``before`` is a :func:`sample` taken just before :meth:`start`.  Each
    segment's wall time is normalised with the mean of the samples at its
    two ends; the samples' own time is counted in neither total.  With
    ``timer`` set, a ``SIGALRM`` every ``PERIOD_S`` ends a segment too, so
    long stretches without a :meth:`mark` (a cold cell's synthesis) are
    followed.  The handler runs between bytecodes of the main thread, never
    inside a C call, and touches no program state.
    """

    def __init__(self, before: float, timer: bool = False):
        self.calib = before
        self.wall_s = 0.0
        self.norm_s = 0.0
        self.segments = 0
        self._timer = timer
        self._start = None
        self._busy = False
        self._previous = None

    def start(self, at: float | None = None) -> None:
        """Start the first segment now, or at ``time.monotonic()`` ``at``."""
        if self._timer:
            self._previous = signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.monotonic() if at is None else at

    def mark(self) -> None:
        """End the current segment and start the next one."""
        if self._busy:
            return
        self._busy = True
        wall = time.monotonic() - self._start
        after = sample()
        self.wall_s += wall
        self.norm_s += normalised(wall, 0.5 * (self.calib + after))
        self.segments += 1
        self.calib = after
        self._start = time.monotonic()
        self._busy = False

    def stop(self) -> None:
        """End the last segment and the timer."""
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.mark()

    def _alarm(self, signum, frame) -> None:  # noqa: ARG002 - handler API
        self.mark()
