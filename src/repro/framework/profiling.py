"""Per-stage wall-clock profiling for the lockstep engines.

The lockstep step loop is a pipeline of a few numpy passes — classify,
decide, control, step — and every claimed optimisation of it should be
*measured*, not asserted.  :class:`StageProfiler` is the measurement
instrument: an explicit, allocation-free accumulator of per-stage
seconds and call counts that the lockstep entry points thread through
their hot loops.

Design constraints, in order:

* **Near-zero overhead when absent.**  The engines take ``profiler=None``
  by default and guard every instrumentation site with a single
  ``is not None`` test — no context managers, no decorators, no dict
  lookups on the disabled path.  A constructed-but-disabled profiler
  (``StageProfiler(enabled=False)``) is normalised to ``None`` at the
  engine boundary, so passing one costs the same as passing nothing.
* **Chainable on the enabled path.**  Consecutive stages share clock
  reads: :meth:`StageProfiler.add` returns the ``perf_counter`` value it
  just took, which is the next stage's start tick — one clock read per
  stage boundary instead of two.
* **Free-form stages.**  Stage names are plain strings; the lockstep
  loop reports ``classify`` / ``decide`` / ``control`` / ``step``
  (context materialisation is charged to ``decide``).

Typical use::

    profiler = StageProfiler()
    run_lockstep(..., profiler=profiler)
    report = profiler.report()   # stage -> {seconds, calls, share}

``benchmarks/bench_lockstep.py --profile`` wires exactly this into the
committed ``BENCH_lockstep.json`` perf artifact.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

__all__ = ["StageProfiler", "active_profiler"]


class StageProfiler:
    """Accumulates wall-clock seconds and call counts per named stage.

    Attributes:
        enabled: When False the engines treat the profiler exactly like
            ``None`` (no instrumentation at all, not even clock reads).
    """

    __slots__ = ("enabled", "_seconds", "_calls")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Hot-path API (engine side)
    # ------------------------------------------------------------------
    @staticmethod
    def tick() -> float:
        """A start timestamp for the next :meth:`add` call."""
        return perf_counter()

    def add(self, stage: str, tick: float) -> float:
        """Charge ``now − tick`` seconds to ``stage``; return ``now``.

        Returning the fresh timestamp lets back-to-back stages chain
        (``tick = profiler.add("classify", tick)``) with one clock read
        per boundary.
        """
        now = perf_counter()
        self._seconds[stage] = self._seconds.get(stage, 0.0) + (now - tick)
        self._calls[stage] = self._calls.get(stage, 0) + 1
        return now

    def count(self, stage: str, calls: int = 1) -> None:
        """Record ``calls`` occurrences of ``stage`` without timing them
        (used for per-run counters like episodes and steps)."""
        self._calls[stage] = self._calls.get(stage, 0) + calls
        self._seconds.setdefault(stage, 0.0)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def stages(self) -> tuple:
        """Stage names in first-seen order."""
        return tuple(self._seconds)

    def seconds(self, stage: str) -> float:
        """Total seconds charged to ``stage`` (0.0 if never seen)."""
        return self._seconds.get(stage, 0.0)

    def calls(self, stage: str) -> int:
        """Times ``stage`` was charged or counted (0 if never seen)."""
        return self._calls.get(stage, 0)

    def total_seconds(self) -> float:
        """Sum over all stages."""
        return sum(self._seconds.values())

    def report(self) -> dict:
        """``{stage: {"seconds", "calls", "share"}}`` in first-seen order.

        ``share`` is the stage's fraction of :meth:`total_seconds`
        (0.0 for an empty profiler), which is what the benchmark artifact
        records — absolute seconds drift with the machine, the breakdown
        shape is what successive commits compare.
        """
        total = self.total_seconds()
        return {
            stage: {
                "seconds": self._seconds[stage],
                "calls": self._calls.get(stage, 0),
                "share": (self._seconds[stage] / total) if total > 0 else 0.0,
            }
            for stage in self._seconds
        }

    def merge(self, other: "StageProfiler") -> "StageProfiler":
        """Fold another profiler's accumulators into this one."""
        for stage in other._seconds:
            self._seconds[stage] = (
                self._seconds.get(stage, 0.0) + other._seconds[stage]
            )
            self._calls[stage] = self._calls.get(stage, 0) + other._calls.get(
                stage, 0
            )
        return self

    def reset(self) -> None:
        """Drop every accumulator (the ``enabled`` flag is kept)."""
        self._seconds.clear()
        self._calls.clear()

    def __repr__(self) -> str:
        body = ", ".join(
            f"{stage}={self._seconds[stage]:.4f}s/{self._calls.get(stage, 0)}"
            for stage in self._seconds
        )
        return f"StageProfiler({'on' if self.enabled else 'off'}; {body})"


def active_profiler(profiler: Optional[StageProfiler]) -> Optional[StageProfiler]:
    """Normalise the engines' ``profiler`` argument for the hot loop:
    a disabled profiler becomes ``None`` so every instrumentation site
    stays a single ``is not None`` test."""
    if profiler is not None and profiler.enabled:
        return profiler
    return None
