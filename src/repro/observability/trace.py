"""Nested run-trace spans for the telemetry subsystem.

A :class:`RunTrace` records a tree of named, timed spans — the
observability layer's answer to "where did this sweep spend its time,
structurally?".  The experiment runner opens a ``sweep`` span, each grid
cell runs under a ``cell`` span, :func:`~repro.framework.evaluation.
paired_evaluation` opens an ``episode-batch`` span per approach, and the
lockstep hot loop (:mod:`repro.framework.lockstep`) reports its
per-stage wall clock (classify / decide / control / step) as leaf
``stage:*`` spans under whichever span is open.

Spans are collected **only when telemetry is enabled** — the engines'
deterministic record fields never depend on them, and
:meth:`~repro.observability.metrics.MetricsRegistry.deterministic_snapshot`
excludes them entirely (wall-clock is machine noise, not a determinism
surface).

Cross-process composition: forked sweep workers serialise their spans
via :meth:`RunTrace.snapshot` (plain JSON-safe dicts), ship them through
``fork_map``'s result pipe, and the parent re-attaches them under its
currently open span with :meth:`RunTrace.attach` — so a sharded sweep's
trace has the same sweep → cell → episode-batch shape as an in-process
one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional

__all__ = ["Span", "RunTrace"]


class Span:
    """One node of the trace tree.

    Attributes:
        name: Free-form span name (``sweep``, ``cell``, ...).
        attributes: JSON-safe key/value annotations.
        start: Wall-clock epoch seconds when the span opened (None for
            synthetic spans added after the fact, e.g. the lockstep
            loop's ``stage:*`` leaves).
        duration: Seconds the span was open (None while still open).
        children: Child :class:`Span` objects or already-serialised span
            dicts merged from forked workers.
    """

    __slots__ = ("name", "attributes", "start", "duration", "children")

    def __init__(self, name: str, attributes=None, start: Optional[float] = None):
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.start = start
        self.duration: Optional[float] = None
        self.children: list = []

    def to_dict(self) -> dict:
        """JSON-safe representation (children recursively serialised)."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "start": self.start,
            "duration": self.duration,
            "children": [
                child.to_dict() if isinstance(child, Span) else child
                for child in self.children
            ],
        }

    def __repr__(self) -> str:
        took = "open" if self.duration is None else f"{self.duration:.4f}s"
        return f"Span({self.name!r}, {took}, {len(self.children)} children)"


class RunTrace:
    """A stack-based collector of nested :class:`Span` trees."""

    __slots__ = ("_roots", "_stack")

    def __init__(self):
        self._roots: list = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a span; closing it (context exit) records the duration
        and files it under the enclosing span (or as a new root)."""
        node = Span(name, attributes, start=time.time())
        tick = time.perf_counter()
        self._stack.append(node)
        try:
            yield node
        finally:
            node.duration = time.perf_counter() - tick
            self._stack.pop()
            self._file(node)

    def add_span(self, name: str, duration: Optional[float] = None, **attributes):
        """Record an already-measured span (no wall-clock start) under
        the current span — how the lockstep loop's stage times become
        ``stage:*`` leaves."""
        node = Span(name, attributes)
        node.duration = duration
        self._file(node)
        return node

    def attach(self, span_dicts) -> None:
        """Graft serialised spans (from a forked worker's snapshot)
        under the currently open span, preserving their subtree."""
        if not span_dicts:
            return
        target = self._stack[-1].children if self._stack else self._roots
        target.extend(span_dicts)

    def _file(self, node: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self._roots.append(node)

    def snapshot(self) -> list:
        """Completed root spans as JSON-safe dicts (open spans are not
        included — take snapshots after the tree of interest closed)."""
        return [
            root.to_dict() if isinstance(root, Span) else root
            for root in self._roots
        ]

    def reset(self) -> None:
        """Drop all recorded spans (open spans keep collecting)."""
        self._roots.clear()

    def __len__(self) -> int:
        return len(self._roots)

    def __repr__(self) -> str:
        return f"RunTrace({len(self._roots)} roots, depth {len(self._stack)})"
