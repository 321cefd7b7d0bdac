"""Labelled metrics registry — the repo's single telemetry sink.

Why one registry
----------------
Every operational counter — RMPC solves, persistent-model builds and
warm solves, scenario-builder cache probes, lockstep stage timings —
lives in :class:`MetricsRegistry`, with one ``snapshot()`` /
``reset()`` surface, plus run traces (:mod:`repro.observability.trace`)
and renderings (JSON snapshot, Prometheus text, aligned table).

Cost model
----------
* **Structural counters are always on.**  Sites that fire at most once
  per solve / cache probe / model build / episode batch record
  unconditionally — a dict update is noise next to an LP solve.
* **Hot-path instrumentation is gated.**  Anything that would fire per
  simulation step (the lockstep loop's stage timing, spans) is guarded
  by :func:`active`, which returns the ambient registry iff telemetry is
  enabled and ``None`` otherwise — a single ``is not None`` test on the
  disabled path.  The lockstep loop always reads its stage clock (the
  same reads give the per-row timing arrays), sums the stage seconds in
  locals, and reports them at exit only when :func:`active` is not
  ``None``.

Hard contract (gated by ``tests/test_telemetry.py``): telemetry never
touches deterministic record fields — every engine record is
bitwise-identical with telemetry on or off.

Determinism of snapshots
------------------------
:meth:`MetricsRegistry.deterministic_snapshot` drops spans and every
metric whose name carries a wall-clock marker (``_seconds`` / ``_ms``),
leaving pure event counts — the view under which a sharded ``jobs=2``
sweep must equal ``jobs=1`` exactly (same exclusion idea as
``TIMING_COLUMNS`` in :mod:`repro.experiments.result`).

Fork composition
----------------
Forked workers run under :func:`scoped_registry` (a fresh registry
swapped into the module global), return ``snapshot()`` dicts through
``fork_map``'s result pipe, and the parent folds them back with
:meth:`MetricsRegistry.merge_snapshot` in deterministic grid order — so
``jobs=k`` telemetry equals the sum of its workers.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Dict, Iterable, Optional, Tuple

from .trace import RunTrace

__all__ = [
    "MetricsRegistry",
    "registry",
    "active",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
    "scoped_registry",
    "deterministic_view",
    "FAULT_RECOVERY_METRICS",
    "PERSISTENCE_METRICS",
    "render_prometheus",
    "render_table",
]

#: Metric-name markers that flag wall-clock content; such metrics are
#: excluded from :meth:`MetricsRegistry.deterministic_snapshot`.
TIMING_MARKERS = ("_seconds", "_ms")

#: Fault-recovery bookkeeping counters.  They describe *how* a run got
#: to its answer (a worker died and was respawned, a cell was retried),
#: not the answer itself — a faulted-then-recovered sweep must still
#: equal an unfaulted reference in the deterministic view, so these are
#: excluded alongside the wall-clock metrics.
FAULT_RECOVERY_METRICS = frozenset(
    {"worker_respawns_total", "sweep_cell_failures_total",
     "cell_retries_total"}
)

#: Persistence bookkeeping counters (result store / checkpoint traffic,
#: restored-vs-solved splits, service job states).  Like the
#: fault-recovery counters they describe how a result was *obtained* —
#: served from the store vs re-solved — not the result itself, so a
#: warm-store sweep must still equal an uncached one in the
#: deterministic view.
PERSISTENCE_METRICS = frozenset(
    {"result_store_events_total", "checkpoint_files_skipped_total",
     "sweep_cells_restored_total", "sweep_cells_solved_total",
     "service_jobs_total"}
)

#: Default histogram bucket upper bounds (powers of two — sized for
#: batch-size style observations like stacked-solve k).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                   512.0, 1024.0, 2048.0, 4096.0)

_LabelKey = Tuple[Tuple[str, str], ...]
_MetricKey = Tuple[str, _LabelKey]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def deterministic_view(snapshot: dict) -> dict:
    """A saved snapshot minus spans and wall-clock metrics — the view
    under which ``jobs=k`` telemetry must equal ``jobs=1`` exactly
    (works on any :meth:`MetricsRegistry.snapshot` dict, e.g. one loaded
    back from a ``--telemetry-out`` file)."""
    return {
        family: {
            name: entries
            for name, entries in snapshot.get(family, {}).items()
            if not any(marker in name for marker in TIMING_MARKERS)
            and name not in FAULT_RECOVERY_METRICS
            and name not in PERSISTENCE_METRICS
        }
        for family in ("counters", "gauges", "histograms")
    }


def _le_str(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


class _Histogram:
    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        # one slot per finite bound plus the implicit +Inf overflow slot
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.bucket_counts[slot] += 1
        self.count += 1
        self.sum += value

    def buckets(self) -> Dict[str, int]:
        """Cumulative (Prometheus-style) ``le`` → count mapping."""
        out: Dict[str, int] = {}
        running = 0
        for bound, slot in zip(self.bounds, self.bucket_counts):
            running += slot
            out[_le_str(bound)] = running
        out["+Inf"] = self.count
        return out


class MetricsRegistry:
    """Counters, gauges, and histograms with string labels.

    Attributes:
        enabled: Gates the *hot-path* tier only (spans and per-step
            instrumentation via :func:`active`).  Structural counters
            record regardless — see the module docstring's cost model.
        trace: The registry's :class:`~repro.observability.trace.RunTrace`.
    """

    __slots__ = ("enabled", "trace", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self.trace = RunTrace()
        self._counters: Dict[_MetricKey, float] = {}
        self._gauges: Dict[_MetricKey, float] = {}
        self._histograms: Dict[_MetricKey, _Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value=1, **labels) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value, **labels) -> None:
        """Set the gauge ``name{labels}`` (last write wins)."""
        self._gauges[(name, _label_key(labels))] = value

    def observe(self, name: str, value, buckets: Optional[Iterable[float]] = None,
                **labels) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
            hist = self._histograms[key] = _Histogram(bounds)
        hist.observe(value)

    def span(self, name: str, **attributes):
        """Open a trace span — a no-op context manager when disabled."""
        if not self.enabled:
            return nullcontext()
        return self.trace.span(name, **attributes)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels):
        """The counter ``name{labels}`` under exactly these labels."""
        return self._counters.get((name, _label_key(labels)), 0)

    def total(self, name: str, **labels):
        """Sum of every ``name`` counter whose labels include the given
        subset (``total("x")`` sums across all label combinations)."""
        want = _label_key(labels)
        total = 0
        for (metric, key), value in self._counters.items():
            if metric == name and all(pair in key for pair in want):
                total += value
        return total

    def snapshot(self, spans: bool = True) -> dict:
        """JSON-safe state dump, deterministically ordered.

        Returns ``{"counters", "gauges", "histograms", "spans"}`` where
        each metric family maps name → list of ``{"labels", ...}``
        entries sorted by label key.
        """
        counters: Dict[str, list] = {}
        for (name, key) in sorted(self._counters):
            counters.setdefault(name, []).append(
                {"labels": dict(key), "value": self._counters[(name, key)]}
            )
        gauges: Dict[str, list] = {}
        for (name, key) in sorted(self._gauges):
            gauges.setdefault(name, []).append(
                {"labels": dict(key), "value": self._gauges[(name, key)]}
            )
        histograms: Dict[str, list] = {}
        for (name, key) in sorted(self._histograms):
            hist = self._histograms[(name, key)]
            histograms.setdefault(name, []).append(
                {
                    "labels": dict(key),
                    "count": hist.count,
                    "sum": hist.sum,
                    "buckets": hist.buckets(),
                }
            )
        snap = {"counters": counters, "gauges": gauges, "histograms": histograms}
        if spans:
            snap["spans"] = self.trace.snapshot()
        return snap

    def deterministic_snapshot(self) -> dict:
        """The snapshot minus spans and wall-clock metrics — the view
        under which ``jobs=k`` must equal ``jobs=1`` exactly."""
        return deterministic_view(self.snapshot(spans=False))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every metric and the trace."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.trace.reset()

    def merge_snapshot(self, snap: Optional[dict]) -> None:
        """Fold a :meth:`snapshot` dict (typically from a forked worker)
        into this registry: counters and histograms add, gauges take the
        incoming value, spans graft under the currently open span."""
        if not snap:
            return
        for name, entries in snap.get("counters", {}).items():
            for entry in entries:
                self.inc(name, entry["value"], **entry["labels"])
        for name, entries in snap.get("gauges", {}).items():
            for entry in entries:
                self.set_gauge(name, entry["value"], **entry["labels"])
        for name, entries in snap.get("histograms", {}).items():
            for entry in entries:
                key = (name, _label_key(entry["labels"]))
                hist = self._histograms.get(key)
                bounds = tuple(
                    float("inf") if le == "+Inf" else float(le)
                    for le in entry["buckets"]
                )[:-1]  # drop the +Inf slot; it is implicit
                if hist is None:
                    hist = self._histograms[key] = _Histogram(bounds)
                # de-cumulate the Prometheus-style buckets back to slots
                previous = 0
                for i, le in enumerate(entry["buckets"]):
                    cumulative = entry["buckets"][le]
                    slot = i if i < len(hist.bucket_counts) else -1
                    hist.bucket_counts[slot] += cumulative - previous
                    previous = cumulative
                hist.count += entry["count"]
                hist.sum += entry["sum"]
        if self.enabled:
            self.trace.attach(snap.get("spans") or [])

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({'on' if self.enabled else 'off'}; "
            f"{len(self._counters)} counters, {len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms)"
        )


# ----------------------------------------------------------------------
# Ambient registry (context-local, swapped by scoped_registry)
# ----------------------------------------------------------------------
# One process-wide default registry, with scopes tracked per execution
# context (a ContextVar, so per thread): every thread that has not
# entered a scope reads the same shared default, while a scope entered
# in one thread — a cell running on the service's job-executor thread,
# say — is invisible to every other.  A plain module global swapped in
# place would be corrupted by interleaved scope enter/exit across
# threads (thread A's ``finally`` restoring over thread B's swap),
# which can strand an *enabled* per-cell registry as the process
# ambient.  ContextVars also survive ``fork``: a forked worker's main
# thread continues with the forking thread's context, so in-worker
# scopes behave exactly as before.
_DEFAULT_REGISTRY = MetricsRegistry(enabled=False)
_REGISTRY_VAR: "ContextVar[MetricsRegistry]" = ContextVar(
    "repro_metrics_registry", default=_DEFAULT_REGISTRY
)


def registry() -> MetricsRegistry:
    """The ambient registry — always exists; structural counters record
    into it unconditionally."""
    return _REGISTRY_VAR.get()


def active() -> Optional[MetricsRegistry]:
    """The ambient registry iff telemetry is enabled, else ``None`` —
    the hot-path guard (``reg = active()`` … ``if reg is not None``)."""
    reg = _REGISTRY_VAR.get()
    return reg if reg.enabled else None


def enable_telemetry() -> MetricsRegistry:
    """Turn on the hot-path tier (spans, lockstep stage timing) globally."""
    reg = _REGISTRY_VAR.get()
    reg.enabled = True
    return reg


def disable_telemetry() -> MetricsRegistry:
    """Turn the hot-path tier back off (counters keep recording)."""
    reg = _REGISTRY_VAR.get()
    reg.enabled = False
    return reg


def telemetry_enabled() -> bool:
    """Whether the ambient registry's hot-path tier is on."""
    return _REGISTRY_VAR.get().enabled


@contextmanager
def scoped_registry(enabled: Optional[bool] = None):
    """Swap in a fresh ambient registry for the duration of the block.

    The sweep runner wraps every grid cell in one of these (in the
    parent for in-process sweeps, inside the forked worker for sharded
    ones) so each cell's telemetry is isolated, snapshotted, and merged
    back in deterministic grid order — the mechanism behind the
    ``jobs=k`` ≡ ``jobs=1`` snapshot contract.

    The scope is context-local: concurrent threads (e.g. the service's
    job executor and its HTTP handlers) each see their own scopes, and
    a thread with no scope open reads the shared process default.

    Args:
        enabled: Override the hot-path flag for the scope; by default
            the fresh registry inherits the current registry's flag.
    """
    parent = _REGISTRY_VAR.get()
    token = _REGISTRY_VAR.set(
        MetricsRegistry(enabled=parent.enabled if enabled is None else enabled)
    )
    try:
        yield _REGISTRY_VAR.get()
    finally:
        _REGISTRY_VAR.reset(token)


# ----------------------------------------------------------------------
# Renderings
# ----------------------------------------------------------------------
def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """The snapshot as Prometheus text-exposition lines."""
    lines = []
    for name, entries in snapshot.get("counters", {}).items():
        lines.append(f"# TYPE {name} counter")
        for entry in entries:
            lines.append(
                f"{name}{_format_labels(entry['labels'])} {entry['value']}"
            )
    for name, entries in snapshot.get("gauges", {}).items():
        lines.append(f"# TYPE {name} gauge")
        for entry in entries:
            lines.append(
                f"{name}{_format_labels(entry['labels'])} {entry['value']}"
            )
    for name, entries in snapshot.get("histograms", {}).items():
        lines.append(f"# TYPE {name} histogram")
        for entry in entries:
            for le, count in entry["buckets"].items():
                labels = dict(entry["labels"], le=le)
                lines.append(f"{name}_bucket{_format_labels(labels)} {count}")
            suffix = _format_labels(entry["labels"])
            lines.append(f"{name}_sum{suffix} {entry['sum']}")
            lines.append(f"{name}_count{suffix} {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _iter_table_rows(snapshot: dict):
    for name, entries in snapshot.get("counters", {}).items():
        for entry in entries:
            yield "counter", name + _format_labels(entry["labels"]), entry["value"]
    for name, entries in snapshot.get("gauges", {}).items():
        for entry in entries:
            yield "gauge", name + _format_labels(entry["labels"]), entry["value"]
    for name, entries in snapshot.get("histograms", {}).items():
        for entry in entries:
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            yield (
                "histogram",
                name + _format_labels(entry["labels"]),
                f"count={entry['count']} mean={mean:g}",
            )


def _span_lines(span: dict, depth: int, out: list) -> None:
    duration = span.get("duration")
    took = "open" if duration is None else f"{duration:.4f}s"
    attrs = span.get("attributes") or {}
    suffix = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
        if attrs
        else ""
    )
    out.append(f"{'  ' * depth}- {span['name']}: {took}{suffix}")
    for child in span.get("children", []):
        _span_lines(child, depth + 1, out)


def render_table(snapshot: dict) -> str:
    """The snapshot as an aligned, human-readable table (plus a span
    tree when the snapshot carries one)."""
    rows = list(_iter_table_rows(snapshot))
    if not rows and not snapshot.get("spans"):
        return "(empty telemetry snapshot)\n"
    width = max((len(row[1]) for row in rows), default=0)
    lines = [f"{name:<{width}}  {value}  ({kind})" for kind, name, value in rows]
    spans = snapshot.get("spans") or []
    if spans:
        lines.append("")
        lines.append("spans:")
        for span in spans:
            _span_lines(span, 1, lines)
    return "\n".join(lines) + "\n"
