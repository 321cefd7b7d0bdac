"""Unified telemetry: metrics registry, run traces, logging wiring.

The repo's single observability surface.  See
:mod:`repro.observability.metrics` for the cost model (always-on
structural counters vs enabled-gated hot-path instrumentation and the
hard records-are-bitwise-identical contract),
:mod:`repro.observability.trace` for the span layer, and
:mod:`repro.observability.logconfig` for the ``repro.*`` logger
namespace.

Quick start::

    from repro import observability as obs

    obs.enable_telemetry()            # or ExecutionConfig(telemetry=True)
    result = run_sweep(plan, execution)
    snap = obs.registry().snapshot()  # or result.telemetry
    text = obs.render_table(snap)     # or render_prometheus(snap)
"""

from .logconfig import LOGGER_NAMESPACE, configure_logging
from .metrics import (
    MetricsRegistry,
    active,
    deterministic_view,
    enable_telemetry,
    registry,
    render_prometheus,
    render_table,
    scoped_registry,
    telemetry_enabled,
)
from .trace import RunTrace, Span

__all__ = [
    "MetricsRegistry",
    "RunTrace",
    "Span",
    "LOGGER_NAMESPACE",
    "configure_logging",
    "registry",
    "active",
    "enable_telemetry",
    "telemetry_enabled",
    "scoped_registry",
    "deterministic_view",
    "render_prometheus",
    "render_table",
]
