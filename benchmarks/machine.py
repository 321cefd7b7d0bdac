"""Shared environment fingerprint for the perf-trajectory artifacts.

Every standalone benchmark (`bench_lockstep.py`, `bench_sweep.py`, ...)
embeds the same machine info in its JSON artifact so successive commits stay comparable; one definition keeps the
artifacts' schemas from drifting apart.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np
import scipy


def visible_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_info() -> dict:
    """Environment fingerprint for the perf-trajectory artifact."""
    return {
        "cpus": visible_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
