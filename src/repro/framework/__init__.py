"""Runtime framework: safety monitor, Algorithm 1 loop, accounting."""

from repro.framework.accounting import RunStats, computation_saving
from repro.framework.evaluation import ENGINES, paired_evaluation
from repro.framework.intermittent import IntermittentController, run_controller_only
from repro.framework.lockstep import lockstep_controller_only, run_lockstep
from repro.framework.monitor import SafetyMonitor, SafetyViolationError, StateClass
from repro.framework.runner import (
    DETERMINISTIC_FIELDS,
    BatchResult,
    BatchRunner,
    EpisodeRecord,
    ParallelBatchRunner,
    spawn_episode_seeds,
)

__all__ = [
    "SafetyMonitor",
    "StateClass",
    "SafetyViolationError",
    "IntermittentController",
    "run_controller_only",
    "RunStats",
    "computation_saving",
    "ENGINES",
    "paired_evaluation",
    "BatchRunner",
    "ParallelBatchRunner",
    "run_lockstep",
    "lockstep_controller_only",
    "BatchResult",
    "EpisodeRecord",
    "DETERMINISTIC_FIELDS",
    "spawn_episode_seeds",
]
