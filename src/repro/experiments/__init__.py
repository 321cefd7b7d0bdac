"""Declarative experiment API: specs, parameter axes, sharded sweeps.

One front door for every paired-comparison workload (the shape of the
paper's whole Sec.-IV evaluation)::

    from repro.experiments import (
        ExperimentSpec, ParameterAxis, ExecutionConfig, SweepPlan, run_sweep,
    )

    plan = SweepPlan(
        experiments=["thermal", "pendulum"],            # registry names
        axes=[ParameterAxis("horizon", (8, 12))],       # spec overrides
        execution=ExecutionConfig(engine="lockstep", jobs=2),
    )
    result = run_sweep(plan)        # cells sharded across fork workers
    result.to_csv("sweep.csv")      # stable row keys, exact round-trip

The paper's ACC comparison (``ExperimentSpec(scenario="acc",
pattern="ex3", ...)`` — the CLI ``compare``/``experiment`` verbs) and
the CLI ``sweep``/``submit`` verbs are thin clients of this package.
"""

from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.execution import ExecutionConfig
from repro.experiments.plan import GridCell, SweepPlan
from repro.experiments.result import (
    ApproachResult,
    CellFailure,
    CellResult,
    ExperimentResult,
    SweepResult,
)
from repro.experiments.runner import run_experiment, run_sweep
from repro.experiments.serialization import plan_from_dict, plan_to_dict
from repro.experiments.spec import AxisPoint, ExperimentSpec, ParameterAxis

__all__ = [
    "AxisPoint",
    "ParameterAxis",
    "ExperimentSpec",
    "ExecutionConfig",
    "GridCell",
    "SweepPlan",
    "SweepCheckpoint",
    "ApproachResult",
    "CellFailure",
    "CellResult",
    "ExperimentResult",
    "SweepResult",
    "run_experiment",
    "run_sweep",
    "plan_from_dict",
    "plan_to_dict",
]
