"""The benchmark's workloads: which plans each one runs, at which size.

Everything here is a pure function of the workload seed, so the same seed
always yields the same plans.  The plan seed is the workload seed reduced
modulo :data:`SEED_TABLE`, because the committed correctness reference
(``reference.json``) holds the rows of every plan seed in that table.
"""

from __future__ import annotations

WORKLOADS = (
    "cold-rmpc-sweep",
    "warm-rmpc-sweep",
    "linear-lockstep",
    "service-mixed",
)

#: Plan seeds the committed reference covers (workload seed mod this).
SEED_TABLE = 64

#: Session ``k`` of a run gets workload seed ``seed + SESSION_STRIDE * k``,
#: and a sweep's repetition ``i`` in it runs plan seed ``plan_seed(seed +
#: SESSION_STRIDE * k + i)``: the plans a run measures depend on the seed
#: alone, and no two sessions of a run repeat a plan unless one runs more
#: than ``SESSION_STRIDE`` repetitions.
SESSION_STRIDE = 16

#: 2x2 RMPC grid shared by the cold and warm sweeps.  The horizon axis
#: overrides the RMPC prediction horizon, so each grid point is its own
#: synthesis (XI, X').  Short horizons and batches keep one cold repetition
#: near 5 s, so several fresh interpreters fit in one run.
RMPC_GRID = {
    "scenarios": ("thermal", "pendulum"),
    "axis": ("horizon", (4, 6)),
    "cases": 8,
    "steps": 25,
}

#: Closed-form (LQR) lockstep batch: no LP in the episode loop.  One
#: scenario keeps set-up short: dc_motor's ~10 s synthesis, paid by every
#: session, would dominate the run and add no engine work lane_keeping's
#: 4-state loop does not already give.
LINEAR_GRID = {
    "scenarios": ("lane_keeping",),
    "axis": None,
    "cases": 512,
    "steps": 200,
}

#: Every service job is this one-cell plan.  Stored-plan (hit) jobs use the
#: plan seed; re-seeded (miss) jobs draw seeds from the miss pool.
SERVICE_GRID = {
    "scenarios": ("thermal",),
    "axis": None,
    "cases": 4,
    "steps": 12,
}

#: Stored-plan jobs per miss job in one service round (closed loop).
#: This ratio is an assumption, not observed traffic: the repository has
#: no traffic data.  It is chosen so that the hit jobs fill about half of
#: a round's wall time (a hit takes ~4.5 ms, a miss ~150 ms on a 2-vCPU
#: Xeon), so a 2x slowdown of either path (HTTP and store reads, or
#: re-solve and store writes) moves ``wall_s`` by about half, well past its
#: bound.  Runs report the measured share as ``hit_wall_share``.
HITS_PER_ROUND = 32

#: Miss jobs use seeds ``MISS_SEED_BASE + i`` for ``i`` in the pool; a
#: session walks the pool from a seed-dependent offset and never reuses a
#: seed, because a reused seed would hit the store.
MISS_SEED_BASE = 1000
MISS_POOL = 128

#: Interval between job-status polls of the service client [s].  Well
#: below the 3-5 ms a stored-plan job takes, so latency is not quantised
#: to the poll period (the stock ``ServiceClient.wait`` polls at 0.1 s).
POLL_INTERVAL_S = 0.001


def plan_seed(workload_seed: int) -> int:
    """The sweep-plan seed a workload seed maps to."""
    return int(workload_seed) % SEED_TABLE


def miss_seeds(workload_seed: int):
    """The ordered miss-job seeds of one service session (the full pool,
    rotated by a seed-dependent offset)."""
    offset = (int(workload_seed) * 37) % MISS_POOL
    return [
        MISS_SEED_BASE + (offset + i) % MISS_POOL for i in range(MISS_POOL)
    ]


def make_plan(grid: dict, seed: int):
    """A lockstep, ``jobs=1`` sweep plan over ``grid`` at ``seed``."""
    from repro.experiments import ExecutionConfig, ParameterAxis, SweepPlan

    axes = ()
    if grid["axis"] is not None:
        field, values = grid["axis"]
        axes = (ParameterAxis(field, tuple(values)),)
    return SweepPlan.for_scenarios(
        grid["scenarios"],
        axes=axes,
        execution=ExecutionConfig(engine="lockstep", jobs=1),
        num_cases=grid["cases"],
        horizon=grid["steps"],
        seed=seed,
    )


def grid_specs(plan):
    """The scenario spec of every cell of ``plan`` (what synthesis builds)."""
    from repro.scenarios import registry

    specs = []
    for cell in plan.cells():
        spec = registry.get(cell.experiment.scenario)
        overrides = dict(cell.overrides)
        specs.append(spec.with_overrides(**overrides) if overrides else spec)
    return specs
