"""Regenerate ``reference.json``, the rows the correctness gate expects.

Runs every plan of every workload in-process (lockstep, ``jobs=1``) for
every plan seed the benchmark can use, and stores the compared view of the
rows (see ``gate.digest``).  Run it from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Only regenerate it when a change is *meant* to alter results; the gate
exists to catch changes that alter them by accident.
"""

from __future__ import annotations

import json
import sys

import gate
import workloads as wl


def _rows(plan):
    from repro.experiments import run_sweep

    result = run_sweep(plan)
    if result.failures or not result.always_safe:
        raise SystemExit(f"reference plan failed or unsafe: {plan}")
    return gate.digest(result.rows())


def main() -> int:
    seeds = range(wl.SEED_TABLE)
    tables = {
        "rmpc_grid": {
            str(s): _rows(wl.make_plan(wl.RMPC_GRID, s)) for s in seeds
        },
        "linear": {
            str(s): _rows(wl.make_plan(wl.LINEAR_GRID, s)) for s in seeds
        },
        "service": {
            str(s): _rows(wl.make_plan(wl.SERVICE_GRID, s)) for s in seeds
        },
        "service_miss": {
            str(s): _rows(wl.make_plan(wl.SERVICE_GRID, s))
            for s in range(wl.MISS_SEED_BASE, wl.MISS_SEED_BASE + wl.MISS_POOL)
        },
    }
    with open(gate.REFERENCE_PATH, "w") as handle:
        json.dump(
            {"format": 1, "fields": ["key", *gate.FIELDS], "tables": tables},
            handle, separators=(",", ":"),
        )
        handle.write("\n")
    print(f"wrote {gate.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
