"""Correctness gate: sweep rows against the committed reference.

``reference.json`` holds, for every plan seed a workload can use, the rows
the program produced when the benchmark was defined (regenerate it with
``make_reference.py``).  Rows are compared under the repository's two-tier
determinism contract:

* ``bitwise`` (closed-form controllers): every compared value is identical;
* ``plan-equivalent`` (stacked RMPC LPs): the same row keys, and each metric
  within ``REL_TOL`` relative / ``ABS_TOL`` absolute of the reference.

Independently of the reference, every row must be safe (Theorem 1: zero
safety violations) and no cell may have failed.
"""

from __future__ import annotations

import json
import math
import os

#: Deterministic row metrics the gate compares (timing columns excluded).
FIELDS = (
    "mean_energy",
    "energy_saving",
    "mean_skip_rate",
    "mean_forced_steps",
    "max_violation",
)
REL_TOL = 1e-6
ABS_TOL = 1e-9

REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference.json"
)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)["tables"]


def digest(rows) -> list:
    """The compared view of a row table: ``[key, *FIELDS]`` per row."""
    return [[row["key"]] + [row[name] for name in FIELDS] for row in rows]


def compare(rows, expected, tier: str) -> list:
    """Problems found comparing ``rows`` to reference ``expected``."""
    got = digest(rows)
    if [row[0] for row in got] != [row[0] for row in expected]:
        return [
            f"row keys {[row[0] for row in got]} != reference "
            f"{[row[0] for row in expected]}"
        ]
    problems = []
    for mine, ref in zip(got, expected):
        for name, value, want in zip(FIELDS, mine[1:], ref[1:]):
            if tier == "bitwise":
                ok = value == want
            else:
                ok = math.isclose(value, want, rel_tol=REL_TOL,
                                  abs_tol=ABS_TOL)
            if not ok:
                problems.append(
                    f"{mine[0]} {name}={value!r} differs from reference "
                    f"{want!r} ({tier})"
                )
    return problems


def check_sweep(result, expected, tier: str, cells: int) -> list:
    """Every gate a finished sweep must pass; returns the problems."""
    problems = [
        f"cell {failure.key} failed: {failure.error_type}: {failure.message}"
        for failure in result.failures
    ]
    if len(result.cells) != cells:
        problems.append(f"{len(result.cells)} cells returned, {cells} planned")
    rows = result.rows()
    for row in rows:
        if not row["safe"] or row["max_violation"] > 0.0:
            problems.append(
                f"{row['key']}: safety violation {row['max_violation']!r}"
            )
    if expected is None:
        problems.append("no reference rows for this plan seed")
    else:
        problems.extend(compare(rows, expected, tier))
    return problems
