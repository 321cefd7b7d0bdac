"""Cold certified-set synthesis per scenario, gated against the serial oracle.

Standalone script (not a pytest-benchmark kernel) so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_synthesis.py --quick
    PYTHONPATH=src python benchmarks/bench_synthesis.py   # whole zoo

For each scenario it synthesises XI and X′ from scratch (no builder
cache) and records every :meth:`HPolytope.remove_redundancies` input and
output.  It reports the cold synthesis seconds, the redundancy-removal
share, and the LP counts by phase (``screen``: one stacked LP per
polytope; ``recheck``: serial LPs for the rows the screen could not
settle).  Then it replays every recorded input through the serial oracle
(:func:`repro.geometry.reference.remove_redundancies_serial`) and exits
non-zero unless every output is bitwise-identical.

Every run writes a ``BENCH_synthesis.json`` artifact (per-scenario rows
plus machine info); disable with ``--artifact ''``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from machine import machine_info

from repro import scenarios
from repro.geometry import HPolytope
from repro.geometry.hpolytope import REDUNDANCY_LPS_METRIC
from repro.geometry.reference import remove_redundancies_serial
from repro.observability import metrics as obs
from repro.utils.lp import LP_SOLVES_METRIC

QUICK = ("thermal", "pendulum", "lane_keeping")


def _bits(H, h) -> tuple:
    return H.shape, H.tobytes(), h.tobytes()


def scenario_row(name: str) -> dict:
    """Cold-synthesise ``name`` and replay its redundancy removals."""
    calls = []
    busy = [0.0]
    original = HPolytope.remove_redundancies

    def recording(self, tol=1e-9):
        start = time.perf_counter()
        result = original(self, tol)
        busy[0] += time.perf_counter() - start
        calls.append((self.H, self.h, tol, result))
        return result

    HPolytope.remove_redundancies = recording
    try:
        with obs.scoped_registry(enabled=False) as reg:
            start = time.perf_counter()
            scenarios.build_case_study(scenarios.get(name), use_cache=False)
            synth_s = time.perf_counter() - start
    finally:
        HPolytope.remove_redundancies = original

    mismatches = 0
    with obs.scoped_registry(enabled=False) as oracle_reg:
        start = time.perf_counter()
        for H, h, tol, result in calls:
            reference = remove_redundancies_serial(H, h, tol)
            mismatches += _bits(result.H, result.h) != _bits(*reference)
        oracle_s = time.perf_counter() - start
    return {
        "scenario": name,
        "synth_s": round(synth_s, 4),
        "remove_redundancies_s": round(busy[0], 4),
        "remove_redundancies_calls": len(calls),
        "rows_in": sum(len(h) for _, h, _, _ in calls),
        "rows_out": sum(result.num_constraints for *_, result in calls),
        "screen_lps": reg.value(REDUNDANCY_LPS_METRIC, phase="screen"),
        "recheck_lps": reg.value(REDUNDANCY_LPS_METRIC, phase="recheck"),
        "oracle_lps": oracle_reg.total(LP_SOLVES_METRIC),
        "oracle_replay_s": round(oracle_s, 4),
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", nargs="*", default=None,
                        help="scenario names (default: every registered one)")
    parser.add_argument("--quick", action="store_true",
                        help=f"only {', '.join(QUICK)}")
    parser.add_argument("--artifact", default="BENCH_synthesis.json",
                        help="JSON artifact path ('' to skip)")
    args = parser.parse_args(argv)
    names = args.scenarios or (
        list(QUICK) if args.quick else scenarios.list_scenarios()
    )

    rows = []
    print(f"{'scenario':<14}{'synth s':>9}{'rr s':>8}{'calls':>7}"
          f"{'screen':>8}{'recheck':>9}{'oracle LPs':>12}{'oracle s':>10}  ok")
    for name in names:
        row = scenario_row(name)
        rows.append(row)
        print(f"{name:<14}{row['synth_s']:>9.3f}"
              f"{row['remove_redundancies_s']:>8.3f}"
              f"{row['remove_redundancies_calls']:>7}{row['screen_lps']:>8}"
              f"{row['recheck_lps']:>9}{row['oracle_lps']:>12}"
              f"{row['oracle_replay_s']:>10.3f}  "
              f"{'yes' if row['mismatches'] == 0 else 'NO'}", flush=True)
    ok = all(row["mismatches"] == 0 for row in rows)
    total = sum(row["synth_s"] for row in rows)
    print(f"total cold synthesis {total:.2f} s; "
          f"{'every set bitwise-identical to the serial oracle' if ok else 'MISMATCH against the serial oracle'}")
    if args.artifact:
        with open(args.artifact, "w") as fh:
            json.dump({
                "rows": rows,
                "total_synth_s": round(total, 4),
                "ok": ok,
                "machine": machine_info(),
            }, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
