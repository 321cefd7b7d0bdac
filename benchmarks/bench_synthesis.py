"""Cold certified-set synthesis per scenario, gated against the serial oracle.

Standalone script (not a pytest-benchmark kernel) so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_synthesis.py --quick
    PYTHONPATH=src python benchmarks/bench_synthesis.py   # whole zoo

For each scenario it synthesises XI and X′ from scratch (no builder
cache) and records every :meth:`HPolytope.remove_redundancies`, every
:func:`repro.invariance.maximal_rpi` (the RMPC terminal set, or the
linear-feedback XI) and every
:func:`repro.controllers.feasible.rmpc_feasible_set` input and output.
It reports the cold synthesis seconds, the LPs it solved, the
redundancy-removal share, the redundancy checks of 1-D and 2-D polytopes
decided by a closed-form certificate (``closed``, no LP), and the
redundancy LP counts by phase (``warm``: re-solves of one warm model per
polytope; ``cold``: fresh LPs for the rows a warm solve could not
decide).  Then it replays the recorded inputs through three oracles and
exits non-zero unless all agree:

* every redundancy removal through the serial loop
  (:func:`repro.geometry.reference.remove_redundancies_serial`),
  bitwise;
* every maximal RPI set through the textbook loop
  (:func:`repro.geometry.reference.maximal_rpi_reference`),
  set-equivalent (:func:`repro.geometry.reference.rpi_mismatch`);
* every RMPC feasible set through the two-prune route, which also prunes
  each projection before intersecting
  (:func:`repro.geometry.reference.rmpc_feasible_set_two_prune`),
  bitwise.

It also exits non-zero when a scenario with 1-D or 2-D redundancy
removals decides none of their checks in closed form, and when one with
1-D or 2-D emptiness (``is_empty``) or 2-D containment
(``contains_polytope``) checks decides none of them in closed form
(``geometry_decisions_closed_form_total{op}``): every such check
silently falling back to an LP would keep the sets right but lose the
speed.

Every run writes a ``BENCH_synthesis.json`` artifact (per-scenario rows
plus machine info); disable with ``--artifact ''``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from machine import machine_info

import repro.controllers.feasible as feasible_module
import repro.controllers.rmpc as rmpc_module
import repro.scenarios.builder as builder_module
from repro import scenarios
from repro.geometry import HPolytope
from repro.geometry.hpolytope import (
    DECISIONS_CLOSED_FORM_METRIC,
    REDUNDANCY_CLOSED_FORM_METRIC,
    REDUNDANCY_LPS_METRIC,
)
from repro.geometry.reference import (
    maximal_rpi_reference,
    remove_redundancies_serial,
    rmpc_feasible_set_two_prune,
    rpi_mismatch,
)
from repro.invariance.rci import maximal_rpi
from repro.observability import metrics as obs
from repro.utils.lp import LP_SOLVES_METRIC

#: Where synthesis calls ``maximal_rpi``: the RMPC terminal set and the
#: linear-feedback XI.
RPI_CALL_SITES = (rmpc_module, builder_module)

QUICK = ("thermal", "pendulum", "lane_keeping")

#: The geometric decisions counted per scenario, and the dimensions in
#: which each is offered a closed-form certificate.
DECISIONS = {"is_empty": (1, 2), "contains_polytope": (2,)}


def _bits(H, h) -> tuple:
    return H.shape, H.tobytes(), h.tobytes()


def scenario_row(name: str) -> dict:
    """Cold-synthesise ``name`` and replay its redundancy removals,
    maximal RPI sets and RMPC feasible sets."""
    calls = []
    rpi_calls = []
    feasible_calls = []
    rmpc_feasible_set = feasible_module.rmpc_feasible_set
    busy = [0.0, 0.0]
    original = HPolytope.remove_redundancies
    decisions = dict.fromkeys(DECISIONS, 0)  # calls offered a certificate
    deciders = {op: getattr(HPolytope, op) for op in DECISIONS}

    def counting(op):
        def decide(self, *args, **kwargs):
            decisions[op] += self.dim in DECISIONS[op]
            return deciders[op](self, *args, **kwargs)
        return decide

    def recording(self, tol=1e-9):
        start = time.perf_counter()
        result = original(self, tol)
        busy[0] += time.perf_counter() - start
        calls.append((self.H, self.h, tol, result))
        return result

    def recording_rpi(*args, **kwargs):
        start = time.perf_counter()
        result = maximal_rpi(*args, **kwargs)
        busy[1] += time.perf_counter() - start
        rpi_calls.append((args, kwargs, result))
        return result

    def recording_feasible(controller):
        result = rmpc_feasible_set(controller)
        feasible_calls.append((controller, result))
        return result

    HPolytope.remove_redundancies = recording
    for op in DECISIONS:
        setattr(HPolytope, op, counting(op))
    for site in RPI_CALL_SITES:
        site.maximal_rpi = recording_rpi
    feasible_module.rmpc_feasible_set = recording_feasible
    try:
        with obs.scoped_registry(enabled=False) as reg:
            start = time.perf_counter()
            scenarios.build_case_study(scenarios.get(name), use_cache=False)
            synth_s = time.perf_counter() - start
    finally:
        HPolytope.remove_redundancies = original
        for op, decide in deciders.items():
            setattr(HPolytope, op, decide)
        for site in RPI_CALL_SITES:
            site.maximal_rpi = maximal_rpi
        feasible_module.rmpc_feasible_set = rmpc_feasible_set

    mismatches = 0
    with obs.scoped_registry(enabled=False) as oracle_reg:
        start = time.perf_counter()
        for H, h, tol, result in calls:
            reference = remove_redundancies_serial(H, h, tol)
            mismatches += _bits(result.H, result.h) != _bits(*reference)
        oracle_s = time.perf_counter() - start
    rpi_mismatches = []
    with obs.scoped_registry(enabled=False):
        start = time.perf_counter()
        for args, kwargs, result in rpi_calls:
            why = rpi_mismatch(result, maximal_rpi_reference(*args, **kwargs))
            if why is not None:
                rpi_mismatches.append(why)
        rpi_oracle_s = time.perf_counter() - start
    with obs.scoped_registry(enabled=False):
        start = time.perf_counter()
        feasible_mismatches = 0
        for controller, result in feasible_calls:
            reference = rmpc_feasible_set_two_prune(controller)
            feasible_mismatches += (_bits(result.H, result.h)
                                    != _bits(reference.H, reference.h))
        feasible_oracle_s = time.perf_counter() - start
    return {
        "scenario": name,
        "synth_s": round(synth_s, 4),
        "lp_solves": reg.total(LP_SOLVES_METRIC),
        "maximal_rpi_s": round(busy[1], 4),
        "maximal_rpi_iterations": [r.iterations for *_, r in rpi_calls],
        "rpi_oracle_s": round(rpi_oracle_s, 4),
        "rpi_mismatches": rpi_mismatches,
        "remove_redundancies_s": round(busy[0], 4),
        "remove_redundancies_calls": len(calls),
        "rows_in": sum(len(h) for _, h, _, _ in calls),
        "rows_out": sum(result.num_constraints for *_, result in calls),
        "planar_calls": sum(H.shape[1] <= 2 for H, *_ in calls),
        "closed_form": reg.value(REDUNDANCY_CLOSED_FORM_METRIC),
        "warm_lps": reg.value(REDUNDANCY_LPS_METRIC, phase="warm"),
        "cold_lps": reg.value(REDUNDANCY_LPS_METRIC, phase="cold"),
        "planar_decisions": decisions,
        "closed_form_decisions": {
            op: reg.value(DECISIONS_CLOSED_FORM_METRIC, op=op) for op in DECISIONS
        },
        "oracle_lps": oracle_reg.total(LP_SOLVES_METRIC),
        "oracle_replay_s": round(oracle_s, 4),
        "mismatches": mismatches,
        "feasible_sets": len(feasible_calls),
        "feasible_oracle_s": round(feasible_oracle_s, 4),
        "feasible_mismatches": feasible_mismatches,
    }


def _share(row: dict, op: str) -> str:
    """``closed/calls`` of one decision op's checks offered a certificate."""
    return f"{row['closed_form_decisions'][op]}/{row['planar_decisions'][op]}"


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
    print(f"{'scenario':<14}{'synth s':>9}{'LPs':>6}{'rpi s':>8}{'rr s':>8}"
          f"{'calls':>7}{'closed':>8}{'warm':>7}{'cold':>6}{'empty':>8}"
          f"{'contain':>9}{'oracle LPs':>12}"
          f"{'oracle s':>10}  rr ok  rpi ok  X_F ok")
    for name in names:
        row = scenario_row(name)
        rows.append(row)
        feasible_ok = row["feasible_mismatches"] == 0
        print(f"{name:<14}{row['synth_s']:>9.3f}{row['lp_solves']:>6}"
              f"{row['maximal_rpi_s']:>8.3f}"
              f"{row['remove_redundancies_s']:>8.3f}"
              f"{row['remove_redundancies_calls']:>7}{row['closed_form']:>8}"
              f"{row['warm_lps']:>7}"
              f"{row['cold_lps']:>6}{_share(row, 'is_empty'):>8}"
              f"{_share(row, 'contains_polytope'):>9}{row['oracle_lps']:>12}"
              f"{row['oracle_replay_s']:>10.3f}  "
              f"{'yes' if row['mismatches'] == 0 else 'NO':>5}  "
              f"{'yes' if not row['rpi_mismatches'] else 'NO':>6}  "
              f"{('yes' if feasible_ok else 'NO') if row['feasible_sets'] else '-':>6}",
              flush=True)
        for why in row["rpi_mismatches"]:
            print(f"  maximal_rpi mismatch: {why}")
    redundancy_ok = all(row["mismatches"] == 0 for row in rows)
    rpi_ok = all(not row["rpi_mismatches"] for row in rows)
    feasible_ok = all(row["feasible_mismatches"] == 0 for row in rows)
    all_lp = [row["scenario"] for row in rows
              if row["planar_calls"] and not row["closed_form"]]
    all_lp_decisions = [
        f"{row['scenario']} {op}" for row in rows for op in DECISIONS
        if row["planar_decisions"][op] and not row["closed_form_decisions"][op]
    ]
    ok = (redundancy_ok and rpi_ok and feasible_ok and not all_lp
          and not all_lp_decisions)
    total = sum(row["synth_s"] for row in rows)
    redundancy = ("every redundancy removal bitwise-identical to the serial "
                  "oracle" if redundancy_ok
                  else "MISMATCH against the serial redundancy oracle")
    rpi = ("every maximal RPI set set-equivalent to the textbook loop"
           if rpi_ok else "MISMATCH against the textbook maximal RPI loop")
    feasible = ("every RMPC feasible set bitwise-identical to the two-prune "
                "route" if feasible_ok
                else "MISMATCH against the two-prune feasible-set route")
    print(f"total cold synthesis {total:.2f} s; {redundancy}; {rpi}; "
          f"{feasible}")
    if all_lp:
        print(f"NO closed-form redundancy check in {', '.join(all_lp)}: "
              "every 1-D/2-D check fell back to an LP")
    if all_lp_decisions:
        print(f"NO closed-form decision in {', '.join(all_lp_decisions)}: "
              "every check offered a certificate fell back to an LP")
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
