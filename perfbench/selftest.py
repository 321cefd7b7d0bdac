"""Self-test of the benchmark at tiny scale.

Run from the repository root (takes about two minutes)::

    python3 perfbench/selftest.py

It checks that:

* every workload in ``BENCHMARK.json`` runs at one measured second,
  prints every ``end_to_end`` metric (``--trace 0``) and every
  ``per_layer`` metric (``--trace 1``) with the unit ``BENCHMARK.json``
  declares, and reports ``correct: true``;
* the correctness gate rejects tampered rows, both in the comparison
  itself (both tiers) and end to end: a copy of ``perfbench/`` whose
  ``reference.json`` has one altered row, run next to the program's
  ``src/``, exits 1 with ``correct: false``;
* without the program next to it, the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(spec: dict) -> list:
    failures = []
    groups = (("end_to_end", 0), ("per_layer", 1))
    for workload in spec["workloads"]:
        name = workload["name"]
        for group, trace in groups:
            before = len(failures)
            code, result, stderr = _run(name, trace)
            if code != 0 or not result or not result["correct"]:
                failures.append(f"{name} --trace {trace}: exit {code}\n"
                                f"{stderr[-2000:]}")
                continue
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    failures.append(f"{name}: {metric['name']} not emitted")
                elif got["unit"] != metric["unit"]:
                    failures.append(
                        f"{name}: {metric['name']} unit {got['unit']!r} != "
                        f"{metric['unit']!r}"
                    )
                elif not isinstance(got["value"], (int, float)):
                    failures.append(f"{name}: {metric['name']} not a number")
            if len(failures) == before:
                print(f"ok  {name} --trace {trace}", file=sys.stderr)
    return failures


def check_tamper() -> list:
    failures = []
    reference = gate.load_reference()
    seed = str(wl.plan_seed(SEED))
    for table, tier in (("linear", "bitwise"),
                        ("rmpc_grid", "plan-equivalent")):
        expected = reference[table][seed]
        rows = [dict(zip(["key", *gate.FIELDS], row)) for row in expected]
        if gate.compare(rows, expected, tier):
            failures.append(f"{table}: untampered rows rejected")
        tampered = copy.deepcopy(rows)
        tampered[-1]["mean_energy"] *= 1.001
        if not gate.compare(tampered, expected, tier):
            failures.append(f"{table}: tampered row accepted ({tier})")
        unsafe = copy.deepcopy(rows)
        unsafe[0]["max_violation"] = 0.5
        if not gate.compare(unsafe, expected, tier):
            failures.append(f"{table}: tampered violation accepted")

    # End to end: one altered stored-plan row makes the run fail.  The
    # benchmark is copied next to a link to the program's sources, and
    # the copy's reference is tampered with.
    scratch = os.path.join(ROOT, ".perfbench-run", "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        tampered_root = os.path.join(scratch, "tampered")
        bench = os.path.join(tampered_root, "perfbench")
        shutil.copytree(HERE, bench,
                        ignore=shutil.ignore_patterns("__pycache__"))
        os.symlink(os.path.join(ROOT, "src"),
                   os.path.join(tampered_root, "src"))
        with open(gate.REFERENCE_PATH) as handle:
            data = json.load(handle)
        data["tables"]["service"][seed][0][1] += 1.0
        with open(os.path.join(bench, "reference.json"), "w") as handle:
            json.dump(data, handle)
        code, result, _ = _run("service-mixed", 0, cwd=tampered_root)
        if code == 0 or result is None or result["correct"]:
            failures.append("run against a tampered reference passed")
        else:
            print("ok  tampered reference fails the run", file=sys.stderr)

        # Without the program: only BENCHMARK.json and perfbench/.
        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = _run("warm-rmpc-sweep", 0, cwd=bare)
        if code == 0 or result is not None:
            failures.append("run without the program did not fail cleanly")
        else:
            print("ok  bare directory exits non-zero", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    return failures


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = check_tamper() + check_metrics(spec)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
