"""The repository benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload cold-rmpc-sweep --seed 1 \\
        --seconds 14 --trace 0

Workloads (sizes in ``workloads.py``; reasons in ``BENCHMARK.json``):

* ``cold-rmpc-sweep``: 2x2 thermal/pendulum RMPC grid from a fresh
  interpreter and an empty checkpoint store; synthesis and LPs dominate.
* ``warm-rmpc-sweep``: the same grid with every certified set synthesised
  during set-up and no store; the engine and stacked RMPC LPs dominate.
* ``linear-lockstep``: lane_keeping (closed-form LQR) in a large lockstep
  batch; zero LP calls in the timed section.
* ``service-mixed``: a separately launched service driven by one
  closed-loop client, mixing stored-plan jobs (store reads) with re-seeded
  jobs (re-solve and store writes).

Every run launches :data:`SESSIONS` fresh interpreters (``session.py``) one
after another.  Each sets its workload up (set-up time is its own metric)
and measures repetitions for its share of ``--seconds``; a cold repetition
needs a fresh interpreter, so ``cold-rmpc-sweep`` runs one repetition per
session and adds sessions until ``--seconds`` of repetitions are measured.
Each repetition runs the next plan seed (``workloads.SESSION_STRIDE``).

Timings are normalised to the host's speed (``calib.py``): a fixed
reference loop runs between short segments of every timed section, and
each segment's wall time is scaled by the loop's nominal over its measured
time.  On a shared 2-vCPU Xeon VM a vCPU's speed swings by tens of percent
within a second and by up to 2x for minutes, so raw wall times of the same
sweep varied by 1.7x within minutes.  Over ten seeds per workload, the
spread of the run's raw fastest repetition (interquartile range over
median) was 0.14-0.32; of the normalised median it was 0.025-0.035.
``setup_s``, ``wall_s``, ``cells_per_s`` and ``jobs_per_s`` are medians of
normalised times (over sessions for set-up, over repetitions otherwise) and
``peak_rss_mb`` a median over sessions.  All load comes from one process at
a time with one connection, never more than ``nproc`` threads.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced sessions: traced ones wrap each layer's entry points
(``layers.py``) and report per-layer numbers per repetition, the untraced
ones give the tracing overhead.

Outputs are checked in every session (``gate.py``): rows against the
committed reference, zero safety violations, no failed cell or request,
cold runs synthesise every cell, warm runs none, and the closed-form
workload makes no LP call.  The last stdout line is the JSON result; the
exit code is 1 when a check failed and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads as wl  # noqa: E402

#: A run must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

#: Fresh interpreters per run: the set-up samples behind ``setup_s``, and
#: with ``--trace 1`` one traced and one untraced session.
SESSIONS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "scenarios.builder.synth_s": "s",
    "scenarios.builder.synth_calls": "count",
    "scenarios.builder.cache_hit_ratio": "ratio",
    "scenarios.builder.setup_synth_s": "s",
    "controllers.feasible.rmpc_invariant_set_s": "s",
    "invariance.rci.maximal_rpi_s": "s",
    "invariance.reach.strengthened_safe_set_s": "s",
    "geometry.remove_redundancies_s": "s",
    "geometry.remove_redundancies_calls": "count",
    "geometry.removed_row_ratio": "ratio",
    "utils.lp.calls.synthesis": "count",
    "utils.lp.calls.episode": "count",
    "utils.lp.linprog_s": "s",
    "utils.lp.highs_core_s": "s",
    "utils.lp.core_share": "ratio",
    "controllers.rmpc.solve_batch_s": "s",
    "controllers.rmpc.solve_batch_calls": "count",
    "controllers.rmpc.scalar_solves": "count",
    "controllers.rmpc.mean_batch_rows": "count",
    "framework.evaluation.paired_evaluation_s": "s",
    "framework.lockstep.classify_s": "s",
    "framework.lockstep.decide_s": "s",
    "framework.lockstep.control_s": "s",
    "framework.lockstep.step_s": "s",
    "service.store.get_s": "s",
    "service.store.get_calls": "count",
    "service.store.put_s": "s",
    "service.store.put_calls": "count",
    "service.store.hit_ratio": "ratio",
    "service.client.submit_ms": "ms",
    "service.client.status_ms": "ms",
    "service.client.result_ms": "ms",
    "service.client.status_polls_per_job": "count",
    "service.client.poll_interval_ms": "ms",
    "service.job.hit_p50_ms": "ms",
    "service.job.hit_tail_ms": "ms",
    "service.job.hit_tail_pct": "%",
    "service.job.hit_samples": "count",
    "service.job.miss_p50_ms": "ms",
    "service.job.miss_tail_ms": "ms",
    "service.job.miss_tail_pct": "%",
    "service.job.miss_samples": "count",
    "service.job.hit_wall_share": "ratio",
    "share.synthesis": "ratio",
    "share.engine": "ratio",
    "share.store": "ratio",
    "share.lp": "ratio",
    "share.client_http": "ratio",
    "share.poll_wait": "ratio",
    "share.unattributed": "ratio",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Core metrics reported as absent (not zero) when scipy's private HiGHS
#: core class is not there to wrap, or when the resolved LP backend is not
#: scipy (the persistent-HiGHS core is not timed on its own).
CORE_METRICS = ("utils.lp.highs_core_s", "utils.lp.core_share")


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def tail(samples) -> tuple:
    """``(p50, tail, tail percentile, n)`` of latency ``samples``.

    The tail is the highest percentile with at least ten samples beyond
    it: the 11th-largest sample, at percentile ``100 * (n - 10) / n``.
    Below 20 samples that percentile would not exceed the median, so the
    tail is reported as the median (percentile 50) and ``n`` shows why.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    p50 = _median(ordered)
    if n < 20:
        return p50, p50, 50.0, n
    return p50, ordered[n - 11], 100.0 * (n - 10) / n, n


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def _session_env(workdir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = workdir
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_session(args, index: int, traced: bool, budget: float,
                workdir: str, deadline: float) -> dict:
    session_dir = os.path.join(workdir, f"session-{index}")
    os.makedirs(session_dir)
    out = os.path.join(session_dir, "result.json")
    launch_calib = calib.sample()
    launched = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "session.py"),
            "--workload", args.workload,
            "--seed", str(args.seed + wl.SESSION_STRIDE * index),
            "--budget", repr(budget), "--trace", "1" if traced else "0",
            "--launched", repr(launched),
            "--launch-calib", repr(launch_calib), "--workdir", session_dir,
            "--out", out,
        ],
        stdout=sys.stderr, env=_session_env(session_dir),
        start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The whole process group: a service session's server too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    try:
        with open(out) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = {"problems": [f"session {index} exited {proc.returncode} "
                               "without a result"], "reps": []}
    result["traced"] = traced
    return result


def run_sessions(args, workdir: str) -> list:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    cold = args.workload == "cold-rmpc-sweep"
    count = SESSIONS
    budget = args.seconds / count
    sessions = []
    measured = 0.0
    while True:
        index = len(sessions)
        traced = bool(args.trace) and index % 2 == 0
        session = run_session(args, index, traced, budget, workdir, deadline)
        sessions.append(session)
        measured += sum(rep["wall_s"] for rep in session["reps"])
        if session["problems"]:
            break
        if index + 1 < count:
            continue
        # Cold runs add sessions until the repetitions fill --seconds.
        if not (cold and measured < args.seconds):
            break
        if time.monotonic() - start > RUN_DEADLINE_S / 2:
            break
    return sessions


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def end_to_end(sessions) -> dict:
    reps = [rep for s in sessions for rep in s["reps"] if not rep["traced"]]
    return {
        "setup_s": _median(
            s["norm_setup_s"] for s in sessions if "norm_setup_s" in s
        ),
        "wall_s": _median(rep["norm_wall_s"] for rep in reps),
        "cells_per_s": _median(rep["cells"] / rep["norm_wall_s"] for rep in reps),
        "jobs_per_s": _median(rep["jobs"] / rep["norm_wall_s"] for rep in reps),
        "peak_rss_mb": _median(
            s["peak_rss_mb"] for s in sessions if "peak_rss_mb" in s
        ),
    }


def job_latencies(sessions, traced_too: bool = False) -> dict:
    """Hit/miss job latency percentiles over the (untraced) sessions."""
    samples = {"hit": [], "miss": []}
    for session in sessions:
        for rep in session["reps"]:
            if rep["traced"] and not traced_too:
                continue
            for kind, ms in rep.get("latency_ms", []):
                samples[kind].append(ms)
    out = {}
    for kind, values in samples.items():
        p50, value, pct, n = tail(values)
        out[f"{kind}_p50_ms"] = p50
        out[f"{kind}_tail_ms"] = value
        out[f"{kind}_tail_pct"] = pct
        out[f"{kind}_samples"] = n
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def hit_wall_share(sessions) -> float:
    """Share of untraced service-round wall time spent in stored-plan
    jobs: how much of ``wall_s`` store reads and HTTP account for."""
    reps = [rep for s in sessions for rep in s["reps"]
            if not rep["traced"] and "hit_s" in rep]
    return _ratio(sum(rep["hit_s"] for rep in reps),
                  sum(rep["wall_s"] for rep in reps))


def _layer_row(seconds, counts, stages, scalar_solves, wall, poll_wait):
    """Per-layer metrics of one traced repetition (or one service round).

    The repetition's wall time is split into layers that do not overlap:
    synthesis, engine and store for in-process sweeps; HTTP requests and
    poll waits for the service client, whose server-side layers run in
    another process while the client waits and so are reported but not
    subtracted.  What no layer covers is ``unattributed_s``.
    """
    get = lambda key: seconds.get(key, 0.0)  # noqa: E731
    count = lambda key: counts.get(key, 0.0)  # noqa: E731
    client = get("client.submit") + get("client.status") + get(
        "client.result"
    )
    if client:
        attributed = client + poll_wait
    else:
        attributed = (
            get("builder") + get("paired_evaluation") + get("store.get")
            + get("store.put")
        )
    row = {
        "scenarios.builder.synth_s": get("builder.synth"),
        "scenarios.builder.synth_calls": count("builder.synth"),
        "scenarios.builder.cache_hit_ratio": _ratio(
            count("builder") - count("builder.synth"), count("builder")
        ),
        "controllers.feasible.rmpc_invariant_set_s":
            get("rmpc_invariant_set"),
        "invariance.rci.maximal_rpi_s": get("maximal_rpi"),
        "invariance.reach.strengthened_safe_set_s":
            get("strengthened_safe_set"),
        "geometry.remove_redundancies_s": get("remove_redundancies"),
        "geometry.remove_redundancies_calls": count("remove_redundancies"),
        "geometry.removed_row_ratio": 1.0 - _ratio(
            count("rows_out"), count("rows_in")
        ) if count("rows_in") else 0.0,
        "utils.lp.calls.synthesis": count("lp.calls.synthesis"),
        "utils.lp.calls.episode": count("lp.calls.episode"),
        "utils.lp.linprog_s": get("lp.linprog"),
        "utils.lp.highs_core_s": get("lp.core"),
        "utils.lp.core_share": _ratio(get("lp.core"), get("lp.linprog")),
        "controllers.rmpc.solve_batch_s": get("rmpc.solve_batch"),
        "controllers.rmpc.solve_batch_calls": count("rmpc.solve_batch"),
        "controllers.rmpc.scalar_solves": scalar_solves,
        "controllers.rmpc.mean_batch_rows": _ratio(
            count("rmpc.batch_rows"), count("rmpc.solve_batch")
        ),
        "framework.evaluation.paired_evaluation_s": get("paired_evaluation"),
        "service.store.get_s": get("store.get"),
        "service.store.get_calls": count("store.get"),
        "service.store.put_s": get("store.put"),
        "service.store.put_calls": count("store.put"),
        "service.store.hit_ratio": _ratio(
            count("store.hits"), count("store.get")
        ),
        "share.synthesis": _ratio(get("builder"), wall),
        "share.engine": _ratio(get("paired_evaluation"), wall),
        "share.store": _ratio(get("store.get") + get("store.put"), wall),
        "share.lp": _ratio(get("lp.linprog"), wall),
        "share.client_http": _ratio(client, wall),
        "share.poll_wait": _ratio(poll_wait, wall),
        "share.unattributed": _ratio(wall - attributed, wall),
        "trace.wall_s": wall,
        "unattributed_s": wall - attributed,
    }
    for stage in ("classify", "decide", "control", "step"):
        row[f"framework.lockstep.{stage}_s"] = stages.get(stage, 0.0)
    return row


def per_layer(args, sessions) -> dict:
    traced = [s for s in sessions if s["traced"]]
    rows = []
    service = args.workload == "service-mixed"
    for session in traced:
        if service:
            # Server-side layers come from the launcher's stats, client
            # layers from this session; both are per round.
            rounds = len(session["reps"])
            server = session.get("server", {})
            seconds = dict(server.get("layers", {}).get("seconds", {}))
            counts = dict(server.get("layers", {}).get("counts", {}))
            timed = session.get("timed_layers", {})
            seconds.update(timed.get("seconds", {}))
            counts.update(timed.get("counts", {}))
            wall = sum(rep["wall_s"] for rep in session["reps"])
            row = _layer_row(
                {k: v / rounds for k, v in seconds.items()},
                {k: v / rounds for k, v in counts.items()},
                {},
                server.get("counters", {}).get("scalar_solves", 0) / rounds,
                wall / rounds,
                sum(rep["poll_wait_s"] for rep in session["reps"]) / rounds,
            )
            jobs = sum(rep["jobs"] for rep in session["reps"])
            polls = sum(rep["polls"] for rep in session["reps"])
            for name in ("submit", "status", "result"):
                row[f"service.client.{name}_ms"] = 1e3 * _ratio(
                    seconds.get(f"client.{name}", 0.0),
                    counts.get(f"client.{name}", 0.0),
                )
            row["service.client.status_polls_per_job"] = _ratio(polls, jobs)
            rows.append(row)
            continue
        for rep in session["reps"]:
            layers = rep["layers"]
            rows.append(_layer_row(
                layers["seconds"], layers["counts"], rep["stages"],
                rep["scalar_solves"], rep["wall_s"], 0.0,
            ))
    metrics = {}
    for name in LAYER_UNITS:
        metrics[name] = _median(row.get(name, 0.0) for row in rows)
    metrics["scenarios.builder.setup_synth_s"] = _median(
        s.get("setup_layers", {}).get("seconds", {}).get("builder.synth", 0.0)
        for s in traced
    )
    metrics["service.client.poll_interval_ms"] = (
        1e3 * wl.POLL_INTERVAL_S if service else 0.0
    )
    metrics["service.job.hit_wall_share"] = hit_wall_share(sessions)
    # Traced sessions count too: a traced run has one untraced session,
    # too few jobs for a latency tail on its own.
    latencies = job_latencies(sessions, traced_too=True)
    for key, value in latencies.items():
        metrics[f"service.job.{key}"] = float(value)
    traced_wall = _median(
        rep["norm_wall_s"] for s in traced for rep in s["reps"]
    )
    untraced_wall = _median(
        rep["norm_wall_s"] for s in sessions if not s["traced"]
        for rep in s["reps"]
    )
    metrics["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall) - 1.0
    if any(target.endswith("_Highs.run")
           for s in traced for target in s.get("missing", [])) or any(
        (s.get("provenance") or {}).get("lp_backend") != "scipy"
        for s in traced
    ):
        for name in CORE_METRICS:
            metrics.pop(name, None)
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src/repro; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    # Byte-compile once, untimed, so no session pays for it in set-up.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)

    workdir = os.path.join(ROOT, ".perfbench-run",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        sessions = run_sessions(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    problems = [p for s in sessions for p in s["problems"]]
    problems += [p for s in sessions for rep in s["reps"]
                 for p in rep["problems"]]
    reps = [rep for s in sessions for rep in s["reps"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    correct = not problems and attempted > 0 and failed == 0

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        values = per_layer(args, sessions) if correct else {}
        units = LAYER_UNITS
    else:
        values = end_to_end(sessions) if correct else {}
        units = END_TO_END_UNITS
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "plan_seed": wl.plan_seed(args.seed),
        "sessions": len(sessions),
        "repetitions": len(reps),
        "repetition_wall_s": [rep["wall_s"] for rep in reps],
        "repetition_norm_wall_s": [rep["norm_wall_s"] for rep in reps],
        "setup_samples_s": [s["setup_s"] for s in sessions if "setup_s" in s],
        "failed_ratio": _ratio(failed, attempted),
        "hit_wall_share": hit_wall_share(sessions),
        "provenance": sessions[0].get("provenance") if sessions else None,
        "missing_wrap_targets": sorted(
            {m for s in sessions for m in s.get("missing", [])}
        ),
        "wrapped_bindings": sorted(
            {b for s in sessions if s["traced"]
             for b in s.get("patched", [])}
        ),
    }
    print(json.dumps(summary, sort_keys=True))
    for name, value in values.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_ratio':<44} {summary['failed_ratio']:>14.6g} ratio")
    if args.workload == "service-mixed" and not args.trace and correct:
        # Service-only latencies: not in the JSON result, whose metrics
        # every workload must report.
        latency = job_latencies(sessions)
        print(f"{'hit_wall_share':<44} "
              f"{hit_wall_share(sessions):>14.6g} ratio  "
              f"({wl.HITS_PER_ROUND} stored-plan jobs per re-seeded job)")
        for kind in ("hit", "miss"):
            print(f"{kind + '_job_p50_ms':<44} "
                  f"{latency[kind + '_p50_ms']:>14.6g} ms")
            print(f"{kind + '_job_tail_ms':<44} "
                  f"{latency[kind + '_tail_ms']:>14.6g} ms  (p"
                  f"{latency[kind + '_tail_pct']:.1f} of "
                  f"{latency[kind + '_samples']} jobs, polled every "
                  f"{1e3 * wl.POLL_INTERVAL_S:g} ms)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
