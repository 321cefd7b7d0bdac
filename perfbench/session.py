"""One benchmark session, in a fresh interpreter.

``run.py`` launches two sessions per run.  A session imports the
program, sets its workload up, runs timed repetitions for its share of the
run, checks every output against the correctness gate, and writes what it
measured to ``--out`` as JSON.  Set-up time is counted from the moment
``run.py`` launched the interpreter (``--launched``, a ``time.monotonic``
reading), so it covers interpreter start, imports, synthesis and, for the
service, server boot.  Every timed section runs on a ``calib.Clock``, which
records its wall time and its wall time normalised to the host's speed.

A repetition is one whole ``run_sweep`` of the workload's grid (sweep
workloads) or one closed-loop round of ``HITS_PER_ROUND`` stored-plan jobs
and one re-seeded job (``service-mixed``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import replace

import calib
import gate
import workloads as wl
from layers import LayerTrace

HERE = os.path.dirname(os.path.abspath(__file__))


def _counter(name: str, **labels) -> float:
    from repro.observability import metrics

    return metrics.registry().total(name, **labels)


def _stage_seconds(telemetry) -> dict:
    """Lockstep stage seconds summed over approaches, from a sweep's
    telemetry snapshot (the ``lockstep_stage_seconds`` counter)."""
    out = {}
    entries = ((telemetry or {}).get("counters") or {}).get(
        "lockstep_stage_seconds", []
    )
    for entry in entries:
        stage = entry["labels"].get("stage", "?")
        out[stage] = out.get(stage, 0.0) + entry["value"]
    return out


def _lp_calls(layers: dict) -> float:
    counts = layers["counts"]
    return (
        counts.get("lp.calls.synthesis", 0)
        + counts.get("lp.calls.episode", 0)
        + counts.get("lp.core", 0)
    )


class SweepWorkload:
    """cold-rmpc-sweep, warm-rmpc-sweep and linear-lockstep."""

    def __init__(self, name: str, seed: int, workdir: str, trace):
        self.cold = name == "cold-rmpc-sweep"
        self.linear = name == "linear-lockstep"
        self.grid = wl.LINEAR_GRID if self.linear else wl.RMPC_GRID
        table = "linear" if self.linear else "rmpc_grid"
        self.tier = "bitwise" if self.linear else "plan-equivalent"
        self.seed = seed
        self.plan = wl.make_plan(self.grid, wl.plan_seed(seed))
        self.warmup = wl.make_plan(dict(self.grid, cases=1, steps=2),
                                   wl.plan_seed(seed))
        self.cells = len(self.plan.cells())
        self.reference = gate.load_reference()[table]
        self.workdir = workdir
        self.trace = trace

    def setup(self) -> None:
        # Warm workloads synthesise every grid point's certified sets
        # here, so the timed section finds them in the builder cache.  A
        # one-case sweep then fills the lazy per-set caches (bounding
        # boxes, monitor nesting proofs) that would otherwise cost LPs in
        # the first timed repetition.
        if not self.cold:
            from repro.experiments import run_sweep
            from repro.scenarios import builder

            for spec in wl.grid_specs(self.plan):
                builder.build_case_study(spec)
            run_sweep(self.warmup)

    def rep(self, index: int, traced: bool, clock) -> dict:
        from repro.experiments import run_sweep

        # Each repetition runs the next plan seed, so a run's median spans
        # several plans rather than resting on one plan's work.
        seed = wl.plan_seed(self.seed + index)
        plan = wl.make_plan(self.grid, seed)
        execution = replace(plan.execution, telemetry=traced)
        checkpoint = None
        if self.cold:
            # A fresh, empty checkpoint store: every cell is solved and
            # written.
            checkpoint = os.path.join(self.workdir, f"store-{index}")
        synthesised = _counter("scenario_builds_total", source="synthesised")
        scalar = _counter("rmpc_solves_total", path="scalar")
        self.trace.reset()

        clock.start()
        result = run_sweep(plan, execution, checkpoint=checkpoint,
                           on_cell=lambda _cell: clock.mark())
        clock.stop()

        layers = self.trace.snapshot()
        synthesised = (
            _counter("scenario_builds_total", source="synthesised")
            - synthesised
        )
        problems = gate.check_sweep(
            result, self.reference.get(str(seed)), self.tier, self.cells
        )
        want = self.cells if self.cold else 0
        if synthesised != want:
            problems.append(
                f"scenario_builds_total{{source=synthesised}} rose by "
                f"{synthesised:g} in the timed section, expected {want}"
            )
        if self.linear and _lp_calls(layers):
            problems.append(
                f"{_lp_calls(layers):g} LP calls in the timed section of a "
                "closed-form workload, expected 0"
            )
        record = {
            "cells": len(result.cells),
            "jobs": 1,
            "attempted": self.cells,
            "failed": len(result.failures),
            "synthesised": synthesised,
            "scalar_solves": (
                _counter("rmpc_solves_total", path="scalar") - scalar
            ),
            "traced": traced,
            "problems": problems,
        }
        if traced:
            record["layers"] = layers
            record["stages"] = _stage_seconds(result.telemetry)
        return record

    def close(self) -> dict:
        return {}


class ServiceWorkload:
    """service-mixed: a separately launched server, one closed-loop client."""

    TERMINAL = ("done", "failed", "cancelled")

    def __init__(self, name: str, seed: int, workdir: str, trace):
        from repro.experiments.serialization import plan_to_dict

        seed = wl.plan_seed(seed)
        reference = gate.load_reference()
        self.expected = reference["service"].get(str(seed))
        self.miss_reference = reference["service_miss"]
        plan = wl.make_plan(wl.SERVICE_GRID, seed)
        # Serialised once: the client sends the same JSON every time.
        self.stored = plan_to_dict(plan)
        self.cells = len(plan.cells())
        self.miss_seeds = wl.miss_seeds(seed)
        self.workdir = workdir
        self.traced_server = trace.timing
        self.stats_path = os.path.join(workdir, "server-stats.json")
        self.proc = None
        self.client = None
        self.stored_rows = None
        self.problems = []

    # -- server lifecycle ----------------------------------------------
    def setup(self) -> None:
        from repro.service import ServiceClient

        command = [
            sys.executable, os.path.join(HERE, "server.py"),
            "--store", os.path.join(self.workdir, "store"),
            "--stats", self.stats_path,
        ]
        if self.traced_server:
            command.append("--trace")
        log = open(os.path.join(self.workdir, "server.log"), "w")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, text=True
        )
        log.close()
        line = self.proc.stdout.readline()
        if " on http://" not in line:
            raise RuntimeError(f"server did not announce a URL: {line!r}")
        self.client = ServiceClient(line.rsplit(" ", 1)[1].strip())
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)
        # Populate the store with the stored plan, then one re-seeded job
        # so the server has synthesised the sets every later job needs.
        job = self._job(self.stored)
        self._check(job, self.expected, restored=0)
        if job["result"] is not None:
            self.stored_rows = json.dumps(job["result"].rows())
        self._check_miss(*self._miss_job())
        if self.problems:
            raise RuntimeError("; ".join(self.problems))

    def start_timed(self) -> None:
        """Zero the server's layer numbers before the timed section."""
        ack = self.stats_path + ".reset"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(ack):
            if time.monotonic() >= deadline:
                raise RuntimeError("server did not acknowledge SIGUSR1")
            time.sleep(0.001)

    def close(self) -> dict:
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        try:
            with open(self.stats_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    # -- jobs ----------------------------------------------------------
    def _job(self, payload) -> dict:
        """Submit, poll at ``POLL_INTERVAL_S``, fetch the result."""
        from repro.service.client import ServiceError

        job = {"result": None, "status": None, "polls": 0, "wait_s": 0.0,
               "requests": 0, "failed": 0}
        start = time.perf_counter()
        try:
            job["requests"] += 1
            job_id = self.client.submit(payload)
            while True:
                job["requests"] += 1
                status = self.client.status(job_id)
                job["polls"] += 1
                if status["state"] in self.TERMINAL:
                    break
                tick = time.perf_counter()
                time.sleep(wl.POLL_INTERVAL_S)
                job["wait_s"] += time.perf_counter() - tick
            job["status"] = status
            if status["state"] == "done":
                job["requests"] += 1
                job["result"] = self.client.result(job_id)
        except (ServiceError, OSError) as exc:
            job["failed"] += 1
            self.problems.append(f"HTTP request failed: {exc}")
        job["latency_ms"] = 1e3 * (time.perf_counter() - start)
        return job

    def _check(self, job, expected, restored) -> None:
        status = job["status"]
        if status is None:
            return
        if status["state"] != "done":
            self.problems.append(
                f"job ended {status['state']}: {status.get('error')}"
            )
            return
        if status["cells_restored"] != restored:
            self.problems.append(
                f"job restored {status['cells_restored']} of {self.cells} "
                f"cells, expected {restored}"
            )
        self.problems.extend(
            gate.check_sweep(
                job["result"], expected, "plan-equivalent", self.cells
            )
        )

    @property
    def exhausted(self) -> bool:
        """True once no unused miss seed is left for another round."""
        return not self.miss_seeds

    def _miss_job(self) -> tuple:
        """A job for an unused miss seed: ``(job, seed)``, unchecked."""
        from repro.experiments.serialization import plan_to_dict

        seed = self.miss_seeds.pop(0)
        plan = wl.make_plan(wl.SERVICE_GRID, seed)
        return self._job(plan_to_dict(plan)), seed

    def _check_miss(self, job, seed) -> None:
        self._check(job, self.miss_reference.get(str(seed)), restored=0)

    def _check_hit(self, job) -> None:
        self._check(job, self.expected, restored=self.cells)
        result = job["result"]
        if result is not None and json.dumps(result.rows()) != (
            self.stored_rows
        ):
            self.problems.append(
                "stored-plan job rows are not byte-identical to the job "
                "that populated the store"
            )

    def rep(self, index: int, traced: bool, clock) -> dict:
        clock.start()
        hits = [self._job(self.stored) for _ in range(wl.HITS_PER_ROUND)]
        clock.mark()
        miss, seed = self._miss_job()
        clock.stop()
        for job in hits:
            self._check_hit(job)
        self._check_miss(miss, seed)
        jobs = [("hit", job) for job in hits] + [("miss", miss)]
        problems, self.problems = self.problems, []
        record = {
            "hit_s": 1e-3 * sum(job["latency_ms"] for job in hits),
            "cells": self.cells * len(jobs),
            "jobs": len(jobs),
            "attempted": sum(job["requests"] for _, job in jobs),
            "failed": sum(job["failed"] for _, job in jobs),
            "latency_ms": [[kind, job["latency_ms"]] for kind, job in jobs],
            "polls": sum(job["polls"] for _, job in jobs),
            "poll_wait_s": sum(job["wait_s"] for _, job in jobs),
            "traced": traced,
            "problems": problems,
        }
        return record


def provenance() -> dict:
    """Machine and resolved-path facts that decide comparability."""
    import numpy
    import scipy

    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for module in ("highspy", "numba"):
        try:
            importlib.import_module(module)
            info[f"{module}_importable"] = True
        except Exception:  # noqa: BLE001 - any import failure means "no"
            info[f"{module}_importable"] = False
    resolvers = (
        ("lp_backend", "repro.utils.lp_backends", "resolve_backend"),
        ("kernel", "repro.framework.kernel", "resolve_kernel"),
    )
    for key, module, function in resolvers:
        try:
            info[key] = getattr(importlib.import_module(module), function)(
                "auto"
            )
        except Exception:  # noqa: BLE001 - the resolver may not exist
            info[key] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="timed seconds this session should measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--launch-calib", type=float, required=True,
                        help="reference-loop seconds just before launch")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    traced = args.trace == 1

    out = {"problems": [], "reps": []}
    workload = None
    # Set-up is timed from the launch, so interpreter start and imports
    # count; the first segment is normalised with the sample run.py took
    # just before launching.  Traced sessions sample the loop only between
    # cells and rounds, never inside a wrapped layer call, so no layer's
    # time includes it.
    timer = not traced
    clock = calib.Clock(args.launch_calib, timer=timer)
    clock.start(at=args.launched)
    try:
        trace = LayerTrace()
        trace.install(timing=traced)
        kind = (
            ServiceWorkload if args.workload == "service-mixed"
            else SweepWorkload
        )
        workload = kind(args.workload, args.seed, args.workdir, trace)
        workload.setup()
        clock.stop()
        out["setup_s"], out["norm_setup_s"] = clock.wall_s, clock.norm_s
        out["setup_layers"] = trace.snapshot()
        before = clock.calib
        if isinstance(workload, ServiceWorkload):
            workload.start_timed()
        trace.reset()

        start = time.perf_counter()
        while True:
            clock = calib.Clock(before, timer=timer and kind is SweepWorkload)
            rep = workload.rep(len(out["reps"]), traced, clock)
            rep["wall_s"], rep["norm_wall_s"] = clock.wall_s, clock.norm_s
            before = clock.calib
            out["reps"].append(rep)
            if getattr(workload, "cold", False):
                break  # a cold repetition needs a fresh interpreter
            if getattr(workload, "exhausted", False):
                break  # every remaining miss job would hit the store
            if time.perf_counter() - start >= args.budget:
                break
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        out["timed_layers"] = trace.snapshot()
        out["missing"] = trace.missing
        out["patched"] = list(trace.patched)
        trace.uninstall()
    except Exception:  # noqa: BLE001 - reported to run.py, which fails
        out["problems"].append(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if workload is not None:
            try:
                out["server"] = workload.close()
            except Exception:  # noqa: BLE001 - same boundary as above
                out["problems"].append(traceback.format_exc())
    if "server" in out and out["server"]:
        out["peak_rss_mb"] = out["server"]["peak_rss_mb"]
    out["provenance"] = provenance()
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 1 if out["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
