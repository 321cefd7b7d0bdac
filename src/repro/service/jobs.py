"""Job management — the execution layer of the experiment service.

A :class:`JobManager` owns one shared
:class:`~repro.service.store.ResultStore` and a FIFO of submitted sweep
jobs.  Each job is a :class:`~repro.experiments.plan.SweepPlan`
(submitted as JSON over the API, or in-process as a plan object); the
manager partitions its grid into store-hits — served immediately into
the job's row feed — and dirty cells, which it executes via
:func:`~repro.experiments.runner.run_sweep` with every freshly solved
cell streamed into the store *and* the feed the moment it completes.
The reassembled :class:`~repro.experiments.result.SweepResult` has rows
byte-identical to an uncached in-process ``run_sweep`` of the same plan
(the service determinism contract; proven in ``tests/test_service.py``).

Jobs move ``queued → running → done|failed|cancelled``; cell-level
``CellFailure``s under ``on_error="record"``/``"retry"`` surface on the
job without failing it.  Execution defaults to a single worker thread:
jobs run strictly in submission order, which keeps fork-based cell
sharding away from multi-threaded fork hazards and gives each job the
ambient telemetry registry to itself.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
from typing import Dict, List, Optional, Tuple

from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.plan import SweepPlan
from repro.experiments.result import SweepResult
from repro.experiments.runner import run_sweep
from repro.experiments.serialization import plan_from_dict
from repro.observability import metrics as _obs
from repro.service.store import ResultStore

__all__ = ["Job", "JobCancelled", "JobManager", "JOB_STATES"]

logger = logging.getLogger(__name__)

#: Every state a job can report.  Terminal: ``done|failed|cancelled``.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Finished jobs (with their results and rows) a manager keeps; older
#: finished ones are evicted and their ids answer 404.  Queued and
#: running jobs are never evicted.
MAX_FINISHED_JOBS = 256


class JobCancelled(Exception):
    """Raised inside a running sweep to abandon a cancelled job."""


class Job:
    """One submitted sweep: plan, live progress, and (eventually) result.

    All mutation happens on the manager's executor thread; readers (API
    handlers, pollers) see a consistent view through the job's lock.
    """

    def __init__(self, job_id: str, plan: SweepPlan):
        self.id = job_id
        self.plan = plan
        self.state = "queued"
        #: Stable keys of every planned cell, in grid order.
        self.cell_keys: List[str] = [
            cell.key for cell in plan.cells()
        ]
        self.error: Optional[str] = None
        self.result: Optional[SweepResult] = None
        self._rows: List[dict] = []
        self._restored: List[str] = []
        self._cells_done = 0
        self._failures: List[dict] = []
        self._cancel = threading.Event()
        self._lock = threading.Lock()
        self._finished = threading.Event()

    # -- executor-side -------------------------------------------------
    def _feed(self, cell, restored: bool) -> None:
        """Append a finished cell's rows to the feed (executor thread)."""
        if self._cancel.is_set():
            raise JobCancelled(self.id)
        with self._lock:
            self._rows.extend(cell.rows())
            self._cells_done += 1
            if restored:
                self._restored.append(cell.key)

    def _finish(self, state: str, result=None, error=None) -> None:
        with self._lock:
            self.state = state
            self.result = result
            self.error = error
            if result is not None:
                self._failures = [
                    failure.to_dict() for failure in result.failures
                ]
        self._finished.set()

    # -- reader-side ---------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished.wait(timeout)

    def cancel(self) -> bool:
        """Request cancellation; returns False if already terminal.

        A queued job is cancelled immediately; a running one stops at
        its next cell boundary (completed cells stay in the store, so
        nothing solved is lost — a resubmission restores them).
        """
        with self._lock:
            if self.done:
                return False
            self._cancel.set()
            if self.state == "queued":
                self.state = "cancelled"
                self._finished.set()
        return True

    def rows_since(self, cursor: int = 0) -> Tuple[List[dict], int]:
        """``(rows[cursor:], new_cursor)`` — the poll-from-cursor feed.

        Rows appear in completion order (restored cells first, then
        solved cells as they finish); the full-fidelity grid-order view
        is the terminal :attr:`result`.
        """
        with self._lock:
            rows = [dict(row) for row in self._rows[cursor:]]
            return rows, cursor + len(rows)

    def status(self) -> dict:
        """The job's JSON-safe progress/status snapshot."""
        with self._lock:
            return {
                "id": self.id,
                "state": self.state,
                "cells_total": len(self.cell_keys),
                "cells_done": self._cells_done,
                "cells_restored": len(self._restored),
                "rows": len(self._rows),
                "failures": list(self._failures),
                "error": self.error,
            }

    def __repr__(self) -> str:
        return f"Job({self.id!r}, state={self.state!r})"


class JobManager:
    """Shared-store sweep execution behind a submit/poll interface.

    Args:
        store: The shared result store — a directory path or an existing
            :class:`~repro.service.store.ResultStore`.

    Jobs execute one at a time on a dedicated executor thread, in
    submission order; every job reads and writes the one store, so a
    cell solved by any earlier job (or by a checkpointed ``run_sweep``
    pointed at the same directory) is served without re-solving.  Only
    the newest :data:`MAX_FINISHED_JOBS` finished jobs are kept, so
    memory does not grow with the number of jobs served.
    """

    def __init__(self, store):
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self._jobs: Dict[str, Job] = {}  # submission order
        self._ids = itertools.count(1)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run_loop, name="repro-job-executor", daemon=True
        )
        self._worker.start()

    # -- submission ----------------------------------------------------
    def submit(self, payload: dict) -> Job:
        """Submit a plan-as-JSON payload (the API's entry point).

        Raises:
            ValueError: Malformed payload, unknown format version, or a
                non-declarative plan.
        """
        return self.submit_plan(plan_from_dict(payload))

    def submit_plan(self, plan: SweepPlan) -> Job:
        """Submit a plan object directly (in-process client path —
        also the only way to run plans with policy objects)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is shut down")
            job = Job(f"job-{next(self._ids)}", plan)
            self._jobs[job.id] = job
        _obs.registry().inc("service_jobs_total", state="submitted")
        self._queue.put(job)
        logger.info(
            "service: queued %s (%d cells)", job.id, len(job.cell_keys)
        )
        return job

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """Job lookup by id (KeyError for unknown or evicted ids)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """All retained jobs, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job (see :meth:`Job.cancel`)."""
        return self.get(job_id).cancel()

    # -- execution -----------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if not job.done:  # else cancelled while queued
                self._execute(job)
            self._evict_finished()

    def _evict_finished(self) -> None:
        """Forget the oldest finished jobs beyond :data:`MAX_FINISHED_JOBS`."""
        with self._lock:
            finished = [jid for jid, job in self._jobs.items() if job.done]
            for job_id in finished[: max(0, len(finished) - MAX_FINISHED_JOBS)]:
                del self._jobs[job_id]

    def _execute(self, job: Job) -> None:
        with job._lock:
            if job._cancel.is_set():
                return
            job.state = "running"
        try:
            result = run_sweep(
                job.plan,
                checkpoint=SweepCheckpoint(self.store),
                on_cell=lambda cell: job._feed(cell, restored=False),
                on_restored=lambda cell: job._feed(cell, restored=True),
            )
        except JobCancelled:
            job._finish("cancelled")
            _obs.registry().inc("service_jobs_total", state="cancelled")
            logger.info("service: %s cancelled", job.id)
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            job._finish("failed", error=f"{type(exc).__name__}: {exc}")
            _obs.registry().inc("service_jobs_total", state="failed")
            logger.exception("service: %s failed", job.id)
        else:
            job._finish("done", result=result)
            _obs.registry().inc("service_jobs_total", state="done")
            logger.info(
                "service: %s done (%d rows, %d restored, %d failures)",
                job.id, len(result.rows()), len(result.restored),
                len(result.failures),
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) drain the executor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        if wait:
            self._worker.join()

    def __repr__(self) -> str:
        return f"JobManager(store={self.store.directory!r})"
