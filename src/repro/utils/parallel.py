"""Fork-based order-preserving parallel map with worker supervision.

Cell sharding is the one way the project uses more cores: a sweep
(:func:`repro.experiments.run_sweep`, and through it the experiment
service) fans whole grid cells out over worker processes with
:func:`fork_map`.  The episode engines inside a cell run in one process.
:func:`fork_map` uses the ``fork`` start method deliberately:

* the mapped function and its captured objects (plants, controllers,
  polytopes, monitor factories — often lambdas) are *inherited* by the
  children through the process image, never pickled;
* only the per-item return values cross the result pipe, so they are the
  only thing that must be picklable (flat record dataclasses are);
* workers receive interleaved index chunks (``indices[j::jobs]``) so a
  systematic easy/hard gradient across the batch load-balances.

Workers stream one message per finished item, and the parent drains all
pipes concurrently (:func:`multiprocessing.connection.wait`), so an
optional ``on_result`` callback observes progress as items complete —
not only when a whole worker finishes.

Supervision
-----------
The parent is a supervisor, not just a collector.  A worker that dies
without finishing (OOM kill, stray signal, interpreter crash — detected
as EOF on its result pipe) or that hangs past the optional per-item
``timeout`` (killed with SIGKILL) is *respawned* for exactly its
unfinished items, after a short exponential backoff.  Because items are
pure functions of their inputs and completed results were already
streamed, a recovered map returns values identical to an undisturbed
run.  Each item carries a bounded retry budget (``max_retries`` deaths
or timeouts charged against the item a worker was processing); an item
that exhausts it either aborts the map (default) or is replaced by
``on_item_failure``'s synthesised value so the rest of the map can
finish.  Respawns are counted in the ``worker_respawns_total`` telemetry
counter.  A worker that *raises* is different: the exception is relayed
and aborts the map — semantic failures are the caller's to police (the
sweep runner's ``on_error`` modes), not the transport's.

Whatever the exit path — success, a worker error, an ``on_result``
callback exception, ``KeyboardInterrupt`` — every child is terminated
and joined before :func:`fork_map` returns or raises; no zombies, no
orphans.

Deterministic fault injection (:mod:`repro.utils.chaos`) hooks into the
worker loop so every recovery path above is provable by differential
test.

On platforms without ``fork`` (Windows, macOS spawn default) — or with
``jobs=1`` — the map degrades to a plain serial loop with identical
value semantics (supervision and timeouts need workers to supervise),
which is also what keeps results reproducible everywhere.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, List, Optional

from repro.observability import metrics as _obs
from repro.utils import chaos

__all__ = ["fork_map", "fork_available", "resolve_jobs"]

#: Ceiling on a single respawn backoff sleep [s].
_MAX_BACKOFF = 2.0


def fork_available() -> bool:
    """True iff the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a positive worker count.

    ``None`` and 0 mean "one worker per available CPU"; negative values
    are rejected.
    """
    if jobs is None or jobs == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # non-Linux
            return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError("jobs must be None or a positive integer")
    return int(jobs)


@dataclass
class _WorkerState:
    """Parent-side view of one live worker slot."""

    slot: int
    generation: int
    proc: object
    conn: object
    queue: List[int] = field(default_factory=list)
    deadline: Optional[float] = None


def fork_map(
    fn: Callable,
    items: Iterable,
    jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    *,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff: float = 0.05,
    on_item_failure: Optional[Callable[[int, str], object]] = None,
) -> List:
    """Map ``fn`` over ``items`` on supervised forked workers, in order.

    Args:
        fn: One-argument callable.  Closures and lambdas are fine (the
            children are forked, so ``fn`` is never pickled); its return
            value must be picklable.  Re-running ``fn`` on the same item
            must be acceptable — that is how a dead worker's unfinished
            items are recovered.
        items: Finite iterable of inputs (materialised up front).
        jobs: Worker processes; ``None``/0 = one per CPU, 1 = serial.
            Capped at ``len(items)`` so no worker is ever spawned for an
            empty index chunk.
        on_result: Optional ``(index, value)`` progress callback, invoked
            in the *parent* once per completed item.  Under forked
            execution items complete in worker-interleaved order, not
            input order; the returned list is always in input order
            regardless.  The callback must not raise — an exception
            aborts the map (workers are terminated and joined) and
            propagates.
        timeout: Optional per-item wall-clock budget [s].  A worker that
            sends nothing for ``timeout`` seconds is presumed hung on
            its current item: it is SIGKILLed and its unfinished items
            respawn (the hung item is charged one retry).  Unenforceable
            on the serial path.
        max_retries: How many worker deaths/timeouts may be charged to a
            single item before it is given up (each death is charged to
            the item its worker was processing).
        backoff: Base respawn delay [s]; doubles per generation of the
            dying slot, capped at 2 s.
        on_item_failure: Optional ``(index, reason) -> value`` factory.
            When an item exhausts its retries, its result becomes the
            factory's return value (streamed through ``on_result`` like
            a normal completion) and the map continues.  Without it an
            exhausted item aborts the whole map with ``RuntimeError``.

    Returns:
        ``[fn(x) for x in items]`` — same values, same order (with
        ``on_item_failure`` placeholders for given-up items, if any).

    Raises:
        RuntimeError: If any worker raises, or an item exhausts its
            retry budget with no ``on_item_failure``; the message
            carries the first worker-side error.
    """
    work = list(items)
    count = min(resolve_jobs(jobs), len(work))
    if count <= 1 or not fork_available():
        results: List = []
        for index, item in enumerate(work):
            value = fn(item)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results

    ctx = mp.get_context("fork")
    # Interleaved chunks load-balance systematic gradients.  The worker
    # count is clamped to len(work) above, which already makes every
    # chunk non-empty; the filter keeps "no worker without work" true
    # even if the chunking strategy changes.
    chunks = [list(range(j, len(work), count)) for j in range(count)]
    chunks = [chunk for chunk in chunks if chunk]

    def worker(slot, generation, indices, conn):
        chaos.set_worker_context(slot, generation)
        try:
            for i in indices:
                chaos.check_worker_kill(slot, i, generation)
                conn.send(("item", i, fn(work[i])))
            conn.send(("done",))
        except BaseException as exc:  # noqa: BLE001 — relayed to the parent
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except OSError:
                pass
        finally:
            conn.close()

    procs = []  # every process ever spawned, for the final reap
    workers = {}  # conn -> _WorkerState of live workers
    results = [None] * len(work)
    completed = [False] * len(work)
    attempts = [0] * len(work)  # deaths/timeouts charged per item
    errors: List[str] = []

    def launch(slot: int, indices: List[int], generation: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker, args=(slot, generation, indices, child_conn)
        )
        proc.start()
        child_conn.close()
        procs.append(proc)
        workers[parent_conn] = _WorkerState(
            slot=slot,
            generation=generation,
            proc=proc,
            conn=parent_conn,
            queue=list(indices),
            deadline=None if timeout is None else time.monotonic() + timeout,
        )

    def retire(state: _WorkerState) -> None:
        workers.pop(state.conn, None)
        state.conn.close()
        state.proc.join()

    def supervise(state: _WorkerState, reason: str) -> None:
        """A worker died or was killed: charge the in-flight item, then
        respawn the slot for its unfinished remainder (bounded)."""
        retire(state)
        remaining = [i for i in state.queue if not completed[i]]
        if not remaining:
            return
        current = remaining[0]  # chunk order == processing order
        attempts[current] += 1
        if attempts[current] > max_retries:
            message = (
                f"item {current}: {reason} "
                f"(gave up after {attempts[current]} attempts)"
            )
            if on_item_failure is None:
                errors.append(message)
                return
            value = on_item_failure(current, message)
            results[current] = value
            completed[current] = True
            if on_result is not None:
                on_result(current, value)
            remaining = remaining[1:]
            if not remaining:
                return
        _obs.registry().inc("worker_respawns_total")
        if backoff > 0:
            time.sleep(
                min(backoff * (2 ** (state.generation - 1)), _MAX_BACKOFF)
            )
        launch(state.slot, remaining, state.generation + 1)

    for slot, indices in enumerate(chunks):
        launch(slot, indices, 1)

    try:
        # Drain every pipe until its worker reports done (or dies): a
        # worker blocked on a full pipe cannot exit, so continuous
        # draining before join is the deadlock-free order.
        while workers and not errors:
            if timeout is None:
                wait_timeout = None
            else:
                wait_timeout = max(
                    0.0,
                    min(state.deadline for state in workers.values())
                    - time.monotonic(),
                )
            ready = mp_connection.wait(list(workers), timeout=wait_timeout)
            for conn in ready:
                state = workers.get(conn)
                if state is None:
                    continue
                try:
                    message = conn.recv()
                except EOFError:
                    supervise(
                        state,
                        "worker exited without a result (killed or crashed?)",
                    )
                    continue
                if message[0] == "item":
                    _, index, value = message
                    results[index] = value
                    completed[index] = True
                    if index in state.queue:
                        state.queue.remove(index)
                    if timeout is not None:
                        state.deadline = time.monotonic() + timeout
                    if on_result is not None:
                        on_result(index, value)
                elif message[0] == "done":
                    retire(state)
                else:
                    errors.append(message[1])
                    retire(state)
            if timeout is not None:
                # Deadline sweep: a worker silent past the per-item
                # budget is presumed hung — SIGKILL it and recycle its
                # unfinished items (serviced workers were refreshed).
                now = time.monotonic()
                for state in [
                    s for s in workers.values() if s.deadline <= now
                ]:
                    state.proc.kill()
                    state.proc.join()
                    supervise(
                        state,
                        f"worker hung past the {timeout:g}s per-item "
                        "timeout (killed)",
                    )
    finally:
        # Whatever the exit path — success, a relayed worker error, a
        # callback exception, KeyboardInterrupt — no child may outlive
        # the call: terminate survivors, then join (reap) every process
        # ever spawned.
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        for conn in list(workers):
            conn.close()
        workers.clear()
    if errors:
        raise RuntimeError(f"fork_map worker failed: {errors[0]}")
    return results
