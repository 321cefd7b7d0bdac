"""Seed streams, seeded batches and the fork-based parallel map.

* :class:`BatchRunner` with a fixed root seed is stable and
  seed-sensitive on both engines, keeps episode order, and the unseeded
  ``run()`` consumes a shared generator identically on both engines;
* per-episode seed streams depend only on ``(root seed, episode)``;
* :func:`fork_map` — the process fan-out behind cell-sharded sweeps —
  preserves order, propagates errors and supervises its workers
  (respawn after a kill, timeouts, bounded retries).
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.controllers import LinearFeedback, lqr_gain
from repro.observability import metrics as obs
from repro.utils import chaos
from repro.framework import (
    DETERMINISTIC_FIELDS,
    ENGINES,
    BatchResult,
    BatchRunner,
    SafetyMonitor,
    spawn_episode_seeds,
)
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import AlwaysRunPolicy, AlwaysSkipPolicy
from repro.utils.parallel import fork_available, fork_map, resolve_jobs

ROOT_SEED = 20260730
HORIZON = 25


@pytest.fixture
def di_batch(double_integrator):
    """Double integrator + certified sets + factories for both engines."""
    system = double_integrator
    K = lqr_gain(system.A, system.B, np.eye(2), np.eye(1))
    seed_set = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed_set, system.disturbance_set
    ).invariant_set
    xp = strengthened_safe_set(system, xi)

    def monitor_factory():
        return SafetyMonitor(
            strengthened_set=xp, invariant_set=xi, safe_set=system.safe_set
        )

    lo, hi = system.disturbance_set.bounding_box()

    def disturbance_factory(episode, rng):
        return rng.uniform(lo, hi, size=(HORIZON, system.n))

    controller = LinearFeedback(K)

    def make(cls, policy_factory=AlwaysSkipPolicy, **extra):
        return cls(system, controller, monitor_factory, policy_factory, **extra)

    states = xp.sample(np.random.default_rng(5), 6)
    return make, disturbance_factory, states


class TestDifferentialDeterminism:
    """Seeded-batch properties of :class:`BatchRunner`, on both engines."""

    def test_seed_stability_and_sensitivity(self, di_batch):
        # AlwaysRun so the energy depends on the disturbance realisation.
        make, factory, states = di_batch
        for engine in ENGINES:
            runner = make(
                BatchRunner, policy_factory=AlwaysRunPolicy, engine=engine
            )
            first = runner.run_seeded(states, factory, ROOT_SEED)
            again = runner.run_seeded(states, factory, ROOT_SEED)
            other = runner.run_seeded(states, factory, ROOT_SEED + 1)
            assert first.deterministic_records() == again.deterministic_records()
            assert first.deterministic_records() != other.deterministic_records()

    def test_unseeded_run_parity_with_shared_generator(self, di_batch):
        # The legacy run() API: both engines call a sampler closing over
        # one shared rng in episode order, so they consume the generator
        # identically.
        make, _factory, states = di_batch
        lo, hi = (-0.02, 0.02)

        def sampler_with(rng):
            return lambda episode: rng.uniform(lo, hi, size=(HORIZON, 2))

        serial = make(BatchRunner).run(
            states, sampler_with(np.random.default_rng(11))
        )
        lockstep = make(BatchRunner, engine="lockstep").run(
            states, sampler_with(np.random.default_rng(11))
        )
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_episode_order_preserved(self, di_batch):
        make, factory, states = di_batch
        for engine in ENGINES:
            result = make(BatchRunner, engine=engine).run_seeded(
                states, factory, ROOT_SEED
            )
            assert [r.episode for r in result.records] == list(
                range(len(states))
            )

    def test_deterministic_fields_exclude_wall_clock(self):
        assert "mean_controller_ms" not in DETERMINISTIC_FIELDS
        assert "mean_monitor_ms" not in DETERMINISTIC_FIELDS
        assert "computation_saving" not in DETERMINISTIC_FIELDS
        assert "episode" in DETERMINISTIC_FIELDS

    def test_empty_batch(self, di_batch, tmp_path):
        make, factory, _states = di_batch
        for engine in ENGINES:
            result = make(BatchRunner, engine=engine).run_seeded(
                np.empty((0, 2)), factory, ROOT_SEED
            )
            assert len(result) == 0
            result.to_json(tmp_path / f"{engine}.json")
            result.to_csv(tmp_path / f"{engine}.csv")
            assert len(BatchResult.from_json(tmp_path / f"{engine}.json")) == 0
            assert len(BatchResult.from_csv(tmp_path / f"{engine}.csv")) == 0


class TestSeedStreams:
    def test_spawn_is_pure_function_of_root_and_index(self):
        a = spawn_episode_seeds(123, 5)
        b = spawn_episode_seeds(123, 5)
        for left, right in zip(a, b):
            assert (
                np.random.default_rng(left).integers(1 << 30)
                == np.random.default_rng(right).integers(1 << 30)
            )

    def test_streams_are_distinct_across_episodes(self):
        seeds = spawn_episode_seeds(0, 8)
        draws = {int(np.random.default_rng(s).integers(1 << 62)) for s in seeds}
        assert len(draws) == 8


class TestForkMap:
    def test_order_and_values(self):
        items = list(range(23))
        assert fork_map(lambda x: x * x, items, jobs=4) == [x * x for x in items]

    def test_serial_fallback(self):
        assert fork_map(lambda x: x + 1, [1, 2, 3], jobs=1) == [2, 3, 4]

    def test_closures_survive_fork(self):
        captured = {"offset": 10}
        out = fork_map(lambda x: x + captured["offset"], [1, 2], jobs=2)
        assert out == [11, 12]

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_worker_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("worker-side failure")
            return x

        with pytest.raises(RuntimeError, match="worker-side failure"):
            fork_map(boom, range(6), jobs=2)

    def test_empty_items(self):
        assert fork_map(lambda x: x, [], jobs=4) == []

    def test_resolve_jobs_validation(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_jobs_exceeding_items(self):
        # Worker count is clamped to len(items): no worker ever receives
        # an empty index chunk, and results stay order-correct.
        assert fork_map(lambda x: -x, [4, 5], jobs=16) == [-4, -5]
        assert fork_map(lambda x: -x, [7], jobs=8) == [-7]

    def test_on_result_serial_in_order(self):
        seen = []
        out = fork_map(
            lambda x: x * 2, [3, 1, 2], jobs=1,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert out == [6, 2, 4]
        assert seen == [(0, 6), (1, 2), (2, 4)]

    def test_on_result_empty_items(self):
        seen = []
        assert fork_map(lambda x: x, [], jobs=4,
                        on_result=lambda i, v: seen.append(i)) == []
        assert seen == []

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_on_result_forked_covers_every_item(self):
        seen = []
        items = list(range(9))
        out = fork_map(
            lambda x: x * x, items, jobs=3,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert out == [x * x for x in items]
        # Completion order is worker-interleaved, but every item reports
        # exactly once with its input-order index.
        assert sorted(seen) == [(i, i * i) for i in items]

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_on_result_exception_propagates_and_reaps_workers(self):
        def cb(i, v):
            raise RuntimeError("callback blew up")

        with pytest.raises(RuntimeError, match="callback blew up"):
            fork_map(lambda x: x, range(6), jobs=2, on_result=cb)


@pytest.mark.skipif(not fork_available(), reason="no fork start method")
class TestForkMapSupervision:
    def test_killed_worker_respawns_and_completes(self):
        plan = chaos.FaultPlan(worker_kills=(chaos.WorkerKill(item=1),))
        items = list(range(6))
        with obs.scoped_registry() as reg, chaos.inject(plan):
            out = fork_map(lambda x: x * x, items, jobs=2, backoff=0.0)
        assert out == [x * x for x in items]
        assert reg.value("worker_respawns_total") == 1

    def test_deterministic_kill_exhausts_retries(self):
        plan = chaos.FaultPlan(
            worker_kills=tuple(
                chaos.WorkerKill(item=1, generation=g) for g in (1, 2, 3)
            )
        )
        with chaos.inject(plan):
            with pytest.raises(
                RuntimeError, match=r"gave up after 3 attempts"
            ):
                fork_map(lambda x: x, range(6), jobs=2, backoff=0.0)

    def test_on_item_failure_substitutes_and_map_continues(self):
        plan = chaos.FaultPlan(
            worker_kills=tuple(
                chaos.WorkerKill(item=1, generation=g) for g in (1, 2, 3)
            )
        )
        streamed = []
        with chaos.inject(plan):
            out = fork_map(
                lambda x: x * 10, range(6), jobs=2, backoff=0.0,
                on_result=lambda i, v: streamed.append((i, v)),
                on_item_failure=lambda i, reason: ("sorry", i, reason),
            )
        assert out[1][:2] == ("sorry", 1)
        assert "gave up after 3 attempts" in out[1][2]
        assert [out[i] for i in (0, 2, 3, 4, 5)] == [0, 20, 30, 40, 50]
        # The placeholder streams through on_result like a completion.
        assert sorted(i for i, _ in streamed) == list(range(6))

    def test_hung_worker_is_killed_and_retried(self):
        def slow_on_first_spawn(x):
            if x == 1 and chaos.worker_generation() == 1:
                time.sleep(30)
            return -x

        items = list(range(4))
        with obs.scoped_registry() as reg:
            out = fork_map(
                slow_on_first_spawn, items, jobs=2, timeout=1.0, backoff=0.0
            )
        assert out == [-x for x in items]
        assert reg.value("worker_respawns_total") == 1

    def test_persistent_hang_exhausts_retries_with_timeout_reason(self):
        def always_slow(x):
            if x == 1:
                time.sleep(30)
            return x

        with pytest.raises(RuntimeError, match=r"hung past the 0\.5s"):
            fork_map(
                always_slow, range(4), jobs=2, timeout=0.5,
                max_retries=1, backoff=0.0,
            )

    def test_keyboard_interrupt_reaps_children(self):
        def interrupt(i, v):
            raise KeyboardInterrupt

        def slowish(x):
            time.sleep(0.2)
            return x

        with pytest.raises(KeyboardInterrupt):
            fork_map(slowish, range(8), jobs=2, on_result=interrupt)
        # The finally block must terminate AND join every child — no
        # zombies, no orphans still running.
        assert mp.active_children() == []
