"""Batch experiment runners with result records and serialisation.

Wraps many :meth:`IntermittentController.run` episodes over sampled
initial states and disturbance realisations, collects per-episode
records, and exports them as JSON or CSV — the layer the benchmark
harness and user sweeps script against.

Two execution engines share one record format:

* ``BatchRunner(engine="serial")`` — the sequential reference
  implementation (Algorithm 1, one episode at a time);
* ``BatchRunner(engine="lockstep")`` — steps an ``(N, n)`` state matrix
  for all episodes simultaneously (:mod:`repro.framework.lockstep`).

More cores are used one level up: a sweep shards whole grid cells over
forked workers (:func:`repro.experiments.run_sweep`).

Determinism contract: :meth:`BatchRunner.run_seeded` derives one
independent ``numpy.random.Generator`` per episode from a single root
seed via ``SeedSequence.spawn`` — episode ``i`` sees the same stream no
matter which engine runs the batch, so lockstep results are
record-for-record reproducible against serial ones (wall-clock timing
fields excepted; see :data:`DETERMINISTIC_FIELDS`).  Stochastic policies join the contract by
accepting a generator from the factory: a ``policy_factory`` taking one
positional argument receives a per-episode generator spawned from the
same root seed (independent of the disturbance stream); zero-argument
factories keep working unchanged.

One caveat: with a controller that declares ``bitwise_batch = False``
(the stacked-LP :class:`~repro.controllers.rmpc.RobustMPC`), the
lockstep engine is *plan-equivalent* rather than bitwise — pass
``exact_solves=True`` to restore record-for-record parity at
scalar-solve speed (see :mod:`repro.framework.lockstep`).
"""

from __future__ import annotations

import csv
import inspect
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from repro.controllers.base import Controller
from repro.framework.accounting import RunStats
from repro.framework.evaluation import ENGINES, run_episodes
from repro.framework.monitor import SafetyMonitor
from repro.observability import metrics as _obs
from repro.skipping.base import SkippingPolicy
from repro.systems.lti import DiscreteLTISystem

__all__ = [
    "EpisodeRecord",
    "BatchResult",
    "BatchRunner",
    "DETERMINISTIC_FIELDS",
    "spawn_episode_seeds",
]

#: Record fields that are pure functions of (initial state, disturbance
#: realisation): identical between serial and lockstep execution.  The remaining fields are wall-clock measurements and vary
#: run to run.
DETERMINISTIC_FIELDS = (
    "episode",
    "energy",
    "skip_rate",
    "forced_steps",
    "max_violation",
)

#: Fixed entropy tag for per-episode *policy* generator streams in the
#: unseeded :meth:`BatchRunner.run` path, so rng-accepting factories stay
#: engine-invariant even without a root seed (use :meth:`run_seeded` to
#: actually vary them).
_UNSEEDED_POLICY_ROOT = 0x0B5E55ED


def spawn_episode_seeds(root_seed, count: int) -> list:
    """Independent per-episode seed streams from one root seed.

    ``SeedSequence.spawn`` guarantees the children are statistically
    independent and — crucially for the differential harness — that child
    ``i`` depends only on ``(root_seed, i)``, never on scheduling.
    """
    return np.random.SeedSequence(root_seed).spawn(int(count))


def _policy_stream(seed_seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """The episode's policy seed: its first spawned child, derived without
    mutating the shared sequence (pure function of ``(root_seed, episode)``),
    and therefore independent of the disturbance stream drawn from the
    sequence itself."""
    return np.random.SeedSequence(
        entropy=seed_seq.entropy, spawn_key=tuple(seed_seq.spawn_key) + (0,)
    )


def _accepts_rng(factory) -> bool:
    """True iff ``factory`` *requires* a positional argument (the episode rng).

    Opting into the policy seed stream takes a mandatory positional
    parameter (or ``*args``); factories whose positional parameters all
    carry defaults keep being called with no arguments, so pre-existing
    zero-argument factories — including ones with optional knobs like
    ``lambda period=2: …`` — are never handed a generator they did not
    ask for.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
        if (
            parameter.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
            and parameter.default is inspect.Parameter.empty
        ):
            return True
    return False


@dataclass(frozen=True)
class EpisodeRecord:
    """Flat per-episode metrics (JSON/CSV friendly).

    Attributes:
        episode: Episode index within the batch.
        energy: Σ‖u‖₁ over the episode.
        skip_rate: Fraction of skipped steps.
        forced_steps: Monitor-forced steps.
        mean_controller_ms: Mean κ wall-clock where it ran [ms].
        mean_monitor_ms: Mean monitor + Ω wall-clock [ms].
        computation_saving: Sec. IV-A saving ratio for this episode.
        max_violation: Largest safe-set violation over visited states
            (<= 0 means always safe).
    """

    episode: int
    energy: float
    skip_rate: float
    forced_steps: int
    mean_controller_ms: float
    mean_monitor_ms: float
    computation_saving: float
    max_violation: float

    def deterministic_view(self) -> tuple:
        """The scheduling-independent fields (see DETERMINISTIC_FIELDS)."""
        return tuple(getattr(self, name) for name in DETERMINISTIC_FIELDS)


@dataclass
class BatchResult:
    """All records of one batch plus aggregate helpers."""

    records: list = field(default_factory=list)

    def append(self, record: EpisodeRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def mean(self, metric: str) -> float:
        """Mean of a record field across episodes.

        Raises:
            ValueError: On an empty batch (rather than numpy's silent
                ``nan`` + ``RuntimeWarning``).
        """
        if not self.records:
            raise ValueError("empty batch")
        return float(np.mean([getattr(r, metric) for r in self.records]))

    def deterministic_records(self) -> list:
        """Per-episode tuples of the scheduling-independent fields.

        The differential test harness compares these between serial
        and lockstep runs; wall-clock fields are excluded by
        construction.
        """
        return [record.deterministic_view() for record in self.records]

    def to_json(self, path) -> None:
        """Write records as a JSON array (``[]`` for an empty batch)."""
        payload = [asdict(r) for r in self.records]
        Path(path).write_text(json.dumps(payload, indent=2))

    def to_csv(self, path) -> None:
        """Write records as CSV with a header row.

        An empty batch writes the header only, mirroring the ``[]`` that
        :meth:`to_json` produces, so both formats round-trip any batch.
        """
        fieldnames = [f.name for f in fields(EpisodeRecord)]
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for record in self.records:
                writer.writerow(asdict(record))

    @classmethod
    def from_json(cls, path) -> "BatchResult":
        """Load a batch previously saved with :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        result = cls()
        for row in payload:
            result.append(EpisodeRecord(**row))
        return result

    @classmethod
    def from_csv(cls, path) -> "BatchResult":
        """Load a batch previously saved with :meth:`to_csv`."""
        types = {f.name: f.type for f in fields(EpisodeRecord)}
        result = cls()
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                coerced = {
                    name: (int(value) if types[name] == "int" else float(value))
                    for name, value in row.items()
                }
                result.append(EpisodeRecord(**coerced))
        return result


class BatchRunner:
    """Run many monitored episodes and collect :class:`EpisodeRecord` s.

    Args:
        system: The plant.
        controller: Safe controller κ.  It is shared across episodes and
            must return to a pristine state on ``reset()`` (true for the
            library's controllers) so episode results are independent of
            execution order — the property the lockstep engine relies
            on.
        monitor_factory: Zero-argument callable producing a fresh
            :class:`SafetyMonitor` per episode (monitors carry violation
            counters, so sharing one across episodes muddles stats).
        policy_factory: Callable producing the Ω policy.  Zero-argument
            factories are called as before; a factory taking one
            positional argument receives the episode's private
            ``numpy.random.Generator`` (spawned from the root seed,
            independent of the disturbance stream), which is what makes
            stochastic policies engine- and order-invariant.
        skip_input: Constant skip input (default zero).
        memory_length: Disturbance-history length exposed to Ω.
        reveal_future: Pass the realised future to Ω (model-based case).
        engine: ``"serial"`` (the reference loop) or ``"lockstep"``
            (vectorised across episodes; see
            :mod:`repro.framework.lockstep`).
        exact_solves: Lockstep only — route non-bitwise controllers
            (stacked LP solvers like
            :class:`~repro.controllers.rmpc.RobustMPC`) through the
            row-by-row scalar path, trading the stacked-solve speedup
            for bitwise record-for-record parity with the serial engine
            (the default stacked path is *plan-equivalent*; see the
            two-tier contract in :mod:`repro.framework.lockstep`).
    """

    def __init__(
        self,
        system: DiscreteLTISystem,
        controller: Controller,
        monitor_factory: Callable[[], SafetyMonitor],
        policy_factory: Callable[..., SkippingPolicy],
        skip_input=None,
        memory_length: int = 1,
        reveal_future: bool = False,
        engine: str = "serial",
        exact_solves: bool = False,
    ):
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.system = system
        self.controller = controller
        self.monitor_factory = monitor_factory
        self.policy_factory = policy_factory
        self.skip_input = skip_input
        self.memory_length = memory_length
        self.reveal_future = reveal_future
        self.engine = engine
        self.exact_solves = exact_solves
        self._policy_takes_rng = _accepts_rng(policy_factory)

    # ------------------------------------------------------------------
    # Episode execution
    # ------------------------------------------------------------------
    def _record(self, episode: int, stats: RunStats) -> EpisodeRecord:
        """Flatten one episode's stats into a record."""
        return EpisodeRecord(
            episode=episode,
            energy=stats.energy,
            skip_rate=stats.skip_rate,
            forced_steps=stats.forced_steps,
            mean_controller_ms=1e3 * stats.mean_controller_time,
            mean_monitor_ms=1e3 * stats.mean_monitor_time,
            computation_saving=stats.computation_saving(),
            max_violation=stats.max_violation(self.system.safe_set),
        )

    def _policy_provider(self, count: int, seeds=None) -> Callable:
        """``episode -> fresh policy`` under the seed-stream contract.

        Zero-argument factories are simply called.  Rng-accepting
        factories get ``default_rng`` over the episode's policy stream —
        a pure function of ``(root seed, episode)``, so every engine
        builds the identical policy.  ``seeds`` are the episode
        seed sequences of :meth:`run_seeded`; the unseeded :meth:`run`
        derives streams from a fixed module tag instead.
        """
        if not self._policy_takes_rng:
            return lambda episode: self.policy_factory()
        if seeds is None:
            seeds = spawn_episode_seeds(_UNSEEDED_POLICY_ROOT, count)
        return lambda episode: self.policy_factory(
            np.random.default_rng(_policy_stream(seeds[episode]))
        )

    @staticmethod
    def _initial_states(initial_states) -> np.ndarray:
        return np.atleast_2d(np.asarray(initial_states, dtype=float))

    def _execute(
        self, states: np.ndarray, realisation_for: Callable, policy_for: Callable
    ) -> BatchResult:
        """Run every episode through :func:`~repro.framework.evaluation.
        run_episodes`.

        ``realisation_for``/``policy_for`` map an episode index to its
        disturbance array / fresh Ω instance; every engine materialises
        all realisations first (episode order), then all policies.
        """
        reg = _obs.registry()
        reg.inc("batch_runs_total", engine=self.engine)
        reg.inc("batch_episodes_total", len(states), engine=self.engine)
        episodes = range(len(states))
        realisations = [realisation_for(e) for e in episodes]
        policies = [policy_for(e) for e in episodes]
        stats_list = run_episodes(
            self.system,
            self.controller,
            self.monitor_factory,
            policies,
            states,
            realisations,
            engine=self.engine,
            skip_input=self.skip_input,
            memory_length=self.memory_length,
            reveal_future=self.reveal_future,
            exact_solves=self.exact_solves,
        )
        result = BatchResult()
        for episode, stats in enumerate(stats_list):
            result.append(self._record(episode, stats))
        return result

    def run(
        self,
        initial_states,
        disturbance_sampler: Callable[[int], np.ndarray],
    ) -> BatchResult:
        """Run one episode per initial state.

        Args:
            initial_states: ``(N, n)`` array of start states (each must
                lie in the monitor's invariant set).
            disturbance_sampler: ``episode_index -> (T, n)`` realisation.
                Called in episode order exactly once per episode (so a
                sampler closing over a shared generator is reproducible).

        Returns:
            A :class:`BatchResult` with ``N`` records.
        """
        states = self._initial_states(initial_states)
        return self._execute(
            states,
            lambda episode: disturbance_sampler(episode),
            self._policy_provider(len(states)),
        )

    def run_seeded(
        self,
        initial_states,
        disturbance_factory: Callable[[int, np.random.Generator], np.ndarray],
        root_seed,
    ) -> BatchResult:
        """Run a batch under the per-episode seed-stream contract.

        Args:
            initial_states: ``(N, n)`` array of start states.
            disturbance_factory: ``(episode, rng) -> (T, n)`` realisation;
                must draw randomness only from the passed generator.
            root_seed: Root seed; episode ``i`` gets the ``i``-th spawned
                child stream regardless of engine or execution order.
                Rng-accepting policy factories get an independent
                stream derived from the same child.

        Returns:
            A :class:`BatchResult` with ``N`` records in episode order.
        """
        states = self._initial_states(initial_states)
        seeds = spawn_episode_seeds(root_seed, len(states))
        return self._execute(
            states,
            lambda episode: disturbance_factory(
                episode, np.random.default_rng(seeds[episode])
            ),
            self._policy_provider(len(states), seeds=seeds),
        )

