"""Differential determinism harness for the lockstep batch engine.

``BatchRunner(engine="lockstep")`` must produce record-for-record
identical deterministic fields to the serial reference for every
built-in controller × policy combination — including stochastic
policies, which join the contract through rng-accepting factories fed
from per-episode seed streams.
"""

import numpy as np
import pytest

from repro import scenarios
from repro.controllers import ConstantController, LinearFeedback, lqr_gain
from repro.controllers.base import Controller
from repro.framework import (
    BatchRunner,
    IntermittentController,
    SafetyMonitor,
    SafetyViolationError,
    lockstep_controller_only,
    run_controller_only,
    run_lockstep,
)
from repro.invariance import maximal_rpi, strengthened_safe_set
from repro.skipping import (
    RUN,
    SKIP,
    AlwaysRunPolicy,
    AlwaysSkipPolicy,
    DecisionContext,
    MarginThresholdPolicy,
    PeriodicSkipPolicy,
    RandomSkipPolicy,
)
from repro.observability import metrics as obs

ROOT_SEED = 20260730
HORIZON = 25


@pytest.fixture
def di_batch(double_integrator):
    """Double integrator + certified sets + factories for the engines."""
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
    return make, disturbance_factory, states, xp


POLICY_FACTORIES = {
    "always_run": AlwaysRunPolicy,
    "always_skip": AlwaysSkipPolicy,
    "periodic": lambda: PeriodicSkipPolicy(3, offset=1),
    "random": lambda rng: RandomSkipPolicy(0.4, rng),
}


class TestLockstepMatchesSerial:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_record_for_record_identical(self, di_batch, policy_name):
        make, factory, states, _xp = di_batch
        policy_factory = POLICY_FACTORIES[policy_name]
        serial = make(BatchRunner, policy_factory).run_seeded(
            states, factory, ROOT_SEED
        )
        lockstep = make(BatchRunner, policy_factory, engine="lockstep").run_seeded(
            states, factory, ROOT_SEED
        )
        assert len(serial) == len(lockstep) == len(states)
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_margin_threshold_policy(self, di_batch):
        make, factory, states, xp = di_batch
        policy_factory = lambda: MarginThresholdPolicy(xp, 0.05)
        serial = make(BatchRunner, policy_factory).run_seeded(
            states, factory, ROOT_SEED
        )
        lockstep = make(BatchRunner, policy_factory, engine="lockstep").run_seeded(
            states, factory, ROOT_SEED
        )
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_engines_agree(self, di_batch):
        make, factory, states, _xp = di_batch
        serial = make(BatchRunner).run_seeded(states, factory, ROOT_SEED)
        lockstep = make(BatchRunner, engine="lockstep").run_seeded(
            states, factory, ROOT_SEED
        )
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_unseeded_run_parity(self, di_batch):
        make, _factory, states, _xp = di_batch

        def sampler_with(rng):
            return lambda episode: rng.uniform(-0.02, 0.02, size=(HORIZON, 2))

        serial = make(BatchRunner).run(states, sampler_with(np.random.default_rng(11)))
        lockstep = make(BatchRunner, engine="lockstep").run(
            states, sampler_with(np.random.default_rng(11))
        )
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_memory_length_and_reveal_future_parity(self, di_batch):
        make, factory, states, _xp = di_batch
        kwargs = dict(memory_length=4, reveal_future=True)
        serial = make(BatchRunner, lambda: PeriodicSkipPolicy(2), **kwargs)
        lockstep = make(
            BatchRunner, lambda: PeriodicSkipPolicy(2), engine="lockstep", **kwargs
        )
        assert (
            serial.run_seeded(states, factory, ROOT_SEED).deterministic_records()
            == lockstep.run_seeded(states, factory, ROOT_SEED).deterministic_records()
        )

    def test_ragged_horizons(self, di_batch):
        """Episodes with different lengths finish independently."""
        make, _factory, states, _xp = di_batch

        def ragged(episode, rng):
            return rng.uniform(-0.02, 0.02, size=(5 + 7 * episode, 2))

        serial = make(BatchRunner).run_seeded(states, ragged, ROOT_SEED)
        lockstep = make(BatchRunner, engine="lockstep").run_seeded(
            states, ragged, ROOT_SEED
        )
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_all_rows_forced_step(self, di_batch):
        """Initial states in XI − X': every row is monitor-forced at t=0,
        so the strengthened-context list is empty — the stateless
        decide_batch path must cope (regression: MarginThreshold crashed
        on an empty batch)."""
        make, factory, _states, xp = di_batch
        runner = make(BatchRunner)
        monitor = runner.monitor_factory()
        candidates = monitor.invariant_set.sample(np.random.default_rng(3), 200)
        outside = candidates[~xp.contains_batch(candidates)]
        assert len(outside) >= 2, "need XI − X' samples for this scenario"
        states = outside[:3]
        for policy_factory in (AlwaysSkipPolicy, lambda: MarginThresholdPolicy(xp, 0.05)):
            serial = make(BatchRunner, policy_factory).run_seeded(
                states, factory, ROOT_SEED
            )
            lockstep = make(BatchRunner, policy_factory, engine="lockstep").run_seeded(
                states, factory, ROOT_SEED
            )
            assert serial.deterministic_records() == lockstep.deterministic_records()
            assert serial.records[0].forced_steps >= 1

    def test_heterogeneous_stateless_policies_fall_back_to_per_row(self, di_batch):
        """`stateless` does not mean interchangeable: differently
        parameterised Periodic policies must keep their own periods."""
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        policies = [PeriodicSkipPolicy(2 + (i % 3)) for i in range(len(states))]
        realisations = [np.zeros((12, 2)) for _ in states]
        batch = run_lockstep(
            runner.system,
            runner.controller,
            [runner.monitor_factory() for _ in states],
            policies,
            states,
            realisations,
        )
        for i, stats in enumerate(batch):
            period = 2 + (i % 3)
            expected = [
                1 if t % period == 0 else 0 for t in range(12)
            ]
            # Forced steps run regardless of the policy's proposal.
            proposal_respected = [
                int(z) == e or bool(f)
                for z, e, f in zip(stats.decisions, expected, stats.forced)
            ]
            assert all(proposal_respected)

    def test_seed_stability_and_sensitivity(self, di_batch):
        make, factory, states, _xp = di_batch
        runner = make(BatchRunner, AlwaysRunPolicy, engine="lockstep")
        first = runner.run_seeded(states, factory, ROOT_SEED)
        again = runner.run_seeded(states, factory, ROOT_SEED)
        other = runner.run_seeded(states, factory, ROOT_SEED + 1)
        assert first.deterministic_records() == again.deterministic_records()
        assert first.deterministic_records() != other.deterministic_records()

    def test_empty_batch(self, di_batch):
        make, factory, _states, _xp = di_batch
        result = make(BatchRunner, engine="lockstep").run_seeded(
            np.empty((0, 2)), factory, ROOT_SEED
        )
        assert len(result) == 0
        with pytest.raises(ValueError, match="empty"):
            result.mean("energy")

    def test_rejects_initial_outside_xi(self, di_batch):
        make, factory, _states, _xp = di_batch
        with pytest.raises(ValueError, match="invariant set"):
            make(BatchRunner, engine="lockstep").run_seeded(
                np.array([[50.0, 50.0]]), factory, ROOT_SEED
            )

    def test_rejected_initial_state_names_its_episode(self, di_batch):
        make, factory, states, _xp = di_batch
        bad = np.vstack([states, [50.0, 50.0]])
        last = len(bad) - 1
        with pytest.raises(ValueError, match=f"episode {last}:"):
            make(BatchRunner, engine="lockstep").run_seeded(
                bad, factory, ROOT_SEED
            )

    def test_engine_name_validation(self, di_batch):
        make, _factory, _states, _xp = di_batch
        with pytest.raises(ValueError, match="engine"):
            make(BatchRunner, engine="warp")


class TestStochasticPolicySeeding:
    """Satellite: rng-accepting factories make stochastic policies
    engine-invariant — every engine builds episode i's policy from the
    same private stream."""

    def test_serial_lockstep_identical(self, di_batch):
        make, factory, states, _xp = di_batch
        pf = lambda rng: RandomSkipPolicy(0.5, rng)
        serial = make(BatchRunner, pf).run_seeded(states, factory, ROOT_SEED)
        lockstep = make(BatchRunner, pf, engine="lockstep").run_seeded(
            states, factory, ROOT_SEED
        )
        assert serial.deterministic_records() == lockstep.deterministic_records()

    def test_policy_streams_differ_across_episodes(self, di_batch):
        make, factory, states, _xp = di_batch
        drawn = []
        pf = lambda rng: drawn.append(rng.integers(1 << 62)) or RandomSkipPolicy(0.5, rng)
        make(BatchRunner, pf).run_seeded(states, factory, ROOT_SEED)
        assert len(set(drawn)) == len(states)

    def test_policy_stream_independent_of_disturbance_stream(self, di_batch):
        make, factory, states, _xp = di_batch
        seen = {}

        def df(episode, rng):
            seen[episode] = rng.integers(1 << 62)
            return np.zeros((HORIZON, 2))

        drawn = {}
        counter = iter(range(len(states)))
        pf = lambda rng: drawn.update({next(counter): rng.integers(1 << 62)}) or AlwaysSkipPolicy()
        make(BatchRunner, pf).run_seeded(states, df, ROOT_SEED)
        for episode in drawn:
            assert drawn[episode] != seen[episode]

    def test_zero_arg_factories_still_work(self, di_batch):
        make, factory, states, _xp = di_batch
        result = make(BatchRunner, AlwaysSkipPolicy).run_seeded(
            states, factory, ROOT_SEED
        )
        assert len(result) == len(states)

    def test_optional_param_factories_stay_zero_arg(self, di_batch):
        """A factory whose positional parameters all have defaults must
        keep being called with no arguments (regression: the rng was
        passed into the optional slot)."""
        make, factory, states, _xp = di_batch
        pf = lambda period=3: PeriodicSkipPolicy(period)
        serial = make(BatchRunner, pf).run_seeded(states, factory, ROOT_SEED)
        lockstep = make(BatchRunner, pf, engine="lockstep").run_seeded(
            states, factory, ROOT_SEED
        )
        reference = make(
            BatchRunner, lambda: PeriodicSkipPolicy(3)
        ).run_seeded(states, factory, ROOT_SEED)
        assert serial.deterministic_records() == reference.deterministic_records()
        assert serial.deterministic_records() == lockstep.deterministic_records()


class TestBatchPrimitives:
    """Row ``i`` of every batch primitive must equal the scalar call."""

    def test_linear_feedback_compute_batch(self, rng):
        K = rng.normal(size=(2, 3))
        controller = LinearFeedback(K, saturation=([-1.0, -1.0], [1.0, 1.0]))
        X = rng.normal(size=(17, 3))
        batch = controller.compute_batch(X)
        for i, x in enumerate(X):
            assert np.array_equal(batch[i], controller.compute(x))

    def test_constant_controller_compute_batch(self):
        controller = ConstantController([0.5, -0.25])
        batch = controller.compute_batch(np.zeros((4, 3)))
        assert batch.shape == (4, 2)
        assert np.array_equal(batch, np.tile([0.5, -0.25], (4, 1)))

    def test_generic_compute_batch_fallback(self, rng):
        class Cubic(Controller):
            input_dim = 1

            def compute(self, state):
                return np.array([float(np.sum(np.asarray(state) ** 3))])

        controller = Cubic()
        X = rng.normal(size=(5, 2))
        batch = controller.compute_batch(X)
        for i, x in enumerate(X):
            assert np.array_equal(batch[i], controller.compute(x))
        assert controller.compute_batch(np.empty((0, 2))).shape == (0, 1)

    def test_step_batch_matches_scalar(self, double_integrator, rng):
        system = double_integrator
        X = rng.normal(size=(9, 2)) * 0.1
        U = rng.normal(size=(9, 1))
        W = rng.normal(size=(9, 2)) * 0.01
        batch = system.step_batch(X, U, W)
        for i in range(9):
            assert np.array_equal(batch[i], system.step(X[i], U[i], W[i]))
        nominal = system.step_batch(X, U)
        for i in range(9):
            assert np.array_equal(nominal[i], system.step(X[i], U[i]))

    def test_step_batch_validates_shapes(self, double_integrator):
        with pytest.raises(ValueError):
            double_integrator.step_batch(np.zeros((3, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            double_integrator.step_batch(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 1)))

    def test_decide_batch_matches_decide(self, di_batch, rng):
        _make, _factory, _states, xp = di_batch
        contexts = [
            DecisionContext(
                time=t,
                state=xp.sample(np.random.default_rng(t), 1)[0],
                past_disturbances=np.zeros((1, 2)),
            )
            for t in range(7)
        ]
        for policy in (
            AlwaysRunPolicy(),
            AlwaysSkipPolicy(),
            PeriodicSkipPolicy(3, offset=2),
            MarginThresholdPolicy(xp, 0.03),
            RandomSkipPolicy(0.5, np.random.default_rng(0)),
        ):
            if isinstance(policy, RandomSkipPolicy):
                # Same stream, fresh generator for the scalar reference.
                scalar = [
                    RandomSkipPolicy(0.5, np.random.default_rng(0)).decide(c)
                    for c in [contexts[0]]
                ]
                assert policy.decide_batch(contexts[:1]).tolist() == scalar
                continue
            batch = policy.decide_batch(contexts)
            assert batch.tolist() == [policy.decide(c) for c in contexts]
            assert set(batch.tolist()) <= {RUN, SKIP}

    def test_stateless_flags(self, di_batch):
        _make, _factory, _states, xp = di_batch
        assert AlwaysRunPolicy.stateless
        assert AlwaysSkipPolicy.stateless
        assert PeriodicSkipPolicy(2).stateless
        assert MarginThresholdPolicy(xp, 0.1).stateless
        assert not RandomSkipPolicy(0.5, np.random.default_rng(0)).stateless


class TestLockstepControllerOnly:
    def test_matches_serial_controller_only(self, di_batch, rng):
        make, _factory, states, _xp = di_batch
        system = make(BatchRunner).system
        controller = make(BatchRunner).controller
        realisations = [
            rng.uniform(-0.02, 0.02, size=(HORIZON, 2)) for _ in states
        ]
        batch = lockstep_controller_only(system, controller, states, realisations)
        for x0, W, stats in zip(states, realisations, batch):
            reference = run_controller_only(system, controller, x0, W)
            assert np.array_equal(stats.states, reference.states)
            assert np.array_equal(stats.inputs, reference.inputs)
            assert stats.energy == reference.energy
            assert np.all(stats.decisions == 1)

    def test_empty(self, di_batch):
        make, _factory, _states, _xp = di_batch
        runner = make(BatchRunner)
        assert lockstep_controller_only(
            runner.system, runner.controller, np.empty((0, 2)), []
        ) == []


def assert_runs_equal(left, right):
    """Every deterministic :class:`RunStats` field equal, bit for bit."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.forced, b.forced)
        assert np.array_equal(a.disturbances, b.disturbances)


def serial_runs(system, controller, monitors, policies, states, realisations, **kw):
    """The serial oracle: one Algorithm-1 loop per episode."""
    return [
        IntermittentController(system, controller, monitor, policy, **kw).run(x0, w)
        for monitor, policy, x0, w in zip(monitors, policies, states, realisations)
    ]


@pytest.fixture
def di_sets(double_integrator, di_feedback):
    """Double integrator, saturated LQR feedback, XI and X', and a
    monitor factory with a selectable ``strict`` flag."""
    system = double_integrator
    K = di_feedback.K
    seed_set = system.safe_set.intersect(system.input_set.linear_preimage(K))
    xi = maximal_rpi(
        system.closed_loop_matrix(K), seed_set, system.disturbance_set
    ).invariant_set
    xp = strengthened_safe_set(system, xi)

    def monitors(count, strict=True):
        return [
            SafetyMonitor(
                strengthened_set=xp, invariant_set=xi,
                safe_set=system.safe_set, strict=strict,
            )
            for _ in range(count)
        ]

    def realisations(count, horizon, seed):
        rng = np.random.default_rng(seed)
        lo, hi = system.disturbance_set.bounding_box()
        return [rng.uniform(lo, hi, size=(horizon, system.n)) for _ in range(count)]

    return system, di_feedback, monitors, realisations, xi


def _zero_input(system):
    return ConstantController(np.zeros(system.m))


def _destabilising(system):
    return LinearFeedback(-lqr_gain(system.A, system.B, np.eye(2), np.eye(1)))


#: Controllers that drive episodes out of XI under AlwaysRun.
LEAKY_CONTROLLERS = {"zero_input": _zero_input, "destabilising": _destabilising}


class TestViolationParity:
    """Episodes that leave XI: lockstep and the serial loop count the
    same violations (non-strict) and both abort (strict)."""

    @pytest.mark.parametrize("name", sorted(LEAKY_CONTROLLERS))
    def test_non_strict_violation_counts(self, di_sets, name):
        system, _c, monitors, realisations, xi = di_sets
        controller = LEAKY_CONTROLLERS[name](system)
        states = xi.sample(np.random.default_rng(7), 4)
        W = realisations(len(states), 40, 11)
        serial_monitors = monitors(len(states), strict=False)
        serial = serial_runs(
            system, controller, serial_monitors,
            [AlwaysRunPolicy() for _ in states], states, W,
        )
        lockstep_monitors = monitors(len(states), strict=False)
        lockstep = run_lockstep(
            system, controller, lockstep_monitors,
            [AlwaysRunPolicy() for _ in states], states, W,
        )
        assert_runs_equal(serial, lockstep)
        counts = [m.violations for m in serial_monitors]
        assert counts == [m.violations for m in lockstep_monitors]
        assert sum(counts) > 0, "scenario must actually violate"

    def test_strict_abort_parity(self, di_sets):
        """A batch raises under both engines or under neither (which
        episode is named may differ: serial is episode-major)."""
        system, _c, monitors, realisations, xi = di_sets
        controller = _destabilising(system)
        states = xi.sample(np.random.default_rng(7), 5)
        W = realisations(len(states), 60, 11)
        for monitor, x0, w in zip(monitors(len(states)), states, W):
            runner = IntermittentController(
                system, controller, monitor, AlwaysRunPolicy()
            )
            with pytest.raises(SafetyViolationError):
                runner.run(x0, w)
        lockstep_monitors = monitors(len(states))
        with pytest.raises(SafetyViolationError, match="left the robust"):
            run_lockstep(
                system, controller, lockstep_monitors,
                [AlwaysRunPolicy() for _ in states], states, W,
            )
        assert sum(m.violations for m in lockstep_monitors) >= 1

    def test_saturated_controller_only_parity(self, di_sets):
        system, controller, _m, realisations, xi = di_sets
        states = xi.sample(np.random.default_rng(5), 6)
        W = realisations(len(states), HORIZON, 20260807)
        batch = lockstep_controller_only(system, controller, states, W)
        serial = [
            run_controller_only(system, controller, x0, w)
            for x0, w in zip(states, W)
        ]
        assert_runs_equal(serial, batch)
        assert all(stats.decisions.all() for stats in batch)


class TestScenarioZooParity:
    """Serial ≡ lockstep, record for record, on every registered scenario.

    ``exact_solves=True`` keeps RMPC scenarios on the scalar path (the
    bitwise tier); monitors are non-strict so any excursion becomes a
    counted violation that must match across engines too.
    """

    CASES = 3
    STEPS = 15

    @pytest.mark.parametrize("name", scenarios.list_scenarios())
    def test_serial_lockstep_parity(self, name):
        case = scenarios.build(name)
        states = case.sample_initial_states(np.random.default_rng(1), self.CASES)
        factory = case.disturbance_factory(self.STEPS)
        realisations = [
            factory(e, np.random.default_rng(100 + e)) for e in range(self.CASES)
        ]
        serial_monitors = [case.make_monitor(strict=False) for _ in states]
        serial = serial_runs(
            case.system, case.controller, serial_monitors,
            [PeriodicSkipPolicy(2) for _ in states], states, realisations,
            skip_input=case.skip_input,
        )
        lockstep_monitors = [case.make_monitor(strict=False) for _ in states]
        lockstep = run_lockstep(
            case.system, case.controller, lockstep_monitors,
            [PeriodicSkipPolicy(2) for _ in states], states, realisations,
            skip_input=case.skip_input, exact_solves=True,
        )
        assert_runs_equal(serial, lockstep)
        assert [m.violations for m in serial_monitors] == [
            m.violations for m in lockstep_monitors
        ]


class TestRunLockstepValidation:
    def test_mismatched_monitor_policy_counts(self, di_batch):
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        with pytest.raises(ValueError, match="per episode"):
            run_lockstep(
                runner.system,
                runner.controller,
                [runner.monitor_factory()],
                [AlwaysSkipPolicy()] * len(states),
                states,
                [np.zeros((3, 2))] * len(states),
            )

    def test_memory_length_validation(self, di_batch):
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        with pytest.raises(ValueError, match="memory_length"):
            run_lockstep(
                runner.system,
                runner.controller,
                [runner.monitor_factory() for _ in states],
                [AlwaysSkipPolicy() for _ in states],
                states,
                [np.zeros((3, 2))] * len(states),
                memory_length=0,
            )

    def test_rejects_heterogeneous_monitors(self, di_batch):
        """Monitors over different set objects would silently be
        classified against episode 0's sets — must raise instead."""
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        monitors = [runner.monitor_factory() for _ in states]
        shrunk = monitors[1].strengthened_set.scale(0.5)
        monitors[1] = SafetyMonitor(
            strengthened_set=shrunk,
            invariant_set=monitors[1].invariant_set,
            safe_set=monitors[1].safe_set,
        )
        with pytest.raises(ValueError, match="share one set configuration"):
            run_lockstep(
                runner.system,
                runner.controller,
                monitors,
                [AlwaysSkipPolicy() for _ in states],
                states,
                [np.zeros((3, 2))] * len(states),
            )


class TestContextFreeFastPath:
    """The wants_context = False protocol (ROADMAP: skip per-row
    DecisionContext materialisation for context-blind policies)."""

    def test_builtin_flags(self):
        assert AlwaysRunPolicy.wants_context is False
        assert AlwaysSkipPolicy.wants_context is False
        assert PeriodicSkipPolicy.wants_context is False
        assert MarginThresholdPolicy.wants_context is True
        assert RandomSkipPolicy.wants_context is True

    @pytest.mark.parametrize(
        "policy",
        [
            AlwaysRunPolicy(),
            AlwaysSkipPolicy(),
            PeriodicSkipPolicy(3, offset=1),
            PeriodicSkipPolicy(1),
        ],
        ids=["always_run", "always_skip", "periodic31", "periodic1"],
    )
    def test_decide_batch_at_matches_decide_batch(self, policy):
        for t in range(7):
            contexts = [
                DecisionContext(
                    time=t,
                    state=np.array([0.1 * i, -0.2]),
                    past_disturbances=np.zeros((1, 2)),
                )
                for i in range(4)
            ]
            assert np.array_equal(
                policy.decide_batch_at(t, 4), policy.decide_batch(contexts)
            )

    def test_base_default_raises(self):
        class Claims(AlwaysSkipPolicy):
            decide_batch_at = (
                __import__("repro.skipping.base", fromlist=["SkippingPolicy"])
                .SkippingPolicy.decide_batch_at
            )

        with pytest.raises(NotImplementedError, match="decide_batch_at"):
            Claims().decide_batch_at(0, 3)

    def test_lockstep_materialises_no_contexts(self, di_batch, monkeypatch):
        """With a context-free policy the engine must never construct a
        DecisionContext — the whole point of the fast path."""
        import repro.framework.lockstep as lockstep_module

        class Forbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError("DecisionContext built on the fast path")

        monkeypatch.setattr(lockstep_module, "DecisionContext", Forbidden)
        make, factory, states, _xp = di_batch
        result = make(
            BatchRunner, lambda: PeriodicSkipPolicy(2), engine="lockstep"
        ).run_seeded(states, factory, ROOT_SEED)
        assert len(result) == len(states)

    def test_lockstep_still_builds_contexts_when_wanted(
        self, di_batch, monkeypatch
    ):
        """A context-reading policy must keep receiving real contexts."""
        import repro.framework.lockstep as lockstep_module

        built = []
        original = lockstep_module.DecisionContext

        def counting(*args, **kwargs):
            context = original(*args, **kwargs)
            built.append(context)
            return context

        monkeypatch.setattr(lockstep_module, "DecisionContext", counting)
        make, factory, states, xp = di_batch
        make(
            BatchRunner,
            lambda: MarginThresholdPolicy(xp, 0.01),
            engine="lockstep",
        ).run_seeded(states, factory, ROOT_SEED)
        assert built, "wants_context=True policy saw no contexts"

    def test_fast_path_identical_to_contextful_variant(self, di_batch):
        """Forcing the slow path on a context-free policy cannot change
        a single record."""

        class SlowPeriodic(PeriodicSkipPolicy):
            wants_context = True

        make, factory, states, _xp = di_batch
        fast = make(
            BatchRunner, lambda: PeriodicSkipPolicy(3), engine="lockstep"
        ).run_seeded(states, factory, ROOT_SEED)
        slow = make(
            BatchRunner, lambda: SlowPeriodic(3), engine="lockstep"
        ).run_seeded(states, factory, ROOT_SEED)
        assert fast.deterministic_records() == slow.deterministic_records()


class _WindowRecorder:
    """Stateless context-reading policy that logs every decision window."""

    stateless = True
    wants_context = True

    def __init__(self, log):
        self.log = log

    def reset(self):
        pass

    def decide(self, context):
        self.log.append((context.time, context.past_disturbances.copy()))
        return RUN

    def decide_batch(self, contexts):
        for context in contexts:
            self.log.append((context.time, context.past_disturbances.copy()))
        return np.full(len(contexts), RUN, dtype=int)


class TestRingBufferHistory:
    """The ring-buffer disturbance history must hand out exactly the
    chronological ``r``-windows the rolling-copy implementation did
    (satellite regression for the fused per-step pipeline)."""

    MEMORY = 4
    STEPS = 11

    def _setup(self, di_batch):
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        rng = np.random.default_rng(77)
        realisations = [
            rng.uniform(-0.02, 0.02, size=(self.STEPS, 2))
            for _ in range(len(states))
        ]
        return runner, states, realisations

    def test_windows_match_serial_and_expectation(self, di_batch):
        from repro.framework import IntermittentController

        runner, states, realisations = self._setup(di_batch)
        count = len(states)

        shared_log = []
        shared = _WindowRecorder(shared_log)
        run_lockstep(
            runner.system,
            runner.controller,
            [runner.monitor_factory() for _ in range(count)],
            [shared] * count,
            states,
            realisations,
            memory_length=self.MEMORY,
        )
        # With every row free and RUN each step, decide_batch sees the
        # episodes in index order: entry t*count + i belongs to (t, i).
        per_time = {}
        for time_index, window in shared_log:
            per_time.setdefault(time_index, []).append(window)
        assert set(per_time) == set(range(self.STEPS))
        assert all(len(v) == count for v in per_time.values())

        for episode in range(count):
            serial_log = []
            serial = IntermittentController(
                runner.system,
                runner.controller,
                runner.monitor_factory(),
                _WindowRecorder(serial_log),
                memory_length=self.MEMORY,
            )
            serial.run(states[episode], realisations[episode])
            assert len(serial_log) == self.STEPS
            for t, serial_window in serial_log:
                lockstep_window = per_time[t][episode]
                assert np.array_equal(serial_window, lockstep_window)
                # explicit expectation: last r disturbances, zero-padded
                expected = np.zeros((self.MEMORY, 2))
                w = realisations[episode][max(0, t - self.MEMORY + 1) : t + 1]
                expected[self.MEMORY - len(w) :] = w
                assert np.array_equal(lockstep_window, expected)

    def test_memory_one_unchanged(self, di_batch):
        runner, states, realisations = self._setup(di_batch)
        log = []
        shared = _WindowRecorder(log)
        run_lockstep(
            runner.system,
            runner.controller,
            [runner.monitor_factory() for _ in states],
            [shared] * len(states),
            states,
            realisations,
            memory_length=1,
        )
        for t, window in log:
            assert window.shape == (1, 2)


class TestStageClock:
    """One clock per lockstep stage boundary gives both the per-row
    timing arrays and the telemetry stage totals."""

    @staticmethod
    def _realisations(states):
        rng = np.random.default_rng(13)
        return [rng.uniform(-0.02, 0.02, size=(HORIZON, 2)) for _ in states]

    def test_monitored_timing_where_stages_ran(self, di_batch):
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        realisations = self._realisations(states)
        with obs.scoped_registry(enabled=True) as reg:
            stats_list = run_lockstep(
                runner.system,
                runner.controller,
                [runner.monitor_factory() for _ in states],
                [PeriodicSkipPolicy(2) for _ in states],
                states,
                realisations,
            )
        for stats in stats_list:
            assert (stats.decisions == 0).any()
            np.testing.assert_array_equal(
                stats.controller_seconds > 0, stats.decisions == 1
            )
            assert (stats.monitor_seconds > 0).all()

        def stage(name):
            return reg.total("lockstep_stage_seconds", stage=name, mode="monitored")

        # The rows' amortised shares add back up to the stage totals
        # (a step where κ runs on no row is charged to ``control`` only).
        assert sum(s.monitor_seconds.sum() for s in stats_list) == pytest.approx(
            stage("classify") + stage("decide"), rel=1e-9
        )
        assert sum(
            s.controller_seconds.sum() for s in stats_list
        ) <= stage("control") * (1 + 1e-9)

    def test_controller_only_timing_every_step(self, di_batch):
        make, _factory, states, _xp = di_batch
        runner = make(BatchRunner)
        with obs.scoped_registry(enabled=True) as reg:
            stats_list = lockstep_controller_only(
                runner.system, runner.controller, states,
                self._realisations(states),
            )
        for stats in stats_list:
            assert (stats.controller_seconds > 0).all()
            assert not stats.monitor_seconds.any()
        assert sum(
            s.controller_seconds.sum() for s in stats_list
        ) == pytest.approx(
            reg.total(
                "lockstep_stage_seconds", stage="control",
                mode="controller_only",
            ),
            rel=1e-9,
        )

    def test_runner_records_controller_time(self, di_batch):
        make, factory, states, _xp = di_batch
        batch = make(
            BatchRunner, lambda: PeriodicSkipPolicy(2), engine="lockstep"
        ).run_seeded(states, factory, ROOT_SEED)
        assert all(r.mean_controller_ms > 0.0 for r in batch.records)
        assert all(r.mean_monitor_ms > 0.0 for r in batch.records)
