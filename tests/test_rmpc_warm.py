"""The warm-started stacked κ_R against cold references.

"Agree" tests in the fast-vs-reference style: the warm persistent stacked
solve must attain the cold scalar solve's optimal cost (1e-9 relative)
with a first input in ``U`` on zoo state sequences and on state sequences
drawn by hypothesis, and a warm lockstep run must stay violation-free.
Without the bundled core a stacked request must equal ``k`` scalar
solves bitwise, and ``reset()`` must make a run's results independent of
earlier runs.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.controllers import RMPCInfeasibleError, RobustMPC
from repro.framework import run_lockstep
from repro.experiments import (
    ExecutionConfig,
    ExperimentSpec,
    ParameterAxis,
    SweepPlan,
    run_experiment,
    run_sweep,
)
from repro.observability import metrics as obs
from repro.scenarios import builder
from repro.skipping import AlwaysRunPolicy, AlwaysSkipPolicy
from repro.utils import lp

ZOO = ("thermal", "pendulum", "acc")
COST_RTOL = 1e-9
INPUT_TOL = 1e-7


def _controller(name):
    case = scenarios.build(name)
    case.controller.reset()
    return case, case.controller


def _assert_agrees(mpc, states, warm):
    """Each warm plan attains the cold scalar optimum, ``u(0) ∈ U``."""
    for x, sol in zip(states, warm):
        cold = mpc.solve(x)
        assert abs(sol.cost - cold.cost) <= COST_RTOL * max(1.0, abs(cold.cost))
        assert mpc.system.input_set.contains(sol.inputs[0], tol=INPUT_TOL)


@pytest.mark.parametrize("name", ZOO)
def test_warm_agrees_with_cold_scalar_on_zoo_sequences(name):
    """Closed-loop batches: each step's batch is the previous step's
    warm inputs applied under sampled disturbances."""
    case, mpc = _controller(name)
    rng = np.random.default_rng(17)
    states = case.sample_initial_states(rng, 6)
    for _ in range(10):
        warm = mpc.solve_batch(states)
        _assert_agrees(mpc, states, warm)
        inputs = np.stack([sol.inputs[0] for sol in warm])
        noise = mpc.system.disturbance_set.sample(rng, len(states))
        states = mpc.system.step_batch(states, inputs, noise)
    assert mpc._persistent_solver().warm_solves > 0
    mpc.reset()


def _into(region, center, unit_points):
    """Map unit-cube points into ``region``: scale into its bounding box,
    then pull each one toward ``center`` until it is strictly inside."""
    lo, hi = region.bounding_box()
    points = lo + np.asarray(unit_points) * (hi - lo)
    out = []
    for p in points:
        d = region.H @ (p - center)
        slack = region.h - region.H @ center
        limits = slack[d > 0] / d[d > 0]
        t = min(1.0, 0.99 * limits.min()) if limits.size else 1.0
        out.append(center + t * (p - center))
    return np.array(out)


@pytest.mark.parametrize("name", ZOO)
def test_warm_agrees_with_cold_scalar_on_hypothesis_sequences(name):
    case, mpc = _controller(name)
    region = case.invariant_set
    center, _radius = region.chebyshev_center()
    n = mpc.system.n
    unit = st.floats(0.0, 1.0, allow_nan=False)
    batch = st.lists(st.lists(unit, min_size=n, max_size=n),
                     min_size=2, max_size=6)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(batch, min_size=1, max_size=4))
    def check(sequence):
        mpc.reset()
        for unit_points in sequence:
            states = _into(region, center, unit_points)
            _assert_agrees(mpc, states, mpc.solve_batch(states))

    try:
        check()
    finally:
        mpc.reset()


@pytest.mark.parametrize("name", ZOO)
def test_warm_lockstep_is_violation_free(name):
    result = run_experiment(
        ExperimentSpec(scenario=name, num_cases=6, horizon=15, seed=4),
        ExecutionConfig(engine="lockstep"),
    )
    assert result.stats("baseline").solver["stacked_solves"] > 0
    for row in result.rows():
        assert row["max_violation"] <= 0.0


def _fresh_controller(mpc):
    return RobustMPC(
        mpc.system, horizon=mpc.horizon, state_weight=mpc.state_weight,
        input_weight=mpc.input_weight, terminal_set=mpc.terminal_set,
    )


def _same_plans(left, right):
    for a, b in zip(left, right):
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.cost == b.cost


class TestWarmFailure:
    def test_failed_warm_solve_leaves_no_state(self):
        case, mpc = _controller("pendulum")
        rng = np.random.default_rng(3)
        try:
            for _ in range(3):
                mpc.solve_batch(case.sample_initial_states(rng, 4))
            bad = case.sample_initial_states(rng, 4)
            bad[2] = 50.0 * np.ones(mpc.system.n)  # far outside X_F
            with pytest.raises(RMPCInfeasibleError, match="batch row 2"):
                mpc.solve_batch(bad)
            states = case.sample_initial_states(rng, 4)
            _same_plans(
                mpc.solve_batch(states),
                _fresh_controller(mpc).solve_batch(states),
            )
        finally:
            mpc.reset()

    def test_demoted_residual_takes_the_scalar_fallback(self, monkeypatch):
        """A stacked point failing linprog's residual check is not used:
        the rows are re-solved scalar."""
        case, mpc = _controller("thermal")
        scalar_rows = mpc._A_ub.shape[0]
        checked = lp.HighsModel._checked

        def demote_stacked(self):
            outcome = checked(self)
            if self.rows_ub > scalar_rows:  # only the stacked model
                return outcome._replace(status=4)
            return outcome

        monkeypatch.setattr(lp.HighsModel, "_checked", demote_stacked)
        states = case.sample_initial_states(np.random.default_rng(8), 3)
        try:
            with obs.scoped_registry() as reg:
                batch = mpc.solve_batch(states)
                assert reg.total("rmpc_stacked_fallbacks_total") == 1
            for x, sol in zip(states, batch):
                scalar = mpc.solve(x)
                assert sol.inputs.tobytes() == scalar.inputs.tobytes()
                assert sol.cost == scalar.cost
        finally:
            mpc.reset()


def test_without_the_core_stacked_solves_go_through_linprog(monkeypatch):
    """Without the bundled core a stacked request is the scalar loop:
    bitwise ``k`` :meth:`solve` calls, each through ``linprog``."""
    case, mpc = _controller("thermal")
    states = case.sample_initial_states(np.random.default_rng(6), 4)
    monkeypatch.setattr(lp, "_core", None)
    with obs.scoped_registry() as reg:
        batch = mpc.solve_batch(states)
        assert reg.total(lp.FALLBACK_METRIC, path="scalar") == 4
        assert reg.total(lp.LP_SOLVES_METRIC, path="persistent") == 0
        assert reg.total("rmpc_solves_total", path="scalar") == 4
        assert reg.total("rmpc_solves_total", path="stacked") == 0
    assert mpc.solve_count == 4
    _same_plans(batch, [mpc.solve(x) for x in states])
    mpc.reset()


class TestHistoryFree:
    """``reset()`` at the start of every run makes a sweep's rows depend
    only on its own plan: alone, after another plan in the same process,
    and sharded over forked workers."""

    @staticmethod
    def _plan(seed, cases=6):
        return SweepPlan.for_scenarios(
            ["thermal", "pendulum"],
            axes=(ParameterAxis("horizon", (4,)),),
            execution=ExecutionConfig(engine="lockstep", jobs=1),
            num_cases=cases,
            horizon=15,
            seed=seed,
        )

    def test_rows_do_not_depend_on_earlier_runs(self, monkeypatch):
        monkeypatch.setattr(builder, "_CACHE", {})  # fresh controllers
        plan = self._plan(seed=11)
        alone = run_sweep(plan).deterministic_rows()
        run_sweep(self._plan(seed=12, cases=5))
        after_other = run_sweep(plan).deterministic_rows()
        sharded = run_sweep(
            plan, ExecutionConfig(engine="lockstep", jobs=2)
        ).deterministic_rows()
        assert after_other == alone
        assert sharded == alone


def test_each_thread_solves_on_its_own_models():
    """Concurrent runs on one cached controller must not share warm
    state: each thread gets its own persistent solver, and a reset in
    one thread leaves another's alone."""
    case, mpc = _controller("thermal")
    states = case.sample_initial_states(np.random.default_rng(2), 4)
    mpc.solve_batch(states)
    mine = mpc._persistent_solver()
    theirs = []

    def other_run():
        mpc.reset()
        mpc.solve_batch(states)
        mpc.solve_batch(states)
        theirs.append(mpc._persistent_solver())

    thread = threading.Thread(target=other_run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert theirs and theirs[0] is not mine
    assert theirs[0].warm_solves == 1
    mpc.solve_batch(states)
    assert mine.warm_solves == 1
    mpc.reset()


class TestOneRowRoute:
    """A one-row batch runs on the persistent model; the scalar entry
    points stay cold."""

    @pytest.mark.parametrize("name", ZOO)
    def test_one_row_attains_the_cold_optimum(self, name):
        case, mpc = _controller(name)
        rng = np.random.default_rng(21)
        try:
            with obs.scoped_registry() as reg:
                mpc.solve_batch(case.sample_initial_states(rng, 5))
                states = case.sample_initial_states(rng, 6)
                for x in states:
                    _assert_agrees(mpc, [x], mpc.solve_batch(x[None, :]))
                assert reg.total(lp.LP_SOLVES_METRIC, path="persistent") == 7
                assert reg.total("rmpc_solves_total", path="stacked") == 11
            # The first batch after reset() is one row: a one-block model.
            mpc.reset()
            _assert_agrees(mpc, states[:1], mpc.solve_batch(states[:1]))
            assert mpc._persistent_solver()._capacity == 1
        finally:
            mpc.reset()

    def test_infeasible_single_row_is_named(self):
        case, mpc = _controller("pendulum")
        try:
            mpc.solve_batch(case.sample_initial_states(
                np.random.default_rng(5), 3
            ))
            with obs.scoped_registry() as reg:
                with pytest.raises(RMPCInfeasibleError, match="batch row 0"):
                    mpc.solve_batch(50.0 * np.ones((1, mpc.system.n)))
                assert reg.total("rmpc_stacked_fallbacks_total") == 1
            assert mpc._persistent_solver()._model is None
        finally:
            mpc.reset()

    def test_scalar_routes_make_no_persistent_solve(self):
        case, mpc = _controller("thermal")
        x = case.sample_initial_states(np.random.default_rng(9), 1)[0]
        with obs.scoped_registry() as reg:
            mpc.solve(x)
            mpc.compute(x)
            assert mpc.is_feasible(x)
            for execution in (
                ExecutionConfig(engine="serial"),
                ExecutionConfig(engine="lockstep", exact_solves=True),
            ):
                run_experiment(
                    ExperimentSpec(scenario="thermal", num_cases=3,
                                   horizon=6, seed=2),
                    execution,
                )
            assert reg.total(lp.LP_SOLVES_METRIC, path="persistent") == 0
            assert reg.total("lp_persistent_model_builds_total") == 0
            assert reg.total(lp.LP_SOLVES_METRIC, path="scalar") > 0


@pytest.mark.parametrize("name", ["thermal", "pendulum"])
@pytest.mark.parametrize("policy", [AlwaysRunPolicy, AlwaysSkipPolicy])
def test_lockstep_rerun_equals_a_fresh_controller(name, policy):
    """``run_lockstep`` twice on one controller gives records bitwise
    equal to a run on a freshly built controller: the second run's cold
    starts — on the model the first run kept, when the capacity matches
    (always, when every row runs every step) — leave no trace."""
    case, mpc = _controller(name)
    rng = np.random.default_rng(44)
    states = case.sample_initial_states(rng, 6, region="invariant")
    realisations = [
        mpc.system.disturbance_set.sample(rng, 12) for _ in states
    ]

    def run(controller):
        stats = run_lockstep(
            mpc.system, controller,
            [case.make_monitor() for _ in states],
            [policy() for _ in states], states, realisations,
            skip_input=case.skip_input,
        )
        return [
            tuple(getattr(s, field).tobytes() for field in
                  ("states", "inputs", "decisions", "forced"))
            for s in stats
        ]

    try:
        first = run(mpc)
        passes = lp.PersistentStackSolver.model_passes
        second = run(mpc)
        reused = lp.PersistentStackSolver.model_passes == passes
        fresh = run(_fresh_controller(mpc))
    finally:
        mpc.reset()
    assert first == second == fresh
    if policy is AlwaysRunPolicy:
        assert reused
