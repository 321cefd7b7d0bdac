"""Differential tests for the batched (stacked block-diagonal) RMPC path.

The two-tier determinism contract under test:

* ``RobustMPC.solve_batch`` / ``compute_batch`` stack the per-state
  Eq.-5 LPs into one HiGHS solve and owe *plan equivalence* to the
  row-wise scalar path: identical optimal cost (1e-9), first inputs
  feasible in ``U``, plans satisfying the nominal dynamics — but not
  necessarily the same optimal vertex;
* the lockstep engine with ``exact_solves=True`` keeps the scalar path
  and owes bitwise record-for-record parity with the serial engine;
* closed-form controllers stay bitwise under every mode.

The scenario-zoo sweep at the bottom proves the contract on every
registered scenario's controller, not just the double integrator.
"""

import numpy as np
import pytest

from repro import scenarios as scenario_registry
from repro.controllers import (
    LinearFeedback,
    RMPCInfeasibleError,
    RobustMPC,
    lqr_gain,
    rmpc_invariant_set,
    verify_plan_equivalence,
)
from repro.framework import BatchRunner, LockstepEngine, SafetyMonitor
from repro.invariance import strengthened_safe_set
from repro.skipping import AlwaysSkipPolicy, PeriodicSkipPolicy
from repro.observability import metrics as obs
from repro.utils.lp import STACK_CACHE_METRIC

ROOT_SEED = 424242
HORIZON = 18


@pytest.fixture(scope="module")
def rmpc_rig():
    """Double integrator + RMPC + certified monitor sets (synthesis is
    slow, so built once per module; treat as read-only apart from
    ``reset``)."""
    from tests.conftest import make_double_integrator

    system = make_double_integrator()
    mpc = RobustMPC(system, horizon=6)
    xi = rmpc_invariant_set(mpc, verify=True)
    xp = strengthened_safe_set(system, xi)

    def monitor_factory(strict: bool = True):
        return SafetyMonitor(
            strengthened_set=xp,
            invariant_set=xi,
            safe_set=system.safe_set,
            strict=strict,
        )

    return system, mpc, xi, xp, monitor_factory


def _feasible_states(xp, count, seed=3):
    return xp.sample(np.random.default_rng(seed), count)


class TestSolveBatchPlanEquivalence:
    def test_costs_inputs_and_dynamics(self, rmpc_rig):
        system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 7)
        batch = mpc.solve_batch(states)
        assert len(batch) == 7
        for x, sol in zip(states, batch):
            scalar = mpc.solve(x)
            # Plan-equivalent tier: cost identical to the scalar solve...
            assert abs(sol.cost - scalar.cost) <= 1e-9
            # ...first input feasible in U...
            assert system.input_set.contains(sol.inputs[0], tol=1e-7)
            # ...and the plan internally consistent (nominal dynamics).
            assert np.allclose(sol.states[0], x, atol=1e-7)
            for k in range(mpc.horizon):
                np.testing.assert_allclose(
                    system.step(sol.states[k], sol.inputs[k]),
                    sol.states[k + 1],
                    atol=1e-6,
                )

    def test_verify_plan_equivalence_helper(self, rmpc_rig):
        _system, mpc, _xi, xp, _mf = rmpc_rig
        report = verify_plan_equivalence(mpc, _feasible_states(xp, 5))
        assert report["equivalent"], report
        assert report["count"] == 5
        assert report["max_cost_diff"] <= 1e-9
        assert report["inputs_feasible"]

    def test_single_row_is_bitwise(self, rmpc_rig):
        """k = 1 delegates to the scalar solver: bit-for-bit identical."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        x = _feasible_states(xp, 1)[0]
        [batched] = mpc.solve_batch([x])
        scalar = mpc.solve(x)
        assert np.array_equal(batched.inputs, scalar.inputs)
        assert np.array_equal(batched.states, scalar.states)
        assert batched.cost == scalar.cost
        assert np.array_equal(
            mpc.compute_batch(x[None, :])[0], mpc.compute(x)
        )

    def test_empty_batch(self, rmpc_rig):
        _system, mpc, _xi, _xp, _mf = rmpc_rig
        assert mpc.solve_batch(np.zeros((0, 2))) == []
        assert mpc.compute_batch(np.zeros((0, 2))).shape == (0, 1)

    def test_dimension_mismatch(self, rmpc_rig):
        _system, mpc, _xi, _xp, _mf = rmpc_rig
        with pytest.raises(ValueError, match="dimension"):
            mpc.solve_batch(np.zeros((3, 5)))

    def test_single_infeasible_row_is_attributed(self, rmpc_rig):
        """One bad row sinks the whole stack; the scalar fallback must
        name the offending state, not report an anonymous LP failure."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 3)
        states[1] = [4.9, 1.99]  # far outside X_F
        with pytest.raises(RMPCInfeasibleError, match=r"4\.9"):
            mpc.solve_batch(states)

    def test_solve_count_accounting(self, rmpc_rig):
        """A stacked solve over k states counts k κ_R evaluations."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 4)
        mpc.reset()
        mpc.solve_batch(states)
        assert mpc.solve_count == 4
        mpc.compute_batch(states[:2])
        assert mpc.solve_count == 6
        mpc.reset()

    def test_solve_count_on_fallback(self, rmpc_rig):
        """Accounting under the scalar fallback: the failed stacked
        attempt counts zero, each scalar re-solve counts one — so a
        batch whose row 1 is infeasible leaves exactly one counted solve
        (row 0), not k + 1 (regression: stacked-then-scalar must never
        double count)."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 3)
        states[1] = [4.9, 1.99]  # far outside X_F
        mpc.reset()
        with pytest.raises(RMPCInfeasibleError):
            mpc.solve_batch(states)
        assert mpc.solve_count == 1
        mpc.reset()

    def test_stack_cache_hit_on_repeat(self, rmpc_rig):
        """Repeated batch solves over one controller's matrices must
        reuse its owned CSR stack (only the RHS changes)."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 5)
        mpc.set_lp_backend("scipy")
        try:
            mpc.solve_batch(states)  # warm the owner's k=5 stack
            with obs.scoped_registry() as reg:
                mpc.solve_batch(_feasible_states(xp, 5, seed=11))
        finally:
            mpc.set_lp_backend("auto")
        assert reg.value(STACK_CACHE_METRIC, cache="owned", event="hit") == 1
        assert reg.total(STACK_CACHE_METRIC, event="miss") == 0


class TestBackendSelection:
    def test_invalid_backend_rejected(self, rmpc_rig):
        system, mpc, _xi, _xp, _mf = rmpc_rig
        with pytest.raises(ValueError, match="lp_backend"):
            RobustMPC(system, horizon=2, lp_backend="cplex")
        with pytest.raises(ValueError, match="lp_backend"):
            mpc.set_lp_backend("cplex")
        assert mpc.lp_backend == "auto"  # unchanged by the rejection

    def test_auto_matches_explicit_scipy_costs(self, rmpc_rig):
        """Whatever `auto` resolves to, the batch attains the scipy
        backend's (= the scalar solver's) optimal costs."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 5, seed=21)
        try:
            mpc.set_lp_backend("scipy")
            via_scipy = mpc.solve_batch(states)
            mpc.set_lp_backend("auto")
            via_auto = mpc.solve_batch(states)
        finally:
            mpc.set_lp_backend("auto")
        for a, b in zip(via_auto, via_scipy):
            assert abs(a.cost - b.cost) <= 1e-9

    def test_highs_backend_plan_equivalent(self, rmpc_rig):
        _system, mpc, _xi, xp, _mf = rmpc_rig
        try:
            mpc.set_lp_backend("highs")
            report = verify_plan_equivalence(mpc, _feasible_states(xp, 6))
        finally:
            mpc.set_lp_backend("auto")
        assert report["equivalent"], report

    def test_highs_backend_warm_starts(self, rmpc_rig):
        """Consecutive equal-k batches reuse one persistent model."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        try:
            mpc.set_lp_backend("highs")
            mpc.release_stacks()  # cold start for this test
            mpc.solve_batch(_feasible_states(xp, 4, seed=31))
            solver = mpc._persistent
            assert solver is not None and solver.model_builds == 1
            mpc.solve_batch(_feasible_states(xp, 4, seed=32))
            assert solver.model_builds == 1
            assert solver.warm_solves == 1
        finally:
            mpc.set_lp_backend("auto")
            mpc.release_stacks()

    def test_highs_fallback_names_infeasible_state(self, rmpc_rig):
        """The named-state fallback contract holds under highs too."""
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 3)
        states[1] = [4.9, 1.99]
        mpc.reset()
        try:
            mpc.set_lp_backend("highs")
            with pytest.raises(RMPCInfeasibleError, match=r"4\.9"):
                mpc.solve_batch(states)
        finally:
            mpc.set_lp_backend("auto")
        assert mpc.solve_count == 1  # row 0 scalar re-solve only
        mpc.reset()

    def test_released_controller_reclaims_stacks(self, rmpc_rig):
        """Dropping a controller must free its stacks: they live on the
        owner, not pinned under strong references in a module cache
        (regression for the id-keyed global LRU pinning bug)."""
        import gc
        import weakref

        system, mpc, _xi, xp, _mf = rmpc_rig
        other = RobustMPC(
            system, horizon=4, terminal_set=mpc.terminal_set
        )
        other.set_lp_backend("scipy")
        other.solve_batch(_feasible_states(xp, 3, seed=41))
        assert len(other._stack) == 1
        stack_ref = weakref.ref(other._stack)
        matrix_ref = weakref.ref(other._A_ub)
        del other
        gc.collect()
        assert stack_ref() is None
        assert matrix_ref() is None

    def test_release_stacks_is_transparent(self, rmpc_rig):
        _system, mpc, _xi, xp, _mf = rmpc_rig
        states = _feasible_states(xp, 3, seed=51)
        before = mpc.solve_batch(states)
        mpc.release_stacks()
        after = mpc.solve_batch(states)
        for a, b in zip(before, after):
            assert abs(a.cost - b.cost) <= 1e-9


class TestLockstepStackedEngine:
    def _runners(self, rmpc_rig, policy_factory=AlwaysSkipPolicy, **extra):
        system, mpc, _xi, _xp, monitor_factory = rmpc_rig

        def make(cls, **kw):
            return cls(system, mpc, monitor_factory, policy_factory, **kw)

        return make

    def _disturbances(self, system):
        lo, hi = system.disturbance_set.bounding_box()

        def factory(episode, rng):
            return rng.uniform(lo, hi, size=(HORIZON, system.n))

        return factory

    def test_exact_solves_bitwise_parity_with_serial(self, rmpc_rig):
        system, _mpc, _xi, xp, _mf = rmpc_rig
        make = self._runners(rmpc_rig)
        factory = self._disturbances(system)
        states = _feasible_states(xp, 4)
        serial = make(BatchRunner).run_seeded(states, factory, ROOT_SEED)
        exact = make(LockstepEngine, exact_solves=True).run_seeded(
            states, factory, ROOT_SEED
        )
        assert serial.deterministic_records() == exact.deterministic_records()

    def test_stacked_lockstep_plan_equivalent_tier(self, rmpc_rig):
        """The default (stacked) lockstep run: every episode completes
        under the strict monitor with zero safe-set violations, skip
        accounting stays within the monitor's forcing semantics, and the
        batch's solves are plan-equivalent at the visited start states."""
        system, mpc, _xi, xp, _mf = rmpc_rig
        make = self._runners(rmpc_rig)
        factory = self._disturbances(system)
        states = _feasible_states(xp, 4)
        serial = make(BatchRunner).run_seeded(states, factory, ROOT_SEED)
        stacked = make(LockstepEngine).run_seeded(states, factory, ROOT_SEED)
        assert len(stacked) == len(serial) == len(states)
        for record in stacked.records:
            assert record.max_violation <= 0.0
        report = verify_plan_equivalence(mpc, states)
        assert report["equivalent"], report

    def test_masked_and_forced_rows(self, rmpc_rig):
        """Rows in XI − X' are monitor-forced at t = 0 while X' rows may
        skip: the stacked solve sees exactly the forced/RUN row subset
        (a strict sub-batch), and the run stays violation-free."""
        system, _mpc, xi, xp, _mf = rmpc_rig
        candidates = xi.sample(np.random.default_rng(9), 400)
        outside = candidates[~xp.contains_batch(candidates)]
        if len(outside) < 2:
            pytest.skip("XI − X' too thin to sample for this plant")
        states = np.vstack([_feasible_states(xp, 3), outside[:2]])
        make = self._runners(rmpc_rig)
        factory = self._disturbances(system)
        serial = make(BatchRunner).run_seeded(states, factory, ROOT_SEED)
        stacked = make(LockstepEngine).run_seeded(states, factory, ROOT_SEED)
        exact = make(LockstepEngine, exact_solves=True).run_seeded(
            states, factory, ROOT_SEED
        )
        assert serial.deterministic_records() == exact.deterministic_records()
        assert len(stacked) == len(states)
        # The forced rows really were forced (mixed mask exercised).
        assert any(r.forced_steps >= 1 for r in stacked.records)
        for record in stacked.records:
            assert record.max_violation <= 0.0

    @pytest.mark.parametrize("backend", ["scipy", "highs"])
    def test_exact_solves_is_backend_invariant(self, rmpc_rig, backend):
        """The exact_solves audit tier routes through the scalar scipy
        path under every backend request, so its records match the serial
        engine bitwise whatever --lp-backend asks for (with `highs` the
        warm stacked path is never entered)."""
        system, mpc, _xi, xp, _mf = rmpc_rig
        make = self._runners(rmpc_rig)
        factory = self._disturbances(system)
        states = _feasible_states(xp, 4)
        serial = make(BatchRunner).run_seeded(states, factory, ROOT_SEED)
        try:
            exact = make(
                LockstepEngine, exact_solves=True, lp_backend=backend
            ).run_seeded(states, factory, ROOT_SEED)
        finally:
            mpc.set_lp_backend("auto")
        assert serial.deterministic_records() == exact.deterministic_records()

    def test_stacked_lockstep_highs_backend(self, rmpc_rig):
        """A full lockstep run on the warm-started backend: safe
        episodes, plan-equivalent solves, same episode count — and the
        request applies to the run only, leaving the (shared)
        controller's own setting alone."""
        system, mpc, _xi, xp, _mf = rmpc_rig
        # Periodic skipping runs every row together: real stacked batches.
        make = self._runners(rmpc_rig, lambda: PeriodicSkipPolicy(2))
        factory = self._disturbances(system)
        states = _feasible_states(xp, 4)
        try:
            stacked = make(LockstepEngine, lp_backend="highs").run_seeded(
                states, factory, ROOT_SEED
            )
            assert mpc.lp_backend == "auto"
            assert mpc._persistent is not None
            assert mpc._persistent.warm_solves > 0
        finally:
            mpc.set_lp_backend("auto")
            mpc.release_stacks()
        assert len(stacked) == len(states)
        for record in stacked.records:
            assert record.max_violation <= 0.0

    def test_exact_solves_noop_for_bitwise_controllers(self, rmpc_rig):
        """exact_solves must not change a closed-form controller's path —
        its compute_batch already is the bitwise tier."""
        system, _mpc, xi, xp, _mf = rmpc_rig
        K = lqr_gain(system.A, system.B, np.eye(2), np.eye(1))
        lo, hi = system.input_set.bounding_box()
        controller = LinearFeedback(K, saturation=(lo, hi))

        def monitor_factory():
            return SafetyMonitor(
                strengthened_set=xp,
                invariant_set=xi,
                safe_set=system.safe_set,
                strict=False,
            )

        factory = self._disturbances(system)
        states = _feasible_states(xp, 4)

        def run(**kw):
            return LockstepEngine(
                system, controller, monitor_factory,
                lambda: PeriodicSkipPolicy(2), **kw,
            ).run_seeded(states, factory, ROOT_SEED)

        assert (
            run().deterministic_records()
            == run(exact_solves=True).deterministic_records()
        )


@pytest.mark.parametrize("name", scenario_registry.list_scenarios())
def test_scenario_zoo_batch_contract(name):
    """Every registered scenario's κ honours its declared batch tier:
    stacked-LP controllers are plan-equivalent, closed forms bitwise."""
    case = scenario_registry.build(name)
    controller = case.controller
    states = case.sample_initial_states(np.random.default_rng(7), 4)
    if getattr(controller, "bitwise_batch", True):
        batch = controller.compute_batch(states)
        for i, x in enumerate(states):
            assert np.array_equal(batch[i], controller.compute(x))
    else:
        report = verify_plan_equivalence(controller, states)
        assert report["equivalent"], (name, report)


@pytest.mark.parametrize("name", scenario_registry.list_scenarios())
def test_scenario_zoo_highs_backend_equivalence(name):
    """Every stacked-LP scenario controller is plan-equivalent under the
    warm-started highs backend too (scalar reference solves stay cold,
    so this is a cross-backend check)."""
    case = scenario_registry.build(name)
    controller = case.controller
    if getattr(controller, "bitwise_batch", True):
        pytest.skip(f"{name}: closed-form controller, no LP backend")
    states = case.sample_initial_states(np.random.default_rng(7), 4)
    controller.set_lp_backend("highs")
    try:
        report = verify_plan_equivalence(controller, states)
    finally:
        # The controller is the cached one every later build returns.
        controller.set_lp_backend("auto")
        controller.release_stacks()
    assert report["equivalent"], (name, report)
