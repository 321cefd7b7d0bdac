"""Tests for the scenario zoo: spec validation, builder synthesis,
registry behaviour, cache hygiene and scenario execution through the
experiment API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import scenarios
from repro.geometry import HPolytope
from repro.scenarios import (
    CaseStudy,
    ScenarioSpec,
    ScenarioSynthesisError,
    build_case_study,
    clear_case_study_cache,
)
from repro.scenarios.builder import _CACHE as _BUILDER_CACHE
from repro.skipping import AlwaysSkipPolicy

#: Cheap 1-D spec used wherever synthesis cost matters.
def thermal_like_spec(**overrides) -> ScenarioSpec:
    config = dict(
        name="test_thermal",
        A=[[0.9]],
        B=[[0.05]],
        safe_set=HPolytope.from_box([-2.0], [2.0]),
        input_set=HPolytope.from_box([-15.0], [15.0]),
        disturbance_set=HPolytope.from_box([-0.1], [0.1]),
        controller="rmpc",
        horizon=5,
    )
    config.update(overrides)
    return ScenarioSpec(**config)


class TestScenarioSpec:
    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError, match="controller"):
            thermal_like_spec(controller="pid")

    def test_rejects_continuous_without_dt(self):
        with pytest.raises(ValueError, match="dt"):
            thermal_like_spec(continuous=True)

    def test_rejects_wrong_skip_input_dimension(self):
        with pytest.raises(ValueError, match="skip_input"):
            thermal_like_spec(skip_input=[0.0, 0.0])

    def test_rejects_wrong_set_dimensions(self):
        with pytest.raises(ValueError, match="safe_set"):
            thermal_like_spec(safe_set=HPolytope.from_box([-1, -1], [1, 1]))
        with pytest.raises(ValueError, match="disturbance_set"):
            thermal_like_spec(
                disturbance_set=HPolytope.from_box([-1, -1], [1, 1])
            )

    def test_rejects_wrong_gain_shape(self):
        with pytest.raises(ValueError, match="gain"):
            thermal_like_spec(controller="linear", gain=[[1.0, 2.0]])

    def test_discrete_matrices_euler(self):
        spec = thermal_like_spec(
            A=[[-0.1]], B=[[0.05]], continuous=True, dt=1.0
        )
        A_d, B_d = spec.discrete_matrices()
        assert np.allclose(A_d, [[0.9]])
        assert np.allclose(B_d, [[0.05]])

    def test_discrete_matrices_zoh_matches_expm(self):
        spec = thermal_like_spec(
            A=[[-0.1]], B=[[0.05]], continuous=True, dt=1.0,
            discretization="zoh",
        )
        A_d, B_d = spec.discrete_matrices()
        assert np.allclose(A_d, [[np.exp(-0.1)]])
        # B_d = (∫ e^{As} ds) B = (1 - e^{-0.1})/0.1 * 0.05
        assert np.allclose(B_d, [[(1 - np.exp(-0.1)) / 0.1 * 0.05]])

    def test_cache_key_ignores_labels(self):
        a = thermal_like_spec()
        b = thermal_like_spec(name="other", description="different words")
        assert a.cache_key == b.cache_key

    def test_cache_key_sensitive_to_every_numeric_ingredient(self):
        base = thermal_like_spec()
        variants = [
            thermal_like_spec(A=[[0.91]]),
            thermal_like_spec(horizon=6),
            thermal_like_spec(input_weight=2.0),
            thermal_like_spec(disturbance_set=HPolytope.from_box([-0.05], [0.05])),
            thermal_like_spec(skip_input=[1.0]),
        ]
        keys = {base.cache_key} | {v.cache_key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_equality_and_hash_follow_cache_key(self):
        a = thermal_like_spec()
        b = thermal_like_spec(name="other")   # labels excluded from key
        c = thermal_like_spec(horizon=6)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a spec"
        assert len({a, b, c}) == 2  # usable as dict/set keys

    def test_with_name_keeps_cache_key(self):
        spec = thermal_like_spec()
        renamed = spec.with_name("renamed", "new words")
        assert renamed.name == "renamed"
        assert renamed.description == "new words"
        assert renamed.cache_key == spec.cache_key

    def test_with_overrides_relabels_and_rekeys(self):
        # The parameter-axis primitive: one changed override => a new
        # name (distinct listings/rows) AND a new cache key (distinct
        # builder-cache entry) — extending the skip-input no-collision
        # guarantee to arbitrary axis points.
        base = thermal_like_spec()
        a = base.with_overrides(horizon=6)
        b = base.with_overrides(horizon=7)
        assert a.name == "test_thermal@horizon=6"
        assert b.name == "test_thermal@horizon=7"
        assert len({base.cache_key, a.cache_key, b.cache_key}) == 3
        # A pure relabel (no overrides) keeps sharing the synthesis.
        assert base.with_overrides(label="alias").cache_key == base.cache_key

    def test_with_overrides_rejects_label_fields(self):
        with pytest.raises(ValueError, match="overridable"):
            thermal_like_spec().with_overrides(description="nope")

    def test_fractional_horizon_rejected_integral_coerced(self):
        # int(horizon) feeds both the RMPC and the cache key, so a
        # fractional axis point would silently alias its floor's
        # synthesis; integral floats are fine and normalised to int.
        with pytest.raises(ValueError, match="horizon must be an integer"):
            thermal_like_spec(horizon=5.5)
        spec = thermal_like_spec(horizon=5.0)
        assert spec.horizon == 5 and isinstance(spec.horizon, int)
        assert spec.cache_key == thermal_like_spec(horizon=5).cache_key

    def test_with_overrides_rejects_empty_label_with_overrides(self):
        # An empty label would alias two different syntheses under one
        # name; the rename invariant forbids it.
        with pytest.raises(ValueError, match="non-empty label"):
            thermal_like_spec().with_overrides(label="", horizon=6)


class TestBuilder:
    def test_builds_certified_nested_sets(self):
        case = build_case_study(thermal_like_spec(), use_cache=False)
        assert isinstance(case, CaseStudy)
        # X' ⊆ XI ⊆ X (Definition 3 nesting, monitor precondition).
        assert case.invariant_set.contains_polytope(case.strengthened_set)
        assert case.system.safe_set.contains_polytope(
            case.invariant_set, tol=1e-6
        )
        assert not case.strengthened_set.is_empty()

    def test_linear_controller_synthesis(self):
        spec = thermal_like_spec(controller="linear")
        case = build_case_study(spec, use_cache=False)
        assert case.invariant_set.contains_polytope(case.strengthened_set)
        # The auto-LQR gain respects input limits inside XI by construction.
        K = case.controller.K
        for vertex in case.invariant_set.vertices():
            assert case.system.input_set.contains(K @ vertex, tol=1e-6)

    def test_monitor_and_sampler(self, rng):
        case = build_case_study(thermal_like_spec(), use_cache=False)
        states = case.sample_initial_states(rng, 8)
        assert states.shape == (8, 1)
        monitor = case.make_monitor()
        for state in states:
            assert monitor.may_skip(state)

    def test_disturbance_factory_seeded_and_inside_w(self):
        case = build_case_study(thermal_like_spec(), use_cache=False)
        factory = case.disturbance_factory(horizon=7)
        a = factory(0, np.random.default_rng(3))
        b = factory(0, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.shape == (7, 1)
        assert case.system.disturbance_set.contains_batch(a).all()

    def test_energy_counts_only_controller_steps(self):
        case = build_case_study(
            thermal_like_spec(skip_input=[2.0]), use_cache=False
        )
        from repro.framework.accounting import RunStats

        stats = RunStats(
            states=np.zeros((3, 1)),
            inputs=np.array([[2.0], [5.0]]),
            decisions=np.array([0, 1]),
            forced=np.array([False, False]),
            controller_seconds=np.zeros(2),
            monitor_seconds=np.zeros(2),
            disturbances=np.zeros((2, 1)),
        )
        # The skip step's |2.0| is free; only the controller step counts.
        assert case.energy_of_run(stats) == 5.0

    def test_empty_invariant_set_raises_named_error(self):
        # Unstable 1-D plant whose disturbance exceeds the input authority:
        # no robust control invariant subset of X can exist.
        spec = thermal_like_spec(
            name="doomed",
            A=[[2.0]],
            B=[[1.0]],
            input_set=HPolytope.from_box([-0.5], [0.5]),
            disturbance_set=HPolytope.from_box([-2.0], [2.0]),
        )
        with pytest.raises(ScenarioSynthesisError, match="doomed"):
            build_case_study(spec, use_cache=False)

    def test_skip_input_emptying_strengthened_set_raises(self):
        # A skip input far outside any sensible regime throws every state
        # out of XI in one step: X' must come back empty => clear error.
        spec = thermal_like_spec(name="bad_skip", skip_input=[200.0])
        with pytest.raises(
            ScenarioSynthesisError, match="bad_skip.*strengthened"
        ):
            build_case_study(spec, use_cache=False)


class TestBuilderCache:
    def setup_method(self):
        clear_case_study_cache()

    def teardown_method(self):
        clear_case_study_cache()

    def test_cache_returns_same_object(self):
        spec = thermal_like_spec()
        assert build_case_study(spec) is build_case_study(spec)

    def test_specs_differing_only_in_skip_input_do_not_collide(self):
        base = thermal_like_spec()
        # B u_skip = 1.0: drifts upward hard enough that B(XI, u_skip)
        # visibly truncates X' (but does not empty it).
        coasting = thermal_like_spec(skip_input=[20.0])
        case_a = build_case_study(base)
        case_b = build_case_study(coasting)
        assert case_a is not case_b
        # Different skip inputs => different strengthened sets; a cache
        # collision would hand back the wrong X'.
        assert not case_a.strengthened_set.equals(
            case_b.strengthened_set, tol=1e-9
        )

    def test_clear_cache_forces_rebuild(self):
        spec = thermal_like_spec()
        first = build_case_study(spec)
        clear_case_study_cache()
        assert build_case_study(spec) is not first

    def test_relabel_shares_synthesis(self):
        spec = thermal_like_spec()
        original = build_case_study(spec)
        relabelled = build_case_study(spec.with_name("alias"))
        assert relabelled.spec.name == "alias"
        assert relabelled.invariant_set is original.invariant_set
        assert relabelled.strengthened_set is original.strengthened_set

    def test_use_cache_false_bypasses(self):
        spec = thermal_like_spec()
        build_case_study(spec, use_cache=False)
        assert spec.cache_key not in _BUILDER_CACHE


class TestRegistry:
    def test_zoo_has_at_least_five_scenarios(self):
        names = scenarios.list_scenarios()
        assert len(names) >= 5
        assert {"acc", "thermal", "pendulum", "dc_motor", "lane_keeping"} <= set(
            names
        )

    def test_specs_span_state_dimensions_one_to_four(self):
        dims = {scenarios.get(name).n for name in scenarios.list_scenarios()}
        assert {1, 2, 3, 4} <= dims

    def test_both_controller_recipes_are_represented(self):
        kinds = {
            scenarios.get(name).controller
            for name in scenarios.list_scenarios()
        }
        assert kinds == {"rmpc", "linear"}

    def test_get_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="acc"):
            scenarios.get("nope")

    def test_duplicate_registration_rejected(self):
        scenarios.register("dup_test", thermal_like_spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                scenarios.register("dup_test", thermal_like_spec)
            scenarios.register("dup_test", thermal_like_spec, overwrite=True)
        finally:
            scenarios.unregister("dup_test")
        assert "dup_test" not in scenarios.list_scenarios()

    def test_factory_name_mismatch_rejected(self):
        scenarios.register("mismatch", thermal_like_spec)
        try:
            with pytest.raises(ValueError, match="mismatch"):
                scenarios.get("mismatch")
        finally:
            scenarios.unregister("mismatch")

    def test_acc_scenario_matches_acc_case_study(self, acc_case):
        case = scenarios.build("acc")
        assert case.invariant_set.equals(acc_case.invariant_set)
        assert case.strengthened_set.equals(acc_case.strengthened_set)
        assert np.array_equal(case.skip_input, acc_case.skip_input)


@pytest.fixture(scope="module")
def thermal_case():
    return build_case_study(thermal_like_spec(name="test_thermal"))


@pytest.fixture(scope="module")
def pendulum_case():
    return scenarios.build("pendulum")


class TestScenarioExecution:
    def test_lockstep_matches_serial_records(self, pendulum_case):
        from repro.framework import BatchRunner

        case = pendulum_case
        rng = np.random.default_rng(0)
        states = case.sample_initial_states(rng, 5)
        factory = case.disturbance_factory(15)

        def run(engine, **extra):
            return BatchRunner(
                case.system,
                case.controller,
                monitor_factory=case.make_monitor,
                policy_factory=AlwaysSkipPolicy,
                skip_input=case.skip_input,
                engine=engine,
                **extra,
            ).run_seeded(states, factory, root_seed=0)

        # Bitwise oracle: the lockstep audit tier keeps the scalar
        # solves (a stacked one may differ from them in the last ulp,
        # the plan-equivalent tier).
        serial = run("serial")
        lockstep = run("lockstep", exact_solves=True)
        assert (
            serial.deterministic_records() == lockstep.deterministic_records()
        )
        assert max(r.max_violation for r in serial.records) <= 0.0

    def test_run_experiment_engines_agree(self, thermal_case):
        from repro.experiments import ExecutionConfig, ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            scenario=thermal_case.spec, num_cases=4, horizon=12, seed=3
        )
        a, b = (
            run_experiment(spec, ExecutionConfig(engine=engine))
            for engine in ("serial", "lockstep")
        )
        assert list(a.approaches) == list(b.approaches)
        for name in a.approaches:
            for metric in ("energy", "forced_steps"):
                assert np.array_equal(
                    a.approaches[name].metrics[metric],
                    b.approaches[name].metrics[metric],
                )

    def test_sweep_subset(self):
        from repro.experiments import SweepPlan, run_sweep

        scenarios.register("test_thermal", lambda: thermal_like_spec())
        try:
            result = run_sweep(
                SweepPlan.for_scenarios(
                    ["test_thermal"], num_cases=3, horizon=8, seed=1
                )
            )
        finally:
            scenarios.unregister("test_thermal")
        assert [cell.scenario for cell in result] == ["test_thermal"]
        assert result.always_safe
