"""Tests for the declarative experiment API (`repro.experiments`):
spec/axis/plan validation, grid expansion, cache-correct axis points,
sharded execution determinism, result round-trips, and the ACC Table-I
acceptance criterion (a single sweep over `table1_axis` reproduces the
pre-built Table-I case studies metric-for-metric)."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.experiments import (
    ExecutionConfig,
    ExperimentSpec,
    ParameterAxis,
    SweepPlan,
    SweepResult,
    run_experiment,
    run_sweep,
)
from repro.geometry import HPolytope
from repro.scenarios import ScenarioSpec, build_case_study
from repro.scenarios.builder import _CACHE as _BUILDER_CACHE
from repro.skipping import AlwaysSkipPolicy, PeriodicSkipPolicy


def cheap_spec(name="exp_thermal", **overrides) -> ScenarioSpec:
    """Cheap 1-D RMPC scenario (synthesis well under a second)."""
    config = dict(
        name=name,
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


# ----------------------------------------------------------------------
# Declarative layer
# ----------------------------------------------------------------------
class TestParameterAxis:
    def test_points_and_labels(self):
        axis = ParameterAxis("horizon", (5, 8))
        points = axis.points()
        assert [(p.axis, p.key, p.label, p.value) for p in points] == [
            ("horizon", "horizon", "5", 5),
            ("horizon", "horizon", "8", 8),
        ]

    def test_field_defaults_to_name_but_can_differ(self):
        axis = ParameterAxis("w", (0.1,), field="input_weight")
        assert axis.points()[0].key == "input_weight"

    def test_tuple_values_get_terse_labels(self):
        axis = ParameterAxis("vf_range", ((30.0, 50.0), (38.0, 42.0)))
        assert [p.label for p in axis.points()] == ["30-50", "38-42"]

    def test_explicit_labels_must_match_length(self):
        with pytest.raises(ValueError, match="labels"):
            ParameterAxis("a", (1, 2), labels=("only-one",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one value"):
            ParameterAxis("a", ())

    def test_linspace(self):
        axis = ParameterAxis.linspace("state_weight", 1.0, 2.0, 3)
        assert axis.values == (1.0, 1.5, 2.0)
        assert len(axis) == 3


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec(scenario="thermal")
        # approaches defaults to None = derive at run time (built-in
        # bang_bang/periodic2 when no policies are supplied).
        assert spec.approaches is None
        assert spec.scenario_name == "thermal"
        assert spec.display_label == "thermal"

    def test_bare_policies_mapping_needs_no_approaches(self):
        spec = ExperimentSpec(
            scenario="thermal", policies={"custom": AlwaysSkipPolicy()}
        )
        assert spec.approaches is None  # names derived from the mapping

    def test_inline_scenario_spec(self):
        spec = ExperimentSpec(scenario=cheap_spec())
        assert spec.scenario_name == "exp_thermal"

    def test_rejects_baseline_approach(self):
        with pytest.raises(ValueError, match="baseline"):
            ExperimentSpec(scenario="thermal", approaches=("baseline",))

    def test_rejects_baseline_policy(self):
        with pytest.raises(ValueError, match="baseline"):
            ExperimentSpec(
                scenario="thermal",
                approaches=None,
                policies={"baseline": AlwaysSkipPolicy()},
            )

    def test_rejects_stray_policies(self):
        with pytest.raises(ValueError, match="not named in approaches"):
            ExperimentSpec(
                scenario="thermal",
                approaches=("bang_bang",),
                policies={"custom": AlwaysSkipPolicy()},
            )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="num_cases"):
            ExperimentSpec(scenario="thermal", num_cases=0)
        with pytest.raises(ValueError, match="horizon"):
            ExperimentSpec(scenario="thermal", horizon=0)

    def test_overrides_accept_mapping(self):
        spec = ExperimentSpec(scenario="thermal", overrides={"horizon": 7})
        assert spec.overrides == (("horizon", 7),)


class TestExecutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="engine"):
            ExecutionConfig(engine="warp")
        with pytest.raises(ValueError, match="jobs"):
            ExecutionConfig(jobs=-1)

    def test_lp_backend_field_is_gone(self):
        # The stacked-solve route is a controller setting, not a run
        # option: eight execution fields, none of them lp_backend (nor
        # the collect_timing knob: per-row timing is always collected).
        names = [field.name for field in fields(ExecutionConfig)]
        assert len(names) == 8
        assert "collect_timing" not in names
        assert "lp_backend" not in names
        with pytest.raises(TypeError, match="lp_backend"):
            ExecutionConfig(lp_backend="scipy")

    def test_parallel_engine_and_shard_field_are_gone(self):
        # Two episode engines; jobs alone decides cell sharding.
        with pytest.raises(ValueError, match="engine"):
            ExecutionConfig(engine="parallel")
        assert "shard" not in [field.name for field in fields(ExecutionConfig)]
        with pytest.raises(TypeError, match="shard"):
            ExecutionConfig(shard="none")


class TestSweepPlan:
    def test_grid_expansion_and_keys(self):
        plan = SweepPlan(
            experiments=["thermal", "pendulum"],
            axes=[ParameterAxis("horizon", (5, 8))],
        )
        cells = plan.cells()
        assert plan.grid_shape == (2, 2)
        assert [cell.key for cell in cells] == [
            "thermal@horizon=5",
            "thermal@horizon=8",
            "pendulum@horizon=5",
            "pendulum@horizon=8",
        ]
        assert cells[1].overrides == (("horizon", 8),)

    def test_multi_axis_cartesian_product(self):
        plan = SweepPlan(
            experiments=["thermal"],
            axes=[
                ParameterAxis("horizon", (5, 8)),
                ParameterAxis("state_weight", (1.0, 2.0)),
            ],
        )
        assert plan.grid_shape == (1, 2, 2)
        assert [cell.key for cell in plan.cells()] == [
            "thermal@horizon=5,state_weight=1",
            "thermal@horizon=5,state_weight=2",
            "thermal@horizon=8,state_weight=1",
            "thermal@horizon=8,state_weight=2",
        ]

    def test_single_spec_and_name_normalisation(self):
        assert SweepPlan(experiments="thermal").cells()[0].key == "thermal"
        spec = ExperimentSpec(scenario="thermal")
        assert SweepPlan(experiments=spec).experiments == (spec,)

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate row keys"):
            SweepPlan(experiments=["thermal", "thermal"])

    def test_labels_disambiguate(self):
        plan = SweepPlan(
            experiments=[
                ExperimentSpec(scenario="thermal", seed=1, label="a"),
                ExperimentSpec(scenario="thermal", seed=2, label="b"),
            ]
        )
        assert [cell.key for cell in plan.cells()] == ["a", "b"]

    def test_rejects_duplicate_axis_names(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            SweepPlan(
                experiments=["thermal"],
                axes=[ParameterAxis("h", (1,)), ParameterAxis("h", (2,))],
            )

    def test_rejects_empty_experiments(self):
        with pytest.raises(ValueError, match="at least one experiment"):
            SweepPlan(experiments=[])


# ----------------------------------------------------------------------
# Axis cache-key safety (satellite): every grid point is cache-correct
# ----------------------------------------------------------------------
class TestAxisCacheSafety:
    def test_axis_points_get_distinct_cache_keys(self):
        base = cheap_spec()
        points = [
            base.with_overrides(**{point.key: point.value})
            for point in ParameterAxis("horizon", (5, 8)).points()
        ]
        keys = {spec.cache_key for spec in points}
        assert len(keys) == 2
        assert base.cache_key in keys  # horizon=5 equals the base numerics

    def test_one_override_one_builder_cache_entry(self):
        # Distinctive numerics: cache keys ignore names, so the probe
        # must not collide with entries other test files may have built.
        base = cheap_spec(name="cache_probe", A=[[0.77]])
        variant = base.with_overrides(input_weight=2.5)
        assert variant.cache_key != base.cache_key
        assert variant.name == "cache_probe@input_weight=2.5"
        before = set(_BUILDER_CACHE)
        case_a = build_case_study(base)
        case_b = build_case_study(variant)
        try:
            new = set(_BUILDER_CACHE) - before
            assert {base.cache_key, variant.cache_key} <= new
            assert case_a.invariant_set is not case_b.invariant_set
        finally:
            _BUILDER_CACHE.pop(base.cache_key, None)
            _BUILDER_CACHE.pop(variant.cache_key, None)

    def test_with_overrides_rejects_labels_and_unknown_fields(self):
        base = cheap_spec()
        with pytest.raises(ValueError, match="overridable"):
            base.with_overrides(name="other")
        with pytest.raises(ValueError, match="overridable"):
            base.with_overrides(vf_range=(30, 50))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class TestRunExperiment:
    @pytest.fixture(scope="class")
    def cell(self):
        return run_experiment(
            ExperimentSpec(scenario=cheap_spec(), num_cases=4, horizon=10, seed=3)
        )

    def test_shape_and_names(self, cell):
        assert cell.key == "exp_thermal"
        assert list(cell.approaches) == ["baseline", "bang_bang", "periodic2"]
        for stats in cell.approaches.values():
            assert stats.metrics["energy"].shape == (4,)

    def test_paired_and_safe(self, cell):
        assert cell.always_safe
        # Bang-bang skips whenever allowed: never more energy than the
        # κ-every-step baseline on the same realisations.
        assert (cell.energy_saving("bang_bang") >= -1e-12).all()

    def test_unknown_approach_lookup(self, cell):
        with pytest.raises(ValueError, match="unknown approach"):
            cell.stats("nope")

    def test_fuel_requires_acc_workload(self, cell):
        with pytest.raises(ValueError, match="fuel"):
            cell.fuel_saving("bang_bang")

    def test_unknown_approach_name_rejected(self):
        with pytest.raises(ValueError, match="unknown approach 'warp'"):
            run_experiment(
                ExperimentSpec(
                    scenario=cheap_spec(), approaches=("warp",), num_cases=1
                )
            )

    def test_periodic_parametric_builtin(self):
        cell = run_experiment(
            ExperimentSpec(
                scenario=cheap_spec(),
                approaches=("periodic3",),
                num_cases=2,
                horizon=9,
            )
        )
        # Period-3 pattern runs κ every third step => skip rate 2/3
        # unless the monitor forces extra runs.
        assert (cell.approaches["periodic3"].metrics["skip_rate"] <= 2 / 3 + 1e-12).all()

    def test_policies_factory_callable(self):
        def factory(case):
            return {"custom": AlwaysSkipPolicy()}

        cell = run_experiment(
            ExperimentSpec(
                scenario=cheap_spec(),
                approaches=None,
                policies=factory,
                num_cases=2,
                horizon=6,
            )
        )
        assert list(cell.approaches) == ["baseline", "custom"]

    def test_policies_mapping_runs_named_approach(self):
        cell = run_experiment(
            ExperimentSpec(
                scenario=cheap_spec(),
                approaches=("every3",),
                policies={"every3": PeriodicSkipPolicy(3)},
                num_cases=3,
                horizon=8,
                seed=2,
            )
        )
        assert list(cell.approaches) == ["baseline", "every3"]
        every3 = cell.approaches["every3"].metrics
        assert every3["energy"].shape == (3,)
        assert (every3["skip_rate"] <= 2 / 3 + 1e-12).all()

    def test_pattern_requires_acc(self):
        with pytest.raises(ValueError, match="requires scenario 'acc'"):
            run_experiment(
                ExperimentSpec(
                    scenario=cheap_spec(), pattern="overall", num_cases=1
                )
            )

    def test_pattern_rejects_inline_spec_and_generic_case(self):
        # The ACC workload rebuilds from ACCParameters overrides; an
        # acc-named generic spec or generic case would be silently
        # discarded, so both are refused outright.
        with pytest.raises(ValueError, match="scenario='acc'"):
            run_experiment(
                ExperimentSpec(
                    scenario=cheap_spec(name="acc"),
                    pattern="overall",
                    num_cases=1,
                )
            )
        acc_like_case = build_case_study(cheap_spec(name="acc"))
        with pytest.raises(ValueError, match="scenario='acc'"):
            run_experiment(
                ExperimentSpec(
                    scenario=acc_like_case, pattern="overall", num_cases=1
                )
            )

    def test_prebuilt_acc_case_evaluated_as_passed(self, acc_case):
        # The ACC shim contract: a pre-built ACCCaseStudy is honoured
        # exactly (here: a customised controller must be the one that
        # actually runs, visible through its solve counter).
        import dataclasses

        from repro.controllers.rmpc import RobustMPC

        # Same horizon (so the feasible region still covers X'), custom
        # weights: the private instance's solve counter proves identity.
        custom = RobustMPC(acc_case.system, horizon=10, input_weight=5.0)
        customised = dataclasses.replace(acc_case, mpc=custom)
        before = custom.solve_count
        cell = run_experiment(
            ExperimentSpec(
                scenario=customised,
                pattern="overall",
                approaches=("bang_bang",),
                num_cases=2,
                horizon=5,
            )
        )
        assert custom.solve_count > before
        assert cell.approaches["baseline"].metrics["fuel"].shape == (2,)

    def test_prebuilt_acc_case_rejects_parameter_overrides(self, acc_case):
        with pytest.raises(ValueError, match="fixed"):
            run_experiment(
                ExperimentSpec(
                    scenario=acc_case,
                    pattern="overall",
                    overrides={"vf_range": (35.0, 45.0)},
                    num_cases=1,
                )
            )
        # An ACC case without a pattern has no generic workload either.
        with pytest.raises(ValueError, match="pattern"):
            run_experiment(ExperimentSpec(scenario=acc_case, num_cases=1))

    def test_prebuilt_case_evaluated_as_passed(self):
        # A customised case (here: an idle controller swapped in after
        # the build) must be evaluated exactly as given, not re-derived
        # from its spec.
        import dataclasses

        from repro.controllers.linear import LinearFeedback

        pristine = build_case_study(cheap_spec())
        aggressive = dataclasses.replace(
            pristine, controller=LinearFeedback(np.array([[-20.0]]))
        )
        cell_pristine = run_experiment(
            ExperimentSpec(scenario=pristine, num_cases=3, horizon=8, seed=1)
        )
        cell_aggressive = run_experiment(
            ExperimentSpec(scenario=aggressive, num_cases=3, horizon=8, seed=1)
        )
        # u = -20x spends strictly positive energy from any nonzero x0;
        # the paper's Σ|u|-minimising κ_R does not follow that trace.
        energies = cell_aggressive.approaches["baseline"].metrics["energy"]
        assert (energies > 0.0).all()
        assert not np.array_equal(
            energies, cell_pristine.approaches["baseline"].metrics["energy"]
        )

    def test_prebuilt_case_rejects_overrides(self):
        case = build_case_study(cheap_spec())
        with pytest.raises(ValueError, match="CaseStudy"):
            run_sweep(
                SweepPlan(
                    experiments=[ExperimentSpec(scenario=case, num_cases=1)],
                    axes=[ParameterAxis("horizon", (4, 6))],
                )
            )

    def test_policies_must_be_skipping_policies(self):
        with pytest.raises(ValueError, match="SkippingPolicy"):
            run_experiment(
                ExperimentSpec(
                    scenario=cheap_spec(),
                    approaches=("x",),
                    policies={"x": "bang_bang"},
                    num_cases=1,
                )
            )


class TestSweepExecution:
    @pytest.fixture(scope="class")
    def grid(self):
        """2 scenarios x 2 axis points on cheap 1-D RMPC plants."""
        return SweepPlan(
            experiments=[
                ExperimentSpec(scenario=cheap_spec("grid_a"), num_cases=3,
                               horizon=8, seed=5),
                ExperimentSpec(scenario=cheap_spec("grid_b", A=[[0.8]]),
                               num_cases=3, horizon=8, seed=5),
            ],
            axes=[ParameterAxis("input_weight", (1.0, 2.0))],
        )

    @pytest.fixture(scope="class")
    def reference(self, grid):
        return run_sweep(grid, ExecutionConfig(engine="lockstep", jobs=1))

    def test_grid_runs_and_is_safe(self, grid, reference):
        assert len(reference) == 4
        assert reference.always_safe
        assert reference.row_keys()[0] == "grid_a@input_weight=1/baseline"

    def test_sharded_jobs2_matches_jobs1(self, grid, reference):
        sharded = run_sweep(grid, ExecutionConfig(engine="lockstep", jobs=2))
        assert sharded.deterministic_rows() == reference.deterministic_rows()

    def test_exact_solves_matches_serial_record_for_record(self, grid, reference):
        serial = run_sweep(grid, ExecutionConfig(engine="serial", jobs=1))
        audit = run_sweep(
            grid,
            ExecutionConfig(engine="lockstep", jobs=2, exact_solves=True),
        )
        assert audit.deterministic_rows() == serial.deterministic_rows()
        # And the plan-equivalent default tier attains the same metrics
        # within the contract tolerance on this (non-degenerate) grid.
        for lhs, rhs in zip(reference.rows(), serial.rows()):
            assert lhs["max_violation"] <= 0.0
            assert lhs["mean_energy"] == pytest.approx(
                rhs["mean_energy"], abs=1e-9
            )

    def test_jobs1_runs_in_process(self, grid, reference):
        seen = []
        result = run_sweep(
            grid,
            ExecutionConfig(engine="lockstep", jobs=1),
            on_cell=lambda cell: seen.append(cell.key),
        )
        assert result.deterministic_rows() == reference.deterministic_rows()
        assert seen == [cell.key for cell in grid.cells()]

    def test_sharded_sweep_rejects_stateful_policies(self, grid):
        from repro.skipping.base import SkippingPolicy

        class Sticky(SkippingPolicy):  # stateless defaults to False
            def decide(self, context):
                return 1

        plan = SweepPlan(
            experiments=[
                ExperimentSpec(
                    scenario=cheap_spec("stateful_probe"),
                    approaches=("sticky",),
                    policies={"sticky": Sticky()},
                    num_cases=2,
                    horizon=5,
                    label="a",
                ),
                ExperimentSpec(
                    scenario=cheap_spec("stateful_probe"),
                    approaches=("sticky",),
                    policies={"sticky": Sticky()},
                    num_cases=2,
                    horizon=5,
                    seed=2,
                    label="b",
                ),
            ]
        )
        # In-process (jobs=1) keeps legacy semantics...
        run_sweep(plan, ExecutionConfig(engine="serial", jobs=1))
        # ...but sharding would let state leak in-process while forked
        # workers start pristine, so it must refuse.
        with pytest.raises(RuntimeError, match="stateless.*run with jobs=1"):
            run_sweep(plan, ExecutionConfig(engine="serial", jobs=2))

    def test_on_cell_fires_per_cell_when_sharded(self, grid, reference):
        seen = []
        run_sweep(
            grid,
            ExecutionConfig(engine="lockstep", jobs=2),
            on_cell=lambda cell: seen.append(cell.key),
        )
        assert sorted(seen) == sorted(cell.key for cell in grid.cells())


class TestResultSerialisation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(
            SweepPlan(
                experiments=[
                    ExperimentSpec(scenario=cheap_spec(), num_cases=2, horizon=6)
                ],
                axes=[ParameterAxis("horizon", (4, 5))],
            )
        )

    def test_csv_round_trip_exact(self, result, tmp_path):
        path = str(tmp_path / "sweep.csv")
        result.to_csv(path)
        back = SweepResult.from_csv(path)
        assert back.rows() == result.rows()
        assert back.row_keys() == result.row_keys()

    def test_json_round_trip_full_fidelity(self, result, tmp_path):
        path = str(tmp_path / "sweep.json")
        result.to_json(path)
        back = SweepResult.from_json(path)
        assert back.rows() == result.rows()
        for old, new in zip(result.cells, back.cells):
            assert old.key == new.key
            for name in old.approaches:
                np.testing.assert_array_equal(
                    old.approaches[name].metrics["energy"],
                    new.approaches[name].metrics["energy"],
                )

    def test_from_csv_rejects_foreign_columns(self, result, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unexpected columns"):
            SweepResult.from_csv(str(path))

    def test_cell_lookup(self, result):
        assert result.cell("exp_thermal@horizon=4").always_safe
        with pytest.raises(KeyError, match="unknown cell"):
            result.cell("nope")


# ----------------------------------------------------------------------
# Acceptance (a): one run_sweep over table1_axis (the ACC case rebuilt
# per point) reproduces the pre-built Table-I case studies
# metric-for-metric.
# ----------------------------------------------------------------------
class TestACCTableOne:
    def test_table1_axis_sweep_matches_prebuilt_cases(self, acc_case):
        from repro.acc.experiments import case_study_for_experiment, table1_axis

        experiments = ("ex1", "ex4")  # ex1 shares the session fixture's build
        spec = ExperimentSpec(
            scenario="acc",
            pattern="overall",
            approaches=("bang_bang",),
            num_cases=4,
            horizon=12,
            seed=77,
        )
        sweep = run_sweep(
            SweepPlan(experiments=[spec], axes=[table1_axis(experiments)])
        )
        assert [cell.key for cell in sweep] == [
            "acc@experiment=ex1",
            "acc@experiment=ex4",
        ]
        for cell, experiment in zip(sweep, experiments):
            prebuilt = run_experiment(
                replace(
                    spec,
                    scenario=case_study_for_experiment(experiment),
                    pattern=experiment,
                )
            )
            for approach in ("baseline", "bang_bang"):
                swept = cell.stats(approach).metrics
                built = prebuilt.stats(approach).metrics
                for metric in ("fuel", "energy", "skip_rate", "forced_steps"):
                    np.testing.assert_array_equal(swept[metric], built[metric])
            np.testing.assert_array_equal(
                cell.fuel_saving("bang_bang"), prebuilt.fuel_saving("bang_bang")
            )
