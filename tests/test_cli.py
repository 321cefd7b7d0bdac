"""Tests for the command-line interface (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sets_defaults(self):
        args = build_parser().parse_args(["sets"])
        assert args.width == 66
        assert args.command == "sets"

    def test_compare_flags(self):
        args = build_parser().parse_args(
            ["compare", "--cases", "5", "--episodes", "10", "--restarts", "2"]
        )
        assert args.cases == 5
        assert args.episodes == 10
        assert args.restarts == 2

    def test_experiment_positional(self):
        args = build_parser().parse_args(["experiment", "ex3"])
        assert args.name == "ex3"

    def test_jobs_flag_on_evaluation_commands(self):
        assert build_parser().parse_args(["compare", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(
            ["experiment", "ex1", "--jobs", "0"]
        ).jobs == 0
        # Serial by default: parallelism is opt-in.
        assert build_parser().parse_args(["compare"]).jobs == 1

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.episodes == 16
        assert args.horizon == 100
        assert args.jobs == 1
        assert args.seed == 0
        assert args.out is None

    def test_batch_flags(self):
        args = build_parser().parse_args(
            ["batch", "--episodes", "8", "--jobs", "2", "--seed", "7",
             "--out", "records.csv"]
        )
        assert (args.episodes, args.jobs, args.seed) == (8, 2, 7)
        assert args.out == "records.csv"

    def test_engine_flag_on_all_batch_commands(self):
        for argv in (
            ["batch", "--engine", "lockstep"],
            ["compare", "--engine", "serial"],
            ["experiment", "ex1", "--engine", "parallel"],
        ):
            assert build_parser().parse_args(argv).engine == argv[-1]
        # Engine is inferred from --jobs when not given.
        assert build_parser().parse_args(["batch"]).engine is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--engine", "warp"])

    def test_lp_backend_flag_on_all_engine_commands(self):
        for argv in (
            ["batch", "--lp-backend", "scipy"],
            ["compare", "--lp-backend", "highs"],
            ["experiment", "ex1", "--lp-backend", "auto"],
            ["sweep", "--lp-backend", "scipy"],
        ):
            assert build_parser().parse_args(argv).lp_backend == argv[-1]
        # Default None: keep each controller's own backend setting.
        assert build_parser().parse_args(["batch"]).lp_backend is None
        assert build_parser().parse_args(["sweep"]).lp_backend is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--lp-backend", "cplex"])

    def test_batch_scenario_flag(self):
        assert build_parser().parse_args(["batch"]).scenario == "acc"
        args = build_parser().parse_args(["batch", "--scenario", "pendulum"])
        assert args.scenario == "pendulum"

    def test_scenarios_subcommand_flags(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.command == "scenarios"
        assert not args.detail
        assert build_parser().parse_args(["scenarios", "--detail"]).detail

    def test_sweep_subcommand_flags(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scenarios is None
        assert (args.cases, args.horizon, args.engine) == (8, 50, "serial")
        assert args.axis is None
        assert args.out is None
        args = build_parser().parse_args(
            ["sweep", "--scenarios", "thermal", "pendulum",
             "--cases", "3", "--engine", "lockstep"]
        )
        assert args.scenarios == ["thermal", "pendulum"]
        assert args.cases == 3
        assert args.engine == "lockstep"

    def test_sweep_axis_flag(self):
        args = build_parser().parse_args(
            ["sweep", "--axis", "horizon=6:12:3",
             "--axis", "state_weight=0.5:1:2", "--jobs", "2"]
        )
        first, second = args.axis
        assert first.name == "horizon"
        assert first.values == (6, 9, 12)  # integral values stay ints
        assert all(isinstance(v, int) for v in first.values)
        assert second.values == (0.5, 1)
        assert args.jobs == 2

    @pytest.mark.parametrize("command", ["batch", "sweep", "submit"])
    def test_kernel_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "--kernel", "numpy"])
        assert info.value.code == 2
        assert "--kernel" in capsys.readouterr().err
        # The lockstep timing switch that shared its helper stays.
        assert not build_parser().parse_args(
            [command, "--no-timing"]
        ).collect_timing

    def test_sweep_axis_flag_rejects_malformed(self):
        for bad in ("horizon", "horizon=1:2", "horizon=a:b:c", "=1:2:3",
                    "horizon=1:2:0"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--axis", bad])


class TestExecution:
    def test_sets_command_renders(self, acc_case, capsys):
        # acc_case fixture pre-populates the module cache, so the CLI
        # reuses the already-built sets.
        assert main(["sets", "--width", "40", "--height", "12"]) == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert "XI=" in out

    def test_timing_command(self, acc_case, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "controller:" in out
        assert "saving at 79 skips/100" in out

    def test_batch_command_writes_records(self, acc_case, capsys, tmp_path):
        out_path = tmp_path / "records.json"
        assert main(
            ["batch", "--episodes", "3", "--horizon", "8", "--jobs", "1",
             "--seed", "5", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "3 episodes" in out
        assert "skip rate" in out
        from repro.framework import BatchResult

        assert len(BatchResult.from_json(out_path)) == 3

    def test_batch_command_seed_reproducible(self, acc_case, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["batch", "--episodes", "2", "--horizon", "6",
                 "--seed", "11", "--out", str(path)]
            ) == 0
        from repro.framework import BatchResult

        first, second = (BatchResult.from_json(path) for path in paths)
        assert first.deterministic_records() == second.deterministic_records()

    def test_batch_engines_agree_end_to_end(self, acc_case, capsys, tmp_path):
        """The CLI's serial and lockstep engines write identical records."""
        results = {}
        for engine in ("serial", "lockstep"):
            path = tmp_path / f"{engine}.json"
            assert main(
                ["batch", "--episodes", "3", "--horizon", "8", "--seed", "5",
                 "--engine", engine, "--out", str(path)]
            ) == 0
            assert f"engine={engine}" in capsys.readouterr().out
            from repro.framework import BatchResult

            results[engine] = BatchResult.from_json(path)
        assert (
            results["serial"].deterministic_records()
            == results["lockstep"].deterministic_records()
        )

    _SMALL = ["--cases", "2", "--episodes", "2", "--horizon", "8",
              "--restarts", "1"]

    def test_compare_command_end_to_end(self, acc_case, capsys):
        assert main(["compare", *self._SMALL]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["RMPC-only"], ["bang_bang"], ["drl"])
        }
        assert set(rows) == {"RMPC-only", "bang_bang", "drl"}
        assert rows["RMPC-only"][1:] == ["-", "0%"]
        for name in ("bang_bang", "drl"):
            fuel, saving, skip = rows[name]
            assert float(fuel) > 0
            assert saving.endswith("%") and skip.endswith("%")

    def test_experiment_command_end_to_end(self, acc_case, capsys):
        assert main(["experiment", "ex1", *self._SMALL]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("ex1: DRL saving ")
        assert "bang-bang" in out and "skip" in out and "forced" in out

    def test_compare_and_experiment_share_table1_case(self, capsys):
        """Both verbs evaluate ex3 on its own Table-I vf range, so they
        print the same savings at the same seeds."""
        assert main(["compare", "--experiment", "ex3", *self._SMALL]) == 0
        rows = {
            line.split()[0]: line.split()[2]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["bang_bang"], ["drl"])
        }
        assert main(["experiment", "ex3", *self._SMALL]) == 0
        out = capsys.readouterr().out
        assert f"DRL saving {rows['drl']}" in out
        assert f"bang-bang {rows['bang_bang']}" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--experiment", "ex3", *_SMALL],
            ["experiment", "ex3", *_SMALL],
            ["batch", "--experiment", "ex3", "--episodes", "2",
             "--horizon", "8"],
        ],
        ids=["compare", "experiment", "batch"],
    )
    def test_acc_verbs_evaluate_table1_case(self, argv, monkeypatch):
        """Regression: every ACC verb runs exN on the case synthesised
        for exN's Table-I vf range, not on the default (30, 50) case."""
        import repro.acc as acc
        import repro.experiments as experiments
        from repro.acc import experiment_vf_range

        seen = []
        real_run, real_factory = (
            experiments.run_experiment, acc.acc_disturbance_factory
        )

        def spy_run(spec, execution=None):
            seen.append(spec.scenario.params.vf_range)
            return real_run(spec, execution)

        def spy_factory(case, experiment, horizon):
            seen.append(case.params.vf_range)
            return real_factory(case, experiment, horizon)

        monkeypatch.setattr(experiments, "run_experiment", spy_run)
        monkeypatch.setattr(acc, "acc_disturbance_factory", spy_factory)
        assert main(argv) == 0
        assert seen == [experiment_vf_range("ex3")]

    def test_scenarios_command_lists_zoo(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("acc", "thermal", "pendulum", "dc_motor", "lane_keeping"):
            assert name in out
        # The acceptance bar: at least five registered scenarios.
        count = int(out.split(" registered scenario", 1)[0].split()[-1])
        assert count >= 5

    def test_batch_rejects_experiment_on_non_acc_scenario(self, capsys):
        assert main(
            ["batch", "--scenario", "thermal", "--experiment", "ex5",
             "--episodes", "2", "--horizon", "5"]
        ) == 2
        err = capsys.readouterr().err
        assert "--experiment" in err
        assert "thermal" in err

    def test_batch_command_on_registry_scenario(self, capsys):
        assert main(
            ["batch", "--scenario", "thermal", "--episodes", "2",
             "--horizon", "6", "--engine", "lockstep"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario=thermal" in out
        assert "2 episodes" in out

    def test_batch_lockstep_telemetry_records_stage_timing(
        self, capsys, tmp_path
    ):
        """``batch --engine lockstep --telemetry-out`` carries the lockstep
        loop's stage breakdown: all four stages, as counters and spans."""
        import json

        path = tmp_path / "t.json"
        assert main(
            ["batch", "--scenario", "lane_keeping", "--episodes", "8",
             "--horizon", "20", "--engine", "lockstep",
             "--telemetry-out", str(path)]
        ) == 0
        snapshot = json.loads(path.read_text())
        stages = {"classify", "decide", "control", "step"}
        seconds = snapshot["counters"]["lockstep_stage_seconds"]
        assert {entry["labels"]["stage"] for entry in seconds} == stages
        assert {span["name"] for span in snapshot["spans"]} == {
            f"stage:{stage}" for stage in stages
        }

    def test_sweep_command_runs_and_reports_safe(self, capsys):
        assert main(
            ["sweep", "--scenarios", "thermal", "--cases", "2",
             "--horizon", "6", "--engine", "lockstep"]
        ) == 0
        out = capsys.readouterr().out
        assert "thermal" in out
        assert "bang_bang" in out
        assert "all scenarios safe" in out

    def test_sweep_command_with_axis_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        assert main(
            ["sweep", "--scenarios", "thermal", "--cases", "2",
             "--horizon", "6", "--engine", "lockstep",
             "--axis", "horizon=5:8:2", "--jobs", "2",
             "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert "thermal@horizon=5" in out
        assert "thermal@horizon=8" in out
        from repro.experiments import SweepResult

        table = SweepResult.from_csv(str(out_path))
        assert any(
            row["key"] == "thermal@horizon=8/bang_bang"
            for row in table.rows()
        )


class TestServiceCLI:
    def test_serve_submit_jobs_parser_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store", "/tmp/s", "--port", "0"]
        )
        assert (args.store, args.port, args.host) == (
            "/tmp/s", 0, "127.0.0.1"
        )
        args = build_parser().parse_args(
            ["submit", "--url", "http://h:1", "--scenarios", "thermal",
             "--axis", "horizon=5:8:2", "--cases", "2", "--wait",
             "--engine", "lockstep", "--out", "r.json"]
        )
        assert args.url == "http://h:1"
        assert args.wait and args.out == "r.json"
        assert args.axis[0].name == "horizon"
        assert build_parser().parse_args(["jobs"]).url == (
            "http://127.0.0.1:8712"
        )

    def test_submit_wait_against_live_service(self, capsys, tmp_path):
        import threading

        from repro.service import serve

        server = serve(tmp_path / "store", port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            argv = [
                "submit", "--url", server.url, "--scenarios", "thermal",
                "--cases", "2", "--horizon", "6", "--engine", "lockstep",
                "--wait", "--out", str(tmp_path / "result.json"),
            ]
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert "submitted job-1" in captured.out
            assert "0 served from the store, 1 solved" in captured.err
            assert (tmp_path / "result.json").exists()
            # Resubmit: 100% store-hits.
            assert main(argv[:-2]) == 0
            captured = capsys.readouterr()
            assert "1 served from the store, 0 solved" in captured.err
            assert main(["jobs", "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "job-1" in out and "job-2" in out
            assert "store:" in out
        finally:
            server.close()
            thread.join(timeout=10)

    def test_submit_unreachable_service_exits_2(self, capsys):
        assert main(
            ["submit", "--url", "http://127.0.0.1:1", "--scenarios",
             "thermal", "--cases", "2"]
        ) == 2
        assert "submission" in capsys.readouterr().err

    def test_sweep_checkpoint_reports_restored_split(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        argv = [
            "sweep", "--scenarios", "thermal", "--cases", "2",
            "--horizon", "6", "--engine", "lockstep",
            "--checkpoint", str(ckpt),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "0 cell(s) restored, 1 re-solved" in captured.err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1 cell(s) restored, 0 re-solved" in captured.err
