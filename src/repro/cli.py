"""Command-line interface for reproducing the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli sets                 # Fig. 1: nested safe sets
    python -m repro.cli compare --cases 12   # Sec. IV-A three-way comparison
    python -m repro.cli experiment ex5       # one Table-I/Fig-5/6 scenario
    python -m repro.cli timing               # computation-saving numbers
    python -m repro.cli batch --episodes 64 --jobs 4 --seed 7 --out b.json
    python -m repro.cli scenarios            # list the registered scenario zoo
    python -m repro.cli scenarios --detail   # + synthesised set sizes/timing
    python -m repro.cli batch --scenario pendulum --engine lockstep
    python -m repro.cli sweep --cases 8      # Table-I-style cross-scenario sweep
    python -m repro.cli serve --store /tmp/store        # experiment service
    python -m repro.cli submit --wait --cases 4         # sweep over HTTP
    python -m repro.cli jobs                 # service job list + store stats

Each subcommand prints the same tables the benchmark suite emits, at a
scale chosen via flags, so results can be regenerated without pytest.

Execution engines: ``batch``, ``compare`` and ``experiment`` accept
``--engine {serial,parallel,lockstep}``.  ``parallel`` fans
episodes/cases out over ``--jobs N`` forked worker processes
(``--jobs 0`` = one per CPU); ``lockstep`` advances all episodes as a
single ``(N, n)`` state matrix in one process — the fast path on
single-core hosts.  Results are reproducible by construction:
``--seed S`` fixes a root seed from which every episode derives its own
private ``numpy`` generator streams (disturbances and stochastic
policies alike), so any engine/jobs choice produces the same
deterministic record fields (energy, skip rate, forced steps,
violations) as a serial run — wall-clock timing fields naturally vary
with contention.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np


def _echo(text="", err: bool = False) -> None:
    """Write one line of user-facing CLI output.

    The CLI's tables go to stdout via this helper; diagnostics go
    through :mod:`logging` (``-v``/``-vv``; see
    :mod:`repro.observability.logconfig`), so the two streams never
    interleave in pipelines.
    """
    stream = sys.stderr if err else sys.stdout
    stream.write(str(text) + "\n")


def _telemetry_scope(args):
    """``(context manager, on)`` for a subcommand's telemetry flags."""
    from repro.observability import metrics as _obs

    on = bool(getattr(args, "telemetry", False)) or bool(
        getattr(args, "telemetry_out", None)
    )
    return (_obs.scoped_registry(enabled=True) if on else nullcontext(None)), on


def _emit_snapshot(snapshot: dict, out) -> None:
    """Render a snapshot to stdout, or write it as JSON to ``out``."""
    import json

    from repro.observability import render_table

    if out:
        with open(out, "w") as handle:
            json.dump(snapshot, handle, indent=2)
        _echo(f"telemetry snapshot written to {out}")
    else:
        _echo()
        _echo(render_table(snapshot))


def _add_telemetry_flags(parser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect metrics/spans for this run and print the snapshot "
             "table (deterministic record fields are bitwise-unchanged)",
    )
    parser.add_argument(
        "--telemetry-out", default=None, metavar="PATH", dest="telemetry_out",
        help="write the telemetry snapshot as JSON to PATH instead of "
             "printing it (implies --telemetry; inspect later with "
             "`repro telemetry PATH`)",
    )


def _cmd_sets(args) -> int:
    from repro.acc import build_case_study
    from repro.geometry import ascii_sets

    case = build_case_study()
    _echo("Nested safe sets (paper Fig. 1): '.'=X  '+'=XI  '#'=X'\n")
    _echo(
        ascii_sets(
            [case.system.safe_set, case.invariant_set, case.strengthened_set],
            glyphs=[".", "+", "#"],
            width=args.width,
            height=args.height,
        )
    )
    _echo(f"\nareas: X={case.system.safe_set.volume():.0f} "
          f"XI={case.invariant_set.volume():.0f} "
          f"X'={case.strengthened_set.volume():.0f}")
    return 0


def _acc_comparison(args, experiment: str):
    """Train the DRL agent for ``experiment`` and run the paired Sec.-IV
    comparison on that experiment's Table-I case study.

    The one evaluation path of ``compare`` and ``experiment``: both
    verbs evaluate on :func:`~repro.acc.case_study_for_experiment`, so
    Ex.2–Ex.5 run on their own vf range and certified sets.
    """
    from repro.acc import (
        case_study_for_experiment,
        greedy_drl_policy,
        train_skipping_agent,
    )
    from repro.experiments import ExecutionConfig, ExperimentSpec, run_experiment

    case = case_study_for_experiment(experiment)
    agent, _env, _history = train_skipping_agent(
        case, experiment, episodes=args.episodes, seed=args.seed,
        restarts=args.restarts,
    )
    return run_experiment(
        ExperimentSpec(
            scenario=case,
            pattern=experiment,
            approaches=("bang_bang", "drl"),
            num_cases=args.cases,
            horizon=args.horizon,
            seed=args.seed + 1,
            policies={"drl": greedy_drl_policy(case, agent)},
        ),
        ExecutionConfig(
            engine=_resolve_engine(args), jobs=args.jobs,
            exact_solves=args.exact_solves, lp_backend=args.lp_backend,
        ),
    )


def _cmd_compare(args) -> int:
    _echo(f"training DQN ({args.episodes} episodes, {args.restarts} restart(s))...")
    cell = _acc_comparison(args, args.experiment)
    _echo(f"\n{'approach':<12} {'fuel[g]':>8} {'saving':>8} {'skip%':>6}")
    baseline = cell.stats("baseline").metrics
    _echo(f"{'RMPC-only':<12} {baseline['fuel'].mean():8.2f} {'-':>8} {0:5d}%")
    for name in ("bang_bang", "drl"):
        metrics = cell.stats(name).metrics
        _echo(
            f"{name:<12} {metrics['fuel'].mean():8.2f} "
            f"{100*cell.fuel_saving(name).mean():7.2f}% "
            f"{100*metrics['skip_rate'].mean():5.0f}%"
        )
    return 0


def _cmd_experiment(args) -> int:
    cell = _acc_comparison(args, args.name)
    drl = cell.stats("drl").metrics
    _echo(
        f"{args.name}: DRL saving {100*cell.fuel_saving('drl').mean():.2f}%  "
        f"bang-bang {100*cell.fuel_saving('bang_bang').mean():.2f}%  "
        f"(skip {drl['skip_rate'].mean():.2f}, "
        f"forced {drl['forced_steps'].mean():.1f})"
    )
    return 0


def _resolve_engine(args) -> str:
    """The effective engine: an explicit ``--engine`` wins, else
    parallel iff ``--jobs != 1`` (argparse ``choices`` validates)."""
    if args.engine is not None:
        return args.engine
    return "parallel" if args.jobs != 1 else "serial"


def _parse_axis(text: str):
    """``name=lo:hi:n`` → a numeric :class:`ParameterAxis`.

    ``name`` is the overridden scenario-spec field; integral values
    collapse to ``int`` so integer fields (e.g. the RMPC ``horizon``)
    stay integers.
    """
    import argparse as _argparse

    from repro.experiments import ParameterAxis

    try:
        name, spec = text.split("=", 1)
        lo_text, hi_text, num_text = spec.split(":")
        lo, hi, num = float(lo_text), float(hi_text), int(num_text)
    except ValueError:
        raise _argparse.ArgumentTypeError(
            f"axis must look like 'field=lo:hi:n', got {text!r}"
        ) from None
    if not name or num < 1:
        raise _argparse.ArgumentTypeError(
            f"axis must look like 'field=lo:hi:n' with n >= 1, got {text!r}"
        )
    axis = ParameterAxis.linspace(name, lo, hi, num)
    values = tuple(
        int(v) if float(v).is_integer() else float(v) for v in axis.values
    )
    return ParameterAxis(name=name, values=values)


def _cmd_scenarios(args) -> int:
    import time

    from repro import scenarios

    names = scenarios.list_scenarios()
    _echo(f"{len(names)} registered scenario(s):\n")
    if not args.detail:
        _echo(f"{'name':<14} {'n':>2} {'m':>2} {'controller':<10} description")
        for name in names:
            spec = scenarios.get(name)
            _echo(
                f"{name:<14} {spec.n:>2} {spec.m:>2} {spec.controller:<10} "
                f"{spec.description}"
            )
        _echo("\n(--detail synthesises each scenario's certified sets)")
        return 0
    _echo(
        f"{'name':<14} {'n':>2} {'controller':<10} {'build[s]':>9} "
        f"{'XI rows':>7} {'X` rows':>7} {'X` radius':>9}"
    )
    for name in names:
        tick = time.perf_counter()
        case = scenarios.build(name)
        elapsed = time.perf_counter() - tick
        _, radius = case.strengthened_set.chebyshev_center()
        _echo(
            f"{name:<14} {case.system.n:>2} {case.spec.controller:<10} "
            f"{elapsed:>9.2f} {case.invariant_set.num_constraints:>7} "
            f"{case.strengthened_set.num_constraints:>7} {radius:>9.4f}"
        )
    return 0


def _cmd_sweep(args) -> int:
    from repro import scenarios
    from repro.experiments import ExecutionConfig, SweepPlan, run_sweep

    names = args.scenarios or scenarios.list_scenarios()
    axes = tuple(args.axis or ())
    plan = SweepPlan.for_scenarios(
        names,
        axes=axes,
        num_cases=args.cases,
        horizon=args.horizon,
        seed=args.seed,
    )
    telemetry_on = args.telemetry or bool(args.telemetry_out)
    execution = ExecutionConfig(
        engine=args.engine, jobs=args.jobs, exact_solves=args.exact_solves,
        lp_backend=args.lp_backend, collect_timing=args.collect_timing,
        telemetry=telemetry_on, on_error=args.on_error,
        cell_retries=args.cell_retries,
        cell_timeout=args.cell_timeout,
        worker_retries=args.worker_retries,
    )
    cells = len(plan.cells())
    _echo(
        f"grid sweep: {len(names)} scenario(s)"
        + "".join(f" x {len(axis)} {axis.name}" for axis in axes)
        + f" = {cells} cell(s), {args.cases} cases x {args.horizon} steps, "
        f"engine={args.engine}, jobs={args.jobs}, seed={args.seed}\n"
    )
    result = run_sweep(plan, execution, checkpoint=args.checkpoint)
    if args.checkpoint is not None:
        # The resume split, on stderr so piped stdout tables stay clean
        # (also counted as sweep_cells_restored_total /
        # sweep_cells_solved_total in the telemetry snapshot).
        _echo(
            f"checkpoint {args.checkpoint}: "
            f"{len(result.restored)} cell(s) restored, "
            f"{len(result.cells) - len(result.restored)} re-solved",
            err=True,
        )
    _echo(
        f"{'cell':<26} {'approach':<10} {'saving':>8} {'skip%':>6} "
        f"{'forced':>7} {'max viol':>9} {'safe':>5}"
    )
    for row in result.rows():
        if row["approach"] == "baseline":
            continue
        _echo(
            f"{(row['scenario'] + ('@' + row['point'] if row['point'] else '')):<26} "
            f"{row['approach']:<10} "
            f"{100 * row['energy_saving']:7.1f}% "
            f"{100 * row['mean_skip_rate']:5.0f}% "
            f"{row['mean_forced_steps']:7.1f} "
            f"{row['max_violation']:9.2e} "
            f"{str(row['safe']):>5}"
        )
    if args.out:
        if args.out.endswith(".csv"):
            result.to_csv(args.out)
        else:
            result.to_json(args.out)
        _echo(f"\nsweep table written to {args.out}")
    if telemetry_on:
        _emit_snapshot(result.telemetry, args.telemetry_out)
    status = 0
    if result.failures:
        _echo(
            f"\nERROR: {len(result.failures)}/{cells} cell(s) failed:",
            err=True,
        )
        for failure in result.failures:
            _echo(
                f"  {failure.key}: {failure.error_type} "
                f"(stage={failure.stage}, attempts={failure.attempts}): "
                f"{failure.message}",
                err=True,
            )
        status = 1
    if not result.always_safe:
        _echo("\nERROR: a trajectory left the safe set under the monitor")
        return 1
    if status == 0:
        _echo("\nall scenarios safe under the certified monitor")
    return status


def _cmd_serve(args) -> int:
    from repro.service import serve

    server = serve(args.store, host=args.host, port=args.port)
    _echo(
        f"experiment service on {server.url} (store: {args.store}) — "
        "Ctrl-C to stop",
        err=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _echo("shutting down", err=True)
    finally:
        server.close()
    return 0


def _build_submit_plan(args):
    """A declarative SweepPlan from `repro submit`'s flags."""
    from repro import scenarios
    from repro.experiments import ExecutionConfig, SweepPlan

    names = args.scenarios or scenarios.list_scenarios()
    execution = ExecutionConfig(
        engine=args.engine, jobs=args.jobs, exact_solves=args.exact_solves,
        lp_backend=args.lp_backend, collect_timing=args.collect_timing,
        telemetry=args.telemetry, on_error=args.on_error,
    )
    return SweepPlan.for_scenarios(
        names,
        axes=tuple(args.axis or ()),
        execution=execution,
        num_cases=args.cases,
        horizon=args.horizon,
        seed=args.seed,
    )


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        job_id = client.submit(_build_submit_plan(args))
    except (ServiceError, OSError) as exc:
        _echo(f"error: submission to {args.url} failed: {exc}", err=True)
        return 2
    _echo(f"submitted {job_id} to {args.url}")
    if not args.wait:
        return 0
    status = client.wait(job_id, timeout=args.timeout, poll=args.poll)
    restored = status["cells_restored"]
    _echo(
        f"{job_id}: {status['state']} — {status['cells_done']}/"
        f"{status['cells_total']} cell(s), {restored} served from the "
        f"store, {status['cells_done'] - restored} solved",
        err=True,
    )
    if status["state"] != "done":
        if status["error"]:
            _echo(f"error: {status['error']}", err=True)
        return 1
    result = client.result(job_id)
    if args.out:
        if args.out.endswith(".csv"):
            result.to_csv(args.out)
        else:
            result.to_json(args.out)
        _echo(f"sweep table written to {args.out}")
    if result.failures:
        _echo(
            f"WARNING: {len(result.failures)} cell(s) failed", err=True
        )
        return 1
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        jobs = client.jobs()
        stats = client.store_stats()
    except (ServiceError, OSError) as exc:
        _echo(f"error: cannot reach {args.url}: {exc}", err=True)
        return 2
    _echo(f"{'job':<10} {'state':<10} {'cells':>7} {'restored':>8} "
          f"{'rows':>6} {'failures':>8}")
    for job in jobs:
        _echo(
            f"{job['id']:<10} {job['state']:<10} "
            f"{job['cells_done']:>3}/{job['cells_total']:<3} "
            f"{job['cells_restored']:>8} {job['rows']:>6} "
            f"{len(job['failures']):>8}"
        )
    _echo(
        f"\nstore: {stats['files']} record(s), {stats['bytes']} bytes, "
        f"{stats['hits']} hit(s) / {stats['misses']} miss(es) / "
        f"{stats['puts']} put(s) this server"
    )
    return 0


def _cmd_batch(args) -> int:
    import time

    from repro.framework import BatchRunner, ParallelBatchRunner
    from repro.skipping import AlwaysSkipPolicy

    engine = _resolve_engine(args)
    if args.scenario == "acc":
        from repro.acc import acc_disturbance_factory, case_study_for_experiment

        experiment = args.experiment or "overall"
        case = case_study_for_experiment(experiment)
        controller = case.mpc
        factory = acc_disturbance_factory(case, experiment, args.horizon)
    else:
        if args.experiment is not None:
            _echo(
                f"error: --experiment selects an ACC front-vehicle pattern "
                f"and does not apply to scenario {args.scenario!r} "
                "(non-ACC scenarios draw i.i.d. disturbances from their W)",
                err=True,
            )
            return 2
        from repro import scenarios

        case = scenarios.build(args.scenario)
        controller = case.controller
        factory = case.disturbance_factory(args.horizon)
    common = dict(
        monitor_factory=case.make_monitor,
        policy_factory=AlwaysSkipPolicy,
        skip_input=case.skip_input,
    )
    if engine == "parallel":
        runner = ParallelBatchRunner(
            case.system, controller, jobs=args.jobs, **common
        )
    else:
        runner = BatchRunner(
            case.system, controller, engine=engine,
            exact_solves=args.exact_solves, lp_backend=args.lp_backend,
            collect_timing=args.collect_timing, **common,
        )
    rng = np.random.default_rng(args.seed)
    states = case.sample_initial_states(rng, args.episodes)
    scope, telemetry_on = _telemetry_scope(args)
    tick = time.perf_counter()
    with scope as reg:
        result = runner.run_seeded(states, factory, root_seed=args.seed)
        snapshot = reg.snapshot() if reg is not None else None
    elapsed = time.perf_counter() - tick
    _echo(
        f"{len(result)} episodes in {elapsed:.2f}s "
        f"({len(result) / elapsed:.2f} ep/s, scenario={args.scenario}, "
        f"engine={engine}, jobs={args.jobs})"
    )
    if result.records:
        _echo(
            f"skip rate {result.mean('skip_rate'):.3f}  "
            f"energy {result.mean('energy'):.3f}  "
            f"forced {result.mean('forced_steps'):.2f}  "
            f"max violation {max(r.max_violation for r in result.records):.2e}"
        )
    if args.out:
        if args.out.endswith(".csv"):
            result.to_csv(args.out)
        else:
            result.to_json(args.out)
        _echo(f"records written to {args.out}")
    if telemetry_on:
        _emit_snapshot(snapshot, args.telemetry_out)
    return 0


def _cmd_telemetry(args) -> int:
    import json

    from repro.observability import render_prometheus, render_table

    with open(args.file) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and "counters" in payload:
        snapshot = payload  # a bare snapshot
    elif isinstance(payload, dict):
        snapshot = payload.get("telemetry")  # embedded (sweep JSON, bench)
    else:
        snapshot = None
    if not isinstance(snapshot, dict):
        _echo(
            f"error: {args.file} contains no telemetry snapshot (expected "
            "a snapshot object or a result JSON with a 'telemetry' key — "
            "was the run made with --telemetry?)",
            err=True,
        )
        return 2
    render = render_prometheus if args.format == "prometheus" else render_table
    _echo(render(snapshot))
    return 0


def _cmd_timing(args) -> int:
    import timeit

    from repro.acc import build_case_study
    from repro.framework import computation_saving

    case = build_case_study()
    rng = np.random.default_rng(0)
    states = case.invariant_set.sample(rng, 16)
    t_controller = timeit.timeit(
        lambda: case.mpc.compute(states[0]), number=20
    ) / 20
    t_monitor = timeit.timeit(
        lambda: case.strengthened_set.contains(states[0]), number=200
    ) / 200
    _echo(f"controller: {1e3*t_controller:.3f} ms/step")
    _echo(f"monitor:    {1e3*t_monitor:.4f} ms/step")
    for skips in (60, 79, 90):
        saving = computation_saving(t_controller, t_monitor, 100, skips)
        _echo(f"computation saving at {skips} skips/100: {100*saving:.1f}%")
    return 0


def _add_engine_flag(parser) -> None:
    """Attach the shared ``--engine`` choice to a subcommand parser."""
    parser.add_argument(
        "--engine", choices=("serial", "parallel", "lockstep"), default=None,
        help="execution engine; default: parallel if --jobs != 1, else "
             "serial (lockstep advances all episodes as one state matrix "
             "— the single-core fast path)",
    )
    parser.add_argument(
        "--exact-solves", action="store_true", dest="exact_solves",
        help="lockstep only: keep MPC solves on the scalar path for "
             "record-for-record parity with the serial engine (default: "
             "stacked block-diagonal solves, plan-equivalent)",
    )
    _add_lp_backend_flag(parser)


def _add_lp_backend_flag(parser) -> None:
    """Attach the shared ``--lp-backend`` choice to a subcommand parser."""
    parser.add_argument(
        "--lp-backend", choices=("auto", "highs", "scipy"), default=None,
        dest="lp_backend",
        help="lockstep only: stacked-solve LP backend ('auto' and "
             "'scipy' = cold, bitwise with linprog; 'highs' = "
             "warm-started persistent HiGHS, plan-equivalent); default: "
             "keep each controller's own setting",
    )


def _add_timing_flag(parser) -> None:
    """Attach the lockstep ``--no-timing`` flag."""
    parser.add_argument(
        "--no-timing", action="store_false", dest="collect_timing",
        help="lockstep only: skip per-row wall-clock collection (timing "
             "columns read zero; deterministic metrics are unchanged bit "
             "for bit)",
    )


def _job_count(value: str) -> int:
    """argparse type for ``--jobs``: non-negative int (0 = one per CPU)."""
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            "jobs must be >= 0 (0 = one worker per CPU)"
        )
    return count


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DAC'20 opportunistic intermittent control"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostic logging on stderr under the 'repro' logger "
             "namespace (-v: INFO, -vv: DEBUG); tables stay on stdout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sets = sub.add_parser("sets", help="render the nested safe sets")
    p_sets.add_argument("--width", type=int, default=66)
    p_sets.add_argument("--height", type=int, default=22)
    p_sets.set_defaults(func=_cmd_sets)

    p_cmp = sub.add_parser("compare", help="three-way Sec. IV-A comparison")
    p_cmp.add_argument("--experiment", default="overall")
    p_cmp.add_argument("--cases", type=int, default=12)
    p_cmp.add_argument("--horizon", type=int, default=100)
    p_cmp.add_argument("--episodes", type=int, default=120)
    p_cmp.add_argument("--restarts", type=int, default=1)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument(
        "--jobs", type=_job_count, default=1,
        help="evaluation worker processes (0 = one per CPU)",
    )
    _add_engine_flag(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("experiment", help="run one ex1..ex10 scenario")
    p_exp.add_argument("name", help="experiment id (ex1..ex10, overall)")
    p_exp.add_argument("--cases", type=int, default=12)
    p_exp.add_argument("--horizon", type=int, default=100)
    p_exp.add_argument("--episodes", type=int, default=80)
    p_exp.add_argument("--restarts", type=int, default=1)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--jobs", type=_job_count, default=1,
        help="evaluation worker processes (0 = one per CPU)",
    )
    _add_engine_flag(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_bat = sub.add_parser(
        "batch",
        help="run a seeded bang-bang episode batch (serial or parallel)",
    )
    p_bat.add_argument("--episodes", type=int, default=16)
    p_bat.add_argument("--horizon", type=int, default=100)
    p_bat.add_argument(
        "--experiment", default=None,
        help="ACC front-vehicle pattern id (overall, ex1..ex10); only "
             "valid with --scenario acc (default: overall)",
    )
    p_bat.add_argument(
        "--scenario", default="acc",
        help="registered scenario to run (see `repro scenarios`); 'acc' "
             "keeps the paper's front-vehicle disturbance patterns, other "
             "scenarios draw i.i.d. disturbances from their W",
    )
    p_bat.add_argument(
        "--jobs", type=_job_count, default=1,
        help="worker processes (0 = one per CPU, 1 = serial)",
    )
    p_bat.add_argument(
        "--seed", type=int, default=0,
        help="root seed for the per-episode generator streams",
    )
    p_bat.add_argument(
        "--out", default=None,
        help="write records to this path (.csv for CSV, else JSON)",
    )
    _add_engine_flag(p_bat)
    _add_timing_flag(p_bat)
    _add_telemetry_flags(p_bat)
    p_bat.set_defaults(func=_cmd_batch)

    p_tim = sub.add_parser("timing", help="computation-saving numbers")
    p_tim.set_defaults(func=_cmd_timing)

    p_scn = sub.add_parser(
        "scenarios", help="list the registered scenario zoo"
    )
    p_scn.add_argument(
        "--detail", action="store_true",
        help="synthesise each scenario and report set sizes + build time",
    )
    p_scn.set_defaults(func=_cmd_scenarios)

    p_swp = sub.add_parser(
        "sweep", help="Table-I-style paired grid sweep across scenarios"
    )
    p_swp.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="scenario subset (default: every registered scenario)",
    )
    p_swp.add_argument(
        "--axis", type=_parse_axis, action="append", default=None,
        metavar="FIELD=LO:HI:N",
        help="parameter axis: N evenly-spaced overrides of a scenario-spec "
             "field (e.g. 'horizon=6:12:3', 'state_weight=0.5:2:4'); "
             "repeatable — multiple axes form their cartesian product",
    )
    p_swp.add_argument("--cases", type=int, default=8)
    p_swp.add_argument("--horizon", type=int, default=50)
    p_swp.add_argument("--seed", type=int, default=1)
    p_swp.add_argument(
        "--jobs", type=_job_count, default=1,
        help="worker processes (0 = one per CPU): grid cells are sharded "
             "whole across workers for the serial/lockstep engines; for "
             "the parallel engine this is the per-case fan-out width",
    )
    p_swp.add_argument(
        "--engine", choices=("serial", "parallel", "lockstep"),
        default="serial",
        help="execution engine inside every grid cell",
    )
    p_swp.add_argument(
        "--exact-solves", action="store_true", dest="exact_solves",
        help="lockstep only: scalar MPC solves for record-for-record "
             "parity with the serial engine",
    )
    _add_lp_backend_flag(p_swp)
    _add_timing_flag(p_swp)
    p_swp.add_argument(
        "--on-error", choices=("fail", "record", "retry"), default="fail",
        dest="on_error",
        help="cell-failure policy: abort the sweep (fail, default), "
             "record a structured CellFailure and keep going (record), "
             "or retry the cell first — with a scipy LP-backend "
             "degradation for solver errors (retry)",
    )
    p_swp.add_argument(
        "--cell-retries", type=int, default=1, dest="cell_retries",
        metavar="N",
        help="extra attempts per failing cell under --on-error retry",
    )
    p_swp.add_argument(
        "--cell-timeout", type=float, default=None, dest="cell_timeout",
        metavar="SECONDS",
        help="per-cell wall-clock budget under sharded execution "
             "(jobs > 1): a hung worker is killed and its cells respawn",
    )
    p_swp.add_argument(
        "--worker-retries", type=int, default=2, dest="worker_retries",
        metavar="N",
        help="worker deaths/timeouts tolerated per cell before giving "
             "it up",
    )
    p_swp.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="spill each completed cell's JSON into DIR and, on rerun, "
             "load matching cells from there instead of re-solving",
    )
    p_swp.add_argument(
        "--out", default=None,
        help="write the sweep table to this path (.csv for the flat "
             "aggregate table, else full-fidelity JSON — telemetry "
             "snapshots are embedded in the JSON form)",
    )
    _add_telemetry_flags(p_swp)
    p_swp.set_defaults(func=_cmd_sweep)

    p_srv = sub.add_parser(
        "serve",
        help="run the experiment service (sweeps over HTTP, backed by a "
             "shared content-addressed result store)",
    )
    p_srv.add_argument(
        "--store", required=True, metavar="DIR",
        help="result-store directory shared by every job (created if "
             "missing; also usable as a `repro sweep --checkpoint` dir)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8712,
        help="TCP port (0 = pick an ephemeral port; default: 8712)",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit",
        help="submit a grid sweep to a running experiment service",
    )
    p_sub.add_argument(
        "--url", default="http://127.0.0.1:8712",
        help="service base URL (default: http://127.0.0.1:8712)",
    )
    p_sub.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="scenario subset (default: every registered scenario)",
    )
    p_sub.add_argument(
        "--axis", type=_parse_axis, action="append", default=None,
        metavar="FIELD=LO:HI:N",
        help="parameter axis, repeatable (same syntax as `repro sweep`)",
    )
    p_sub.add_argument("--cases", type=int, default=8)
    p_sub.add_argument("--horizon", type=int, default=50)
    p_sub.add_argument("--seed", type=int, default=1)
    p_sub.add_argument(
        "--jobs", type=_job_count, default=1,
        help="server-side worker processes for the dirty cells",
    )
    p_sub.add_argument(
        "--engine", choices=("serial", "parallel", "lockstep"),
        default="serial",
        help="execution engine inside every grid cell",
    )
    p_sub.add_argument(
        "--exact-solves", action="store_true", dest="exact_solves",
        help="lockstep only: scalar MPC solves for record-for-record "
             "parity with the serial engine",
    )
    _add_lp_backend_flag(p_sub)
    _add_timing_flag(p_sub)
    p_sub.add_argument(
        "--on-error", choices=("fail", "record", "retry"), default="fail",
        dest="on_error",
        help="server-side cell-failure policy (same as `repro sweep`)",
    )
    p_sub.add_argument(
        "--telemetry", action="store_true",
        help="run the job with full telemetry (embedded in the result "
             "JSON fetched with --wait --out)",
    )
    p_sub.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and report the restored/solved "
             "split (exit 1 on failure)",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (with --wait)",
    )
    p_sub.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="status poll interval (with --wait; default: 0.2)",
    )
    p_sub.add_argument(
        "--out", default=None,
        help="with --wait: write the finished sweep table to this path "
             "(.csv for the flat table, else full-fidelity JSON)",
    )
    p_sub.set_defaults(func=_cmd_submit)

    p_job = sub.add_parser(
        "jobs", help="list a running experiment service's jobs + store stats"
    )
    p_job.add_argument(
        "--url", default="http://127.0.0.1:8712",
        help="service base URL (default: http://127.0.0.1:8712)",
    )
    p_job.set_defaults(func=_cmd_jobs)

    p_tel = sub.add_parser(
        "telemetry", help="render a saved telemetry snapshot"
    )
    p_tel.add_argument(
        "file",
        help="a snapshot JSON (--telemetry-out), a sweep JSON (--out), or "
             "any JSON with a 'telemetry' key",
    )
    p_tel.add_argument(
        "--format", choices=("table", "prometheus"), default="table",
        help="output format (prometheus = text exposition format)",
    )
    p_tel.set_defaults(func=_cmd_telemetry)
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    from repro.observability import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
