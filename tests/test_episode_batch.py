"""The one episode-batch path: ``run_episodes`` behind both
``BatchRunner`` and ``paired_evaluation``.

Both callers hand the same dispatch the same cases, so on identical
initial states and realisations their deterministic outputs must agree
record for record, under either engine and on every zoo scenario.
"""

import numpy as np
import pytest

from repro import scenarios
from repro.framework import (
    ENGINES,
    BatchRunner,
    paired_evaluation,
    run_episodes,
)
from repro.skipping import AlwaysSkipPolicy, PeriodicSkipPolicy

CASES = 3
HORIZON = 12
SEED = 4


def _metrics_of(case):
    def metrics_of(stats):
        return (
            stats.energy,
            stats.skip_rate,
            stats.forced_steps,
            stats.max_violation(case.system.safe_set),
        )

    return metrics_of


def _workload(name):
    case = scenarios.build(name)
    rng = np.random.default_rng(SEED)
    states = case.sample_initial_states(rng, CASES)
    factory = case.disturbance_factory(HORIZON)
    realisations = [factory(e, rng) for e in range(CASES)]
    return case, states, realisations


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", scenarios.list_scenarios())
def test_paired_evaluation_matches_batch_runner(name, engine):
    case, states, realisations = _workload(name)
    policies = {
        "bang_bang": AlwaysSkipPolicy,
        "periodic2": lambda: PeriodicSkipPolicy(2),
    }
    paired = paired_evaluation(
        case.system,
        case.controller,
        case.make_monitor,
        {label: make() for label, make in policies.items()},
        states,
        realisations,
        _metrics_of(case),
        skip_input=case.skip_input,
        engine=engine,
    )
    for label, make in policies.items():
        batch = BatchRunner(
            case.system,
            case.controller,
            case.make_monitor,
            make,
            skip_input=case.skip_input,
            engine=engine,
        ).run(states, lambda episode: realisations[episode])
        # deterministic_view() leads with the episode index.
        assert paired[label] == [
            view[1:] for view in batch.deterministic_records()
        ]


def test_unknown_engine_rejected():
    case, states, realisations = _workload("thermal")
    with pytest.raises(ValueError, match="engine"):
        run_episodes(
            case.system, case.controller, case.make_monitor, None,
            states, realisations, engine="parallel",
        )
    with pytest.raises(ValueError, match="engine"):
        paired_evaluation(
            case.system, case.controller, case.make_monitor,
            {"baseline": None}, states, realisations, _metrics_of(case),
            engine="parallel",
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_realisation_count_must_match_cases(engine):
    case, states, realisations = _workload("thermal")
    with pytest.raises(ValueError, match="3 initial states but 2"):
        run_episodes(
            case.system, case.controller, case.make_monitor, None,
            states, realisations[:2], engine=engine,
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_runner_materialises_realisations_then_policies(engine):
    case, states, realisations = _workload("thermal")
    calls = []

    def sampler(episode):
        calls.append(("w", episode))
        return realisations[episode]

    def policy_factory():
        calls.append(("policy",))
        return AlwaysSkipPolicy()

    BatchRunner(
        case.system, case.controller, case.make_monitor, policy_factory,
        skip_input=case.skip_input, engine=engine,
    ).run(states, sampler)
    assert calls == [("w", e) for e in range(CASES)] + [("policy",)] * CASES
