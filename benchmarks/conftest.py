"""Shared fixtures and scaling knobs for the benchmark suite.

Every bench regenerates one of the paper's tables/figures.  By default
the suite runs at *reduced scale* (tens of cases, short DRL training) so
``pytest benchmarks/ --benchmark-only`` finishes in minutes; set
``REPRO_FULL=1`` for paper-scale runs (500 cases, full training).

Printed tables appear with ``-s``; the same numbers are always attached
to the benchmark JSON via ``extra_info``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.acc import build_case_study, greedy_drl_policy, train_skipping_agent
from repro.experiments import ExperimentSpec, run_experiment

FULL = os.environ.get("REPRO_FULL", "0") == "1"

#: Number of evaluation cases per experiment (paper: 500).
CASES = 500 if FULL else 16
#: Cases for the headline Fig.-4 histogram (paper: 500).
CASES_FIG4 = 500 if FULL else 40
#: DRL training episodes per scenario.
EPISODES = 250 if FULL else 80
#: Episodes for the headline Fig.-4 agent.
EPISODES_FIG4 = 300 if FULL else 250
#: Training restarts (best-of-k validation selection) per scenario.
RESTARTS = 3 if FULL else 2
#: Restarts for the headline Fig.-4 agent.
RESTARTS_FIG4 = 3
#: Steps per evaluation case (paper: 100).
HORIZON = 100


@pytest.fixture(scope="session")
def acc_case():
    """The paper's default ACC case study (vf ∈ [30, 50])."""
    return build_case_study()


@pytest.fixture(scope="session")
def overall_agent(acc_case):
    """DRL agent trained on the Sec. IV-A sinusoidal scenario
    (best-of-k restart selection — see train_skipping_agent)."""
    agent, env, history = train_skipping_agent(
        acc_case, "overall", episodes=EPISODES_FIG4, seed=0,
        restarts=RESTARTS_FIG4,
    )
    return agent, env, history


def compare(case, experiment, num_cases, seed, agent=None, horizon=HORIZON):
    """The paired Sec.-IV comparison on ``case``: the κ-every-step
    ``"baseline"``, bang-bang and — given an agent — greedy DRL."""
    policies = {} if agent is None else {"drl": greedy_drl_policy(case, agent)}
    return run_experiment(
        ExperimentSpec(
            scenario=case,
            pattern=experiment,
            approaches=("bang_bang", *policies),
            num_cases=num_cases,
            horizon=horizon,
            seed=seed,
            policies=policies,
        )
    )


def emit(title: str, rows: list, header: tuple) -> None:
    """Print an aligned table (visible with pytest -s)."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def pct(x: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * x:.2f}%"
