"""ACC case study (paper Sec. IV): model, sets, DRL env, experiments."""

from repro.acc.case_study import (
    ACCCaseStudy,
    acc_scenario_spec,
    build_case_study,
    clear_case_study_cache,
)
from repro.acc.env import ACCSkippingEnv
from repro.acc.experiments import (
    FIG4_BIN_EDGES,
    acc_disturbance_factory,
    case_study_for_experiment,
    experiment_vf_range,
    greedy_drl_policy,
    saving_histogram,
    train_skipping_agent,
)
from repro.acc.model import ACCCoordinates, ACCParameters, build_acc_system

__all__ = [
    "ACCParameters",
    "ACCCoordinates",
    "build_acc_system",
    "ACCCaseStudy",
    "acc_scenario_spec",
    "build_case_study",
    "clear_case_study_cache",
    "ACCSkippingEnv",
    "train_skipping_agent",
    "acc_disturbance_factory",
    "greedy_drl_policy",
    "case_study_for_experiment",
    "experiment_vf_range",
    "saving_histogram",
    "FIG4_BIN_EDGES",
]
