"""Scenario zoo: registry + builder turning any constrained LTI plant
into a full paper-style benchmark (certified ``XI``, strengthened ``X'``,
skip-aware monitor, initial-state sampler, seeded disturbances).

Importing this package registers the built-in scenarios
(:mod:`repro.scenarios.library`): ``acc``, ``thermal``, ``pendulum``,
``dc_motor`` and ``lane_keeping``.
"""

from repro.scenarios.builder import (
    CaseStudy,
    build_case_study,
    clear_case_study_cache,
)
from repro.scenarios.registry import (
    build,
    get,
    list_scenarios,
    register,
    register_scenario,
    unregister,
)
from repro.scenarios.spec import ScenarioSpec, ScenarioSynthesisError

# Populate the registry with the built-in zoo (must come after the
# builder/registry imports above; the library leans on both).
from repro.scenarios import library as _library  # noqa: E402,F401

__all__ = [
    "ScenarioSpec",
    "ScenarioSynthesisError",
    "CaseStudy",
    "build_case_study",
    "clear_case_study_cache",
    "register",
    "register_scenario",
    "unregister",
    "get",
    "build",
    "list_scenarios",
]
