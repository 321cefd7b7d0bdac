"""Shared fixtures for the test suite.

The ACC case study takes ~10 s to assemble (set computations), so it is
built once per session and shared; tests must not mutate it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acc import ACCParameters, build_case_study
from repro.controllers import LinearFeedback, lqr_gain
from repro.geometry import HPolytope
from repro.systems import DiscreteLTISystem


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def unit_box():
    """[-1, 1]^2."""
    return HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])


@pytest.fixture
def small_box():
    """[-0.5, 0.5]^2."""
    return HPolytope.from_box([-0.5, -0.5], [0.5, 0.5])


@pytest.fixture
def triangle():
    """A right triangle with vertices (0,0), (2,0), (0,2)."""
    return HPolytope.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])


def make_double_integrator(dt: float = 0.1, w_bound: float = 0.02):
    """Constrained double integrator used across controller tests.

    x = (position, velocity), u = acceleration; disturbance on both
    states (full-dimensional, so no set built from it is flat).
    """
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    safe = HPolytope.from_box([-5.0, -2.0], [5.0, 2.0])
    inputs = HPolytope.from_box([-3.0], [3.0])
    disturbance = HPolytope.from_box([-w_bound, -w_bound], [w_bound, w_bound])
    return DiscreteLTISystem(A, B, safe, inputs, disturbance)


@pytest.fixture
def double_integrator():
    """Shared constrained double-integrator plant."""
    return make_double_integrator()


@pytest.fixture
def di_feedback(double_integrator):
    """LQR feedback for the double integrator, with saturation."""
    K = lqr_gain(double_integrator.A, double_integrator.B, np.eye(2), np.eye(1))
    lo, hi = double_integrator.input_set.bounding_box()
    return LinearFeedback(K, saturation=(lo, hi))


@pytest.fixture(scope="session")
def acc_case():
    """The paper's ACC case study (built once; treat as read-only)."""
    return build_case_study(ACCParameters())
