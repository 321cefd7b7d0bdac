"""One prune per Pre step, checked against the two-prune route it replaces.

:func:`repro.geometry.project_onto` prunes between eliminations and only
deduplicates after the last one; :func:`repro.controllers.feasible.rmpc_feasible_set`
and :func:`repro.invariance.maximal_rci` prune once, after intersecting the
projection with their stage set.  The two-prune route
(:mod:`repro.geometry.reference`) also prunes the projection first.

* On the zoo every feasible set, every ``maximal_rci`` fallback and every
  ``is_rci`` verdict equals the two-prune route's, bitwise.
* On seeded random 1–2-D systems one Pre step, intersected and pruned, is
  set-equivalent under both routes.
* A 3-D → 1-D projection still prunes between its two eliminations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.controllers.feasible as feasible_module
from repro import scenarios
from repro.geometry import HPolytope, project_onto
from repro.geometry.reference import (
    is_rci_two_prune,
    maximal_rci_two_prune,
    pre_controllable_two_prune,
    rmpc_feasible_set_two_prune,
)
from repro.invariance import pre_controllable
from repro.observability import metrics as obs

SEEDED = settings(max_examples=60, deadline=None, derandomize=True)


def _same(a: HPolytope, b: HPolytope) -> bool:
    return (a.H.shape == b.H.shape and a.H.tobytes() == b.H.tobytes()
            and a.h.tobytes() == b.h.tobytes())


def _rmpc_cases():
    for name in scenarios.list_scenarios():
        if scenarios.get(name).controller == "rmpc":
            for horizon in (4, 6, 10):
                yield name, horizon


def _record(monkeypatch, attrs):
    """Wrap each ``feasible_module`` function named in ``attrs`` so every
    call's ``(args, kwargs, result)`` is recorded under its name."""
    calls = {attr: [] for attr in attrs}
    for attr in attrs:
        original = getattr(feasible_module, attr)

        def recording(*args, _original=original, _attr=attr, **kwargs):
            result = _original(*args, **kwargs)
            calls[_attr].append((args, kwargs, result))
            return result

        monkeypatch.setattr(feasible_module, attr, recording)
    return calls


class TestZooMatchesTwoPruneRoute:
    @pytest.mark.parametrize("name,horizon", list(_rmpc_cases()))
    def test_bitwise_equal(self, name, horizon, monkeypatch):
        calls = _record(
            monkeypatch, ("rmpc_feasible_set", "maximal_rci", "is_rci")
        )
        spec = scenarios.get(name).with_overrides(horizon=horizon)
        with obs.scoped_registry(enabled=False):
            scenarios.build_case_study(spec, use_cache=False)
            assert calls["rmpc_feasible_set"]
            for (controller,), _, result in calls["rmpc_feasible_set"]:
                assert _same(result, rmpc_feasible_set_two_prune(controller))
            # Pendulum's X_F fails the RCI certificate (Prop. 1 does not
            # hold under the open-loop tightening), so it takes the
            # maximal-RCI fallback at every horizon.
            assert bool(calls["maximal_rci"]) == (name == "pendulum")
            for args, kwargs, result in calls["maximal_rci"]:
                reference = maximal_rci_two_prune(*args, **kwargs)
                assert _same(result.invariant_set, reference.invariant_set)
                assert (result.iterations, result.converged) == (
                    reference.iterations, reference.converged
                )
            for args, kwargs, verdict in calls["is_rci"]:
                assert verdict == is_rci_two_prune(*args, **kwargs)


@st.composite
def pre_steps(draw):
    """A 1–2-D ``(A, B)`` with 1–2 inputs, box ``U`` and ``W``, a random
    target around the origin and a box stage set; the origin stays
    inside the result, so it is non-empty and full-dimensional."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    u = rng.uniform(0.2, 2.0, size=m)
    w = rng.uniform(0.0, 0.1, size=n)
    rows = draw(st.integers(0, 6))
    target = HPolytope(
        np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(rows, n))]),
        np.concatenate([rng.uniform(0.5, 3.0, size=2 * n + rows)]),
    )
    x = rng.uniform(0.5, 5.0, size=n)
    return (A, B, HPolytope.from_box(-u, u), HPolytope.from_box(-w, w),
            target, HPolytope.from_box(-x, x))


class TestRandomPreStepsMatchTwoPruneRoute:
    @SEEDED
    @given(pre_steps())
    def test_set_equivalent(self, case):
        A, B, U, W, target, stage = case
        one = pre_controllable(A, B, U, target, W).intersect(stage)
        two = pre_controllable_two_prune(A, B, U, target, W).intersect(stage)
        one, two = one.remove_redundancies(), two.remove_redundancies()
        assert one.num_constraints == two.num_constraints
        assert one.contains_polytope(two, 1e-9)
        assert two.contains_polytope(one, 1e-9)


class TestProjectionPrunes:
    @staticmethod
    def _rotated_box():
        angle = 0.3
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        R = R @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        box = HPolytope.from_box([-1.0, -2.0, -0.5], [1.0, 2.0, 0.5])
        return box.linear_preimage(R.T)  # {R y : y in box}

    def _prunes(self, monkeypatch, poly, keep):
        count = [0]
        original = HPolytope.remove_redundancies

        def counting(self, tol=1e-9):
            count[0] += 1
            return original(self, tol)

        monkeypatch.setattr(HPolytope, "remove_redundancies", counting)
        result = project_onto(poly, keep)
        monkeypatch.setattr(HPolytope, "remove_redundancies", original)
        return result, count[0]

    def test_three_to_one_prunes_between_eliminations(self, monkeypatch):
        poly = self._rotated_box()
        result, prunes = self._prunes(monkeypatch, poly, 1)
        assert prunes == 1
        # 1-D rows are ±1 after normalisation, so deduplication alone
        # leaves the interval's two rows.
        assert result.num_constraints == 2
        expected = poly.support_batch(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        got = result.support_batch(np.array([[1.0], [-1.0]]))
        assert np.allclose(got, expected, atol=1e-9)

    def test_last_elimination_only_deduplicates(self, monkeypatch):
        """A redundant row survives the last elimination: callers prune."""
        poly = HPolytope(
            np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 0.0]]]),
            np.concatenate([np.ones(6), [5.0]]),
        )
        result, prunes = self._prunes(monkeypatch, poly, 2)
        assert prunes == 0
        assert result.num_constraints == 5
        pruned = result.remove_redundancies()
        assert pruned.num_constraints == 4
        assert pruned.equals(result, 1e-9)
