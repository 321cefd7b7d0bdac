"""Closed-form emptiness and containment decisions agree with the LP route.

:meth:`HPolytope.is_empty` and :meth:`HPolytope.contains_polytope` decide
non-emptiness of 1-D and 2-D polytopes by a checked witness and the
containment of 2-D ones by checked certificates (points of ``other`` or
weak duality on its vertex cycle), and take the LP route otherwise.  A
decision must be the LP route's answer ("fast vs reference agree"):
``lp_feasible`` for emptiness, the stacked ``support_batch`` route for
containment.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.geometry import HPolytope
from repro.geometry import hpolytope as hp
from repro.geometry.hpolytope import DECISIONS_CLOSED_FORM_METRIC
from repro.observability import metrics as obs
from repro.utils.lp import LP_SOLVES_METRIC, lp_feasible

FAST = settings(max_examples=150, deadline=None)

#: 1-D and 2-D zoo scenarios: every one of their emptiness checks is
#: offered a witness, and the 2-D ones every containment check a
#: certificate.
PLANAR_SCENARIOS = ("acc", "pendulum", "thermal")
POLYGON_SCENARIOS = ("acc", "pendulum")


@contextmanager
def lp_route():
    """Every emptiness and containment check takes the LP route."""
    with mock.patch.object(hp, "_has_witness", lambda *args: False), \
            mock.patch.object(hp, "_decide_contains", lambda *args: None):
        yield


def lp_empty(poly: HPolytope, tol: float) -> bool:
    return not lp_feasible(poly.H, poly.h + tol)


lp_contains = hp._contains_by_lp


def _polygon(rng, rows: int) -> HPolytope:
    """A bounded polygon: random rows around the origin inside a box."""
    angles = rng.uniform(0.0, 2 * np.pi, size=rows)
    H = np.column_stack([np.cos(angles), np.sin(angles)])
    h = rng.uniform(0.3, 2.0, size=rows)
    box = np.vstack([np.eye(2), -np.eye(2)])
    return HPolytope(np.vstack([H, box]), np.concatenate([h, np.full(4, 3.0)]))


def _gaps():
    """Signed gaps around every margin the decisions use."""
    return st.sampled_from([1.0, -1.0]).flatmap(
        lambda sign: st.sampled_from(
            [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 5e-8, 1e-7, 2e-7, 1e-6,
             1e-5, 1e-3, 0.1]
        ).map(lambda size: sign * size)
    )


@st.composite
def emptiness_cases(draw):
    """``(poly, tol, gap, kind)``: a 1-D or 2-D set whose emptiness at
    ``tol`` turns on ``gap`` (positive: non-empty by ``gap`` before the
    slack)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-7, 1e-9, 0.0]))
    gap = draw(_gaps())
    kind = draw(st.sampled_from(["interval", "half-line", "sliver", "triangle"]))
    if kind == "interval":  # [a, a + gap], zero-width at gap = 0
        a = rng.uniform(-3.0, 3.0)
        poly = HPolytope(np.array([[1.0], [-1.0], [1.0]]),
                         np.array([a + gap, -a, a + 5.0]))
    elif kind == "half-line":
        sign = rng.choice([-1.0, 1.0])
        poly = HPolytope(np.array([[sign], [sign]]), rng.uniform(-3.0, 3.0, size=2))
    elif kind == "sliver":  # a polygon cut down to within gap of its lowest point
        base = _polygon(rng, draw(st.integers(1, 6)))
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        low = -base.support(-d)
        poly = HPolytope(np.vstack([base.H, d]), np.concatenate([base.h, [low + gap]]))
    else:  # empty only by all three rows (normals positively span R^2): the LP's call
        theta = rng.uniform(0.0, 2 * np.pi)
        angles = theta + np.array([0.0, 2.1, 4.2]) + rng.uniform(-0.3, 0.3, size=3)
        N = np.column_stack([np.cos(angles), np.sin(angles)])
        # y = (N2 × N3, N3 × N1, N1 × N2) > 0 has y N = 0.
        y = hp._cross(N[[1, 2, 0]], N[[2, 0, 1]])
        b = rng.uniform(0.5, 2.0, size=3)
        b[2] = (gap * y.sum() - y[:2] @ b[:2]) / y[2]
        box = np.vstack([np.eye(2), -np.eye(2)])
        order = rng.permutation(7)
        poly = HPolytope(np.vstack([N, box])[order],
                         np.concatenate([b, np.full(4, 10.0)])[order])
    return poly, tol, gap, kind


@st.composite
def containment_cases(draw):
    """``(poly, other, tol, gap)``: 1-D or 2-D pairs, touching (``poly`` is
    ``other`` moved out by ``gap``), overlapping, unbounded or empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-7, 1e-6, 1e-9]))
    gap = draw(_gaps())
    kind = draw(st.sampled_from(["touching", "touching", "rows", "random",
                                 "unbounded", "empty", "interval"]))
    other = _polygon(rng, draw(st.integers(1, 8)))
    if kind == "touching":  # other's own rows, moved out by gap
        poly = HPolytope(other.H, other.h + gap, normalize=False)
    elif kind == "rows":  # new directions at other's support + gap
        D = rng.normal(size=(draw(st.integers(3, 8)), 2))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        D = np.vstack([D, np.eye(2), -np.eye(2)])
        poly = HPolytope(D, other.support_batch(D) + gap)
    elif kind == "random":
        poly = _polygon(rng, draw(st.integers(1, 8)))
    elif kind == "unbounded":  # every row of other loosens along +x
        H = other.H[other.H[:, 0] < 0]
        other = HPolytope(np.vstack([H, [[-1.0, 0.2]]]),
                          np.concatenate([other.h[other.H[:, 0] < 0], [1.0]]))
        poly = _polygon(rng, 3)
    elif kind == "empty":  # other cut below its lowest point
        d = rng.normal(size=2)
        low = -other.support(-d / np.linalg.norm(d))
        other = HPolytope(np.vstack([other.H, d / np.linalg.norm(d)]),
                          np.concatenate([other.h, [low - 0.5]]))
        poly = _polygon(rng, 3)
    else:  # intervals, including zero-width ones
        a, w = rng.uniform(-2.0, 2.0), draw(st.sampled_from([0.0, 1e-9, 0.5]))
        other = HPolytope(np.array([[1.0], [-1.0]]), np.array([a + w, -a]))
        poly = HPolytope(np.array([[1.0], [-1.0]]), np.array([a + w + gap, -a]))
    return poly, other, tol, gap


class TestIsEmpty:
    @FAST
    @given(emptiness_cases())
    def test_matches_lp(self, case):
        poly, tol, gap, kind = case
        witness = hp._has_witness(poly, tol)
        expected = lp_empty(poly, tol)
        assert not (witness and expected)
        assert poly.is_empty(tol) == expected
        # Non-empty clear of the margin, a bounded set has a witness (a
        # half-line offers no candidate but the origin).
        if gap >= 1e-3 and kind != "half-line":
            assert witness

    def test_zero_width_interval(self):
        point = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.25, -0.25]))
        assert hp._has_witness(point, 1e-7)
        assert not hp._has_witness(point, 0.0)  # no slack: the LP's call
        assert point.is_empty(0.0) == lp_empty(point, 0.0)

    def test_counts_decisions(self):
        square = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        with obs.scoped_registry() as reg:
            assert not square.is_empty()
        assert reg.value(DECISIONS_CLOSED_FORM_METRIC, op="is_empty") == 1
        assert reg.total(LP_SOLVES_METRIC) == 0


class TestContainsPolytope:
    @FAST
    @given(containment_cases())
    def test_matches_support_lp(self, case):
        poly, other, tol, gap = case
        decided = hp._decide_contains(poly, other, tol)
        expected = lp_contains(poly, other, tol)
        assert decided is None or decided == expected
        assert poly.contains_polytope(other, tol) == expected

    @FAST
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_touching_sets_are_decided(self, seed, rows):
        """``other ⊆ other`` touches every facet (slack exactly ``tol``);
        the 1e-9 relative margin still decides it."""
        other = _polygon(np.random.default_rng(seed), rows)
        assert hp._decide_contains(other, other, 1e-7) is True

    def test_unbounded_other_is_never_certified_contained(self):
        half_plane_cut = HPolytope(np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                   np.array([0.0, 1.0, 1.0]))
        everything = HPolytope.from_box([-1e9, -1e9], [1e9, 1e9])
        assert hp._decide_contains(everything, half_plane_cut, 1e-7) is not True
        assert everything.contains_polytope(half_plane_cut) == lp_contains(
            everything, half_plane_cut, 1e-7)

    def test_empty_other_takes_the_lp_route(self):
        empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                          np.array([1.0, -2.0, 1.0, 1.0]))
        square = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        assert hp._decide_contains(square, empty, 1e-7) is None
        assert square.contains_polytope(empty)

    def test_counts_decisions(self):
        square = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        with obs.scoped_registry() as reg:
            assert square.contains_polytope(square.scale(0.5))
            assert not square.scale(0.5).contains_polytope(square)
        assert reg.value(DECISIONS_CLOSED_FORM_METRIC, op="contains_polytope") == 2
        assert reg.total(LP_SOLVES_METRIC) == 0


def _planar_synthesis_calls(name, monkeypatch):
    """Every ``contains_polytope`` call of a cold synthesis of ``name``."""
    calls = []
    original = HPolytope.contains_polytope

    def recording(self, other, tol=hp.DEFAULT_TOL):
        calls.append((self, other, tol))
        return original(self, other, tol)

    monkeypatch.setattr(HPolytope, "contains_polytope", recording)
    with obs.scoped_registry(enabled=False):
        scenarios.build_case_study(scenarios.get(name), use_cache=False)
    monkeypatch.setattr(HPolytope, "contains_polytope", original)
    return calls


def _sets(case):
    """The certified and tightened sets of a case study, as bytes."""
    controller = case.controller
    polys = [case.invariant_set, case.strengthened_set]
    polys += [getattr(controller, "terminal_set", None)]
    polys += list(getattr(controller, "tightened", []))
    return [None if p is None else (p.H.shape, p.H.tobytes(), p.h.tobytes())
            for p in polys]


class TestZoo:
    @pytest.mark.parametrize("name", PLANAR_SCENARIOS)
    def test_synthesis_is_bitwise_without_closed_form_decisions(self, name):
        with obs.scoped_registry(enabled=False):
            default = scenarios.build_case_study(scenarios.get(name), use_cache=False)
            with lp_route():
                reference = scenarios.build_case_study(scenarios.get(name), use_cache=False)
        assert _sets(default) == _sets(reference)

    @pytest.mark.parametrize("name", POLYGON_SCENARIOS)
    def test_support_gap_far_below_margin(self, name, monkeypatch):
        """On every 2-D zoo containment check, the certificate's support
        bound is within 1/1000 of the margin of the LP's support."""
        calls = _planar_synthesis_calls(name, monkeypatch)
        assert calls
        for poly, other, _ in calls:
            bounds = other._support_bounds()
            assert bounds is not None
            upper = bounds.upper(poly.H)
            assert np.all(np.isfinite(upper))
            gap = np.abs(upper - other.support_batch(poly.H)) / (1.0 + np.abs(poly.h))
            assert np.max(gap) <= hp._CERTIFICATE_MARGIN / 1000

    def test_grid_decides_every_planar_check_in_closed_form(self, monkeypatch):
        """On the perfbench grid (thermal and pendulum at horizons 4 and 6)
        no emptiness check and no 2-D containment check needs an LP
        (thermal's 1-D containment checks are closed-form supports of an
        axis box)."""
        counts = {"is_empty": 0, "contains_polytope": 0}
        for op in counts:
            original = getattr(HPolytope, op)

            def counting(self, *args, _op=op, _original=original, **kwargs):
                counts[_op] += _op == "is_empty" or self.dim == 2
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(HPolytope, op, counting)
        with obs.scoped_registry() as reg:
            for name in ("thermal", "pendulum"):
                for horizon in (4, 6):
                    spec = scenarios.get(name).with_overrides(horizon=horizon)
                    scenarios.build_case_study(spec, use_cache=False)
        for op, calls in counts.items():
            assert calls and reg.value(DECISIONS_CLOSED_FORM_METRIC, op=op) == calls
