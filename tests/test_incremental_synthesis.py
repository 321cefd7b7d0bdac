"""Fewer LPs per synthesis step, checked against the slow paths they replace.

* :func:`repro.invariance.maximal_rpi` maps only the rows each step added
  (Gilbert & Tan).  It must be *set-equivalent* to the textbook loop
  :func:`repro.geometry.reference.maximal_rpi_reference` — equal iteration
  and row counts, rows within 1e-12 after a canonical sort, mutual
  containment at 1e-9 — on every zoo call and on seeded random stable
  loops, and bitwise-equal on the pendulum and thermal terminal sets.
* :meth:`HPolytope.support_batch` answers a non-empty axis box in closed
  form; the values must equal the stacked LP's.
* :meth:`HPolytope.contains_polytope` tries the stacked support before the
  emptiness LP, and an unbounded ``other`` decides False.
* The convergence checks test one direction only; the iteration counts of
  the zoo are pinned.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.controllers.feasible as feasible_module
import repro.controllers.rmpc as rmpc_module
import repro.scenarios.builder as builder_module
from repro import scenarios
from repro.geometry import HPolytope, hpolytope
from repro.geometry.reference import maximal_rpi_reference, rpi_mismatch
from repro.invariance import maximal_rci, maximal_rpi
from repro.observability import metrics as obs
from repro.utils.lp import LP_SOLVES_METRIC, LPError, maximize_batch

SEEDED = settings(max_examples=60, deadline=None, derandomize=True)


def _same(a: HPolytope, b: HPolytope) -> bool:
    return (a.H.shape == b.H.shape and a.H.tobytes() == b.H.tobytes()
            and a.h.tobytes() == b.h.tobytes())


def _lps(fn, *args):
    """``fn(*args)`` and the number of LPs it solved."""
    with obs.scoped_registry(enabled=False) as reg:
        result = fn(*args)
    return result, reg.total(LP_SOLVES_METRIC)


def _zoo_cases():
    """Every registered scenario, plus the RMPC ones at horizons 4 and 6
    (the perfbench grid)."""
    for name in scenarios.list_scenarios():
        yield name, None
        if scenarios.get(name).controller == "rmpc":
            yield name, 4
            yield name, 6


def _record_calls(monkeypatch, name, horizon, targets):
    """Build ``name`` cold and return ``(args, result)`` of every call to
    the function ``targets`` maps each module to."""
    calls = []
    for module, attr in targets:
        original = getattr(module, attr)

        def recording(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(module, attr, recording)
    spec = scenarios.get(name)
    if horizon is not None:
        spec = spec.with_overrides(horizon=horizon)
    with obs.scoped_registry(enabled=False):
        scenarios.build_case_study(spec, use_cache=False)
    return calls


RPI_CALL_SITES = (
    (rmpc_module, "maximal_rpi"),  # every RMPC terminal set
    (builder_module, "maximal_rpi"),  # every linear-feedback XI
)

#: ``(iterations, rows)`` of each zoo ``maximal_rpi`` call at the parent
#: of the incremental iteration (the textbook loop's counts).
ZOO_RPI_COUNTS = {
    ("acc", None): (25, 52), ("acc", 4): (14, 30), ("acc", 6): (15, 32),
    ("dc_motor", None): (44, 92), ("lane_keeping", None): (11, 50),
    ("pendulum", None): (9, 22), ("pendulum", 4): (8, 20),
    ("pendulum", 6): (8, 20), ("thermal", None): (1, 2),
    ("thermal", 4): (1, 2), ("thermal", 6): (1, 2),
}


class TestIncrementalRPIOnZoo:
    @pytest.mark.parametrize("name,horizon", list(_zoo_cases()))
    def test_set_equivalent_to_textbook_loop(self, name, horizon, monkeypatch):
        calls = _record_calls(monkeypatch, name, horizon, RPI_CALL_SITES)
        assert len(calls) == 1
        (args, kwargs, fast), = calls
        reference = maximal_rpi_reference(*args, **kwargs)
        assert rpi_mismatch(fast, reference) is None
        assert (reference.iterations, reference.invariant_set.num_constraints) == (
            ZOO_RPI_COUNTS[(name, horizon)]
        )
        if name in ("pendulum", "thermal"):
            assert _same(fast.invariant_set, reference.invariant_set)

    def test_fewer_lps_than_textbook_loop(self, monkeypatch):
        (args, kwargs, _), = _record_calls(
            monkeypatch, "lane_keeping", None, RPI_CALL_SITES
        )
        _, fast = _lps(lambda: maximal_rpi(*args, **kwargs))
        _, slow = _lps(lambda: maximal_rpi_reference(*args, **kwargs))
        assert fast < slow


class TestOneWayConvergenceCheck:
    @pytest.mark.parametrize("horizon,iterations", [(None, 5), (4, 2), (6, 3)])
    def test_maximal_rci_iterations_unchanged(self, horizon, iterations, monkeypatch):
        """Pendulum's X_F fails the RCI certificate, so every build runs
        the ``maximal_rci`` fallback; its iteration count is the two-way
        check's."""
        calls = _record_calls(
            monkeypatch, "pendulum", horizon, ((feasible_module, "maximal_rci"),)
        )
        (_, _, result), = calls
        assert (result.iterations, result.converged) == (iterations, True)

    def test_maximal_rci_counts_unchanged_on_double_integrator(self, double_integrator):
        system = double_integrator
        seed = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        result = maximal_rci(
            system.A, system.B, seed, system.input_set, system.disturbance_set
        )
        assert (result.iterations, result.converged) == (5, True)
        assert result.invariant_set.num_constraints == 12


@st.composite
def stable_loops(draw):
    """Random stable 1–3-D closed loops ``x⁺ = M x + w``: a box constraint
    cut by random slabs (like ``{x : K x ∈ U}``) and a box ``W`` with
    zero-width axes (lane_keeping's shape)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    A = rng.normal(size=(n, n))
    radius = max(np.max(np.abs(np.linalg.eigvals(A))), 1e-3)
    M = A * draw(st.floats(0.2, 0.9)) / radius
    upper = rng.uniform(0.5, 2.0, size=n)
    lower = -rng.uniform(0.5, 2.0, size=n)
    H = [np.eye(n), -np.eye(n)]
    h = [upper, -lower]
    for _ in range(draw(st.integers(0, 2))):
        k = rng.normal(size=n)
        limit = rng.uniform(0.5, 2.0) * np.linalg.norm(k)
        H.append(np.vstack([k, -k]))
        h.append(np.array([limit, limit]))
    constraint = HPolytope(np.vstack(H), np.concatenate(h))
    w = rng.uniform(0.0, 0.2, size=n)
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.4]))] = 0.0
    return M, constraint, HPolytope.from_box(-w, w)


def _outcome(fn, M, constraint, disturbance):
    try:
        return fn(M, constraint, disturbance)
    except ValueError as exc:
        return exc


class TestIncrementalRPIRandom:
    @SEEDED
    @given(stable_loops())
    def test_set_equivalent_to_textbook_loop(self, loop):
        fast = _outcome(maximal_rpi, *loop)
        reference = _outcome(maximal_rpi_reference, *loop)
        if isinstance(reference, ValueError):
            assert isinstance(fast, ValueError)
            return
        assert not isinstance(fast, ValueError), fast
        assert rpi_mismatch(fast, reference) is None

    def test_singular_loop_whose_added_rows_map_to_zero(self):
        """``M`` nilpotent: the rows step 1 adds map onto ``0·x <= h``,
        which adds nothing — converged, like the textbook loop."""
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        seed = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        W = HPolytope.from_box([-0.1, -0.1], [0.1, 0.1])
        fast = maximal_rpi(M, seed, W)
        assert rpi_mismatch(fast, maximal_rpi_reference(M, seed, W)) is None

    def test_no_rpi_subset_raises_like_textbook_loop(self):
        M = np.array([[1.5]])
        seed = HPolytope.from_box([-1.0], [1.0])
        W = HPolytope.from_box([0.4], [0.6])
        for fn in (maximal_rpi, maximal_rpi_reference):
            with pytest.raises(ValueError, match="no robust positively invariant"):
                fn(M, seed, W)

    def test_budget_fallback_certifies_or_raises(self):
        """An exhausted budget returns the last iterate only if it is RPI."""
        M = np.array([[0.9, 0.3], [-0.3, 0.9]])
        seed = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        W = HPolytope.from_box([-0.01, -0.01], [0.01, 0.01])
        for fn in (maximal_rpi, maximal_rpi_reference):
            with pytest.raises(ValueError, match="did not converge"):
                fn(M, seed, W, max_iterations=1)
        full = maximal_rpi(M, seed, W)
        fast = maximal_rpi(M, seed, W, max_iterations=full.iterations - 1)
        slow = maximal_rpi_reference(M, seed, W, max_iterations=full.iterations - 1)
        assert not fast.converged
        assert rpi_mismatch(fast, slow) is None


@st.composite
def boxes_and_directions(draw):
    """1–3-D boxes with zero-width axes and ±0.0 bounds, and 2–6
    directions with zero and -0.0 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    lower = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    lower[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    width = np.abs(rng.normal(size=n))
    width[rng.random(n) < 0.3] = 0.0
    D = rng.normal(size=(draw(st.integers(2, 6)), n))
    D[rng.random(D.shape) < 0.3] = 0.0
    D[rng.random(D.shape) < 0.1] = -0.0
    return HPolytope.from_box(lower, lower + width), D


class TestBoxSupport:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(boxes_and_directions())
    def test_equals_stacked_lp(self, case):
        """Equal as floats to ``maximize_batch``; a zero support may
        differ in sign (the LP's vertex along a ``d_k = 0`` axis is
        arbitrary), which ``==`` ignores."""
        box, D = case
        closed, lps = _lps(box.support_batch, D)
        assert lps == 0
        np.testing.assert_array_equal(closed, maximize_batch(D, box.H, box.h))

    def test_repeated_rows_take_tightest_offset(self):
        H = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        box = HPolytope(H, np.array([2.0, 1.0, 1.0, 1.0, 1.0]))
        D = np.array([[1.0, 0.0], [0.5, -2.0]])
        closed, lps = _lps(box.support_batch, D)
        assert lps == 0
        np.testing.assert_array_equal(closed, maximize_batch(D, box.H, box.h))

    def test_single_direction_goes_through_lp(self, unit_box):
        D = np.array([[0.3, -0.7]])
        value, lps = _lps(unit_box.support_batch, D)
        assert lps == 1
        assert value.tobytes() == maximize_batch(D, unit_box.H, unit_box.h).tobytes()

    def test_non_box_goes_through_lp(self, triangle):
        D = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        values, lps = _lps(triangle.support_batch, D)
        assert lps == 1
        assert values.tobytes() == maximize_batch(D, triangle.H, triangle.h).tobytes()
        tilted = np.array([[1.0, 1e-3], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        rotated = HPolytope(tilted, np.ones(4))
        assert _lps(rotated.support_batch, D)[1] == 1

    def test_half_open_box_raises(self):
        H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        half_open = HPolytope(H, np.ones(3))
        with pytest.raises(LPError):
            half_open.support_batch(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert not half_open.is_bounded()

    def test_empty_box_raises(self):
        H = np.vstack([np.eye(2), -np.eye(2)])
        empty = HPolytope(H, np.array([1.0, 1.0, -2.0, 1.0]))  # 2 <= x_0 <= 1
        with pytest.raises(LPError):
            empty.support_batch(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert not empty.is_bounded()


class TestContainsPolytope:
    def test_unbounded_other_is_not_contained(self):
        """Used to raise ``LP failed (status=3): Unbounded``."""
        box = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        assert not box.contains_polytope(HPolytope([[1.0, 0.0]], [0.5]))
        cone = HPolytope(np.array([[-1.0, 0.2], [-1.0, -0.2], [0.0, 1.0]]), np.zeros(3))
        assert not box.contains_polytope(cone)

    def test_other_failures_still_raise(self, unit_box, monkeypatch):
        """On the LP route (in 2-D a cycle vertex of the half-plane
        decides this pair without an LP)."""
        half_plane = HPolytope([[1.0, 0.0]], [0.5])

        def failing(self, direction):
            raise LPError("LP failed (status=4): numerical trouble", 4)

        monkeypatch.setattr(HPolytope, "support", failing)
        monkeypatch.setattr(hpolytope, "_decide_contains", lambda *args: None)
        with pytest.raises(LPError, match="status=4"):
            unit_box.contains_polytope(half_plane)

    def test_empty_other_is_contained(self, unit_box):
        empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-2.0, -3.0]))
        assert unit_box.contains_polytope(empty)

    def test_bounded_other_needs_one_lp(self, unit_box, triangle, monkeypatch):
        """On the LP route the stacked support decides; no emptiness LP
        (and none at all when ``other`` is a box).  In 2-D a certificate
        decides all three without an LP."""
        for poly, other in ((unit_box, triangle), (unit_box, triangle * 0.25),
                            (triangle, HPolytope.from_box([0.0, 0.0], [0.5, 0.5]))):
            assert _lps(poly.contains_polytope, other)[1] == 0
        monkeypatch.setattr(hpolytope, "_decide_contains", lambda *args: None)
        result, lps = _lps(unit_box.contains_polytope, triangle)
        assert result is False and lps == 1
        result, lps = _lps(unit_box.contains_polytope, triangle * 0.25)
        assert result is True and lps == 1
        box = HPolytope.from_box([0.0, 0.0], [0.5, 0.5])
        result, lps = _lps(triangle.contains_polytope, box)
        assert result is True and lps == 0
