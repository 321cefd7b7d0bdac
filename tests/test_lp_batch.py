"""Differential tests for the stacked block-diagonal LP interface.

The batch path (`solve_lp_batch` / `maximize_batch` /
`HPolytope.support_batch`) must agree with the per-facet scalar loop it
replaced in `pontryagin_difference`, `minkowski_sum`, `bounding_box`,
`is_bounded` and `contains_polytope`.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.geometry import HPolytope
from repro.observability import metrics as obs
from repro.utils.lp import (
    STACK_CACHE_METRIC,
    BlockStack,
    LPError,
    maximize,
    maximize_batch,
    solve_lp,
    solve_lp_batch,
)


def _stack_events() -> dict:
    """Owned-stack hit/miss counts in the ambient registry."""
    reg = obs.registry()
    return {
        "hits": reg.value(STACK_CACHE_METRIC, cache="owned", event="hit"),
        "misses": reg.value(STACK_CACHE_METRIC, cache="owned", event="miss"),
    }


@pytest.fixture
def pentagon(rng):
    """An irregular bounded 2-D polytope."""
    points = rng.normal(size=(12, 2)) * np.array([2.0, 0.7]) + np.array([0.3, -0.1])
    return HPolytope.from_vertices(points)


class TestSolveLPBatch:
    def test_matches_scalar_solves(self, pentagon, rng):
        objectives = rng.normal(size=(7, 2))
        batch = solve_lp_batch(objectives, pentagon.H, pentagon.h)
        assert len(batch) == 7
        for c, sol in zip(objectives, batch):
            scalar = solve_lp(c, a_ub=pentagon.H, b_ub=pentagon.h)
            assert sol.value == pytest.approx(scalar.value, abs=1e-8)
            assert sol.status == 0

    def test_single_objective_delegates(self, pentagon):
        [sol] = solve_lp_batch(np.array([[1.0, 0.0]]), pentagon.H, pentagon.h)
        scalar = solve_lp([1.0, 0.0], a_ub=pentagon.H, b_ub=pentagon.h)
        assert sol.value == pytest.approx(scalar.value, abs=1e-10)

    def test_empty_objectives(self, pentagon):
        assert solve_lp_batch(np.empty((0, 2)), pentagon.H, pentagon.h) == []

    def test_dimension_mismatch(self, pentagon):
        with pytest.raises(ValueError, match="columns"):
            solve_lp_batch(np.ones((3, 5)), pentagon.H, pentagon.h)

    def test_infeasible_region_raises(self):
        # x <= -1 and -x <= -1 (x >= 1) is empty.
        a = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])
        with pytest.raises(LPError):
            solve_lp_batch(np.array([[1.0], [2.0]]), a, b)

    def test_unbounded_block_raises(self):
        # Half-plane x0 <= 1: unbounded toward -x0.
        a = np.array([[1.0, 0.0]])
        b = np.array([1.0])
        with pytest.raises(LPError):
            solve_lp_batch(np.array([[1.0, 0.0], [0.0, 1.0]]), a, b)


class TestSolveLPBatchEqualities:
    """The generalised stack: equality blocks and per-block RHS vectors
    (what RobustMPC.solve_batch builds its Eq.-5 stack from)."""

    def test_shared_equalities_match_scalar(self, pentagon, rng):
        # Pin x0 + x1 = 0.1 in every block.
        a_eq = np.array([[1.0, 1.0]])
        b_eq = np.array([0.1])
        objectives = rng.normal(size=(5, 2))
        batch = solve_lp_batch(
            objectives, pentagon.H, pentagon.h, a_eq=a_eq, b_eq=b_eq
        )
        for c, sol in zip(objectives, batch):
            scalar = solve_lp(
                c, a_ub=pentagon.H, b_ub=pentagon.h, a_eq=a_eq, b_eq=b_eq
            )
            assert sol.value == pytest.approx(scalar.value, abs=1e-9)
            assert np.allclose(a_eq @ sol.x, b_eq, atol=1e-8)

    def test_per_block_equality_rhs(self, pentagon, rng):
        # Same equality row, a different pin per block — the RMPC
        # initial-state pattern.
        a_eq = np.array([[1.0, 0.0]])
        pins = np.linspace(-0.3, 0.4, 6).reshape(-1, 1)
        objectives = np.tile(rng.normal(size=(1, 2)), (6, 1))
        batch = solve_lp_batch(
            objectives, pentagon.H, pentagon.h, a_eq=a_eq, b_eq=pins
        )
        for pin, sol in zip(pins, batch):
            scalar = solve_lp(
                objectives[0], a_ub=pentagon.H, b_ub=pentagon.h,
                a_eq=a_eq, b_eq=pin,
            )
            assert sol.value == pytest.approx(scalar.value, abs=1e-9)
            assert sol.x[0] == pytest.approx(pin[0], abs=1e-8)

    def test_per_block_inequality_rhs(self, rng):
        # Boxes of different sizes sharing one constraint matrix.
        box = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        scales = np.array([1.0, 2.0, 0.5])
        b_ub = np.outer(scales, box.h)
        direction = np.array([[-1.0, -1.0]] * 3)
        batch = solve_lp_batch(direction, box.H, b_ub)
        for scale, sol in zip(scales, batch):
            assert sol.value == pytest.approx(-2.0 * scale, abs=1e-8)

    def test_sparse_shared_block_accepted(self, pentagon, rng):
        objectives = rng.normal(size=(4, 2))
        sparse_h = sp.csr_matrix(pentagon.H)
        batch = solve_lp_batch(objectives, sparse_h, pentagon.h)
        for c, sol in zip(objectives, batch):
            scalar = solve_lp(c, a_ub=pentagon.H, b_ub=pentagon.h)
            assert sol.value == pytest.approx(scalar.value, abs=1e-8)

    def test_k1_delegates_with_equalities(self, pentagon):
        a_eq = np.array([[0.0, 1.0]])
        [sol] = solve_lp_batch(
            np.array([[1.0, 0.0]]), pentagon.H, pentagon.h,
            a_eq=a_eq, b_eq=np.array([[0.05]]),
        )
        scalar = solve_lp(
            [1.0, 0.0], a_ub=pentagon.H, b_ub=pentagon.h,
            a_eq=a_eq, b_eq=[0.05],
        )
        assert sol.value == pytest.approx(scalar.value, abs=1e-10)

    def test_eq_without_rhs_rejected(self, pentagon):
        with pytest.raises(ValueError, match="together"):
            solve_lp_batch(
                np.ones((3, 2)), pentagon.H, pentagon.h,
                a_eq=np.array([[1.0, 0.0]]),
            )

    def test_per_block_rhs_shape_validation(self, pentagon):
        with pytest.raises(ValueError, match="b_ub"):
            solve_lp_batch(
                np.ones((3, 2)), pentagon.H,
                np.tile(pentagon.h, (2, 1)),  # 2 blocks of RHS, 3 objectives
            )
        with pytest.raises(ValueError, match="b_eq"):
            solve_lp_batch(
                np.ones((3, 2)), pentagon.H, pentagon.h,
                a_eq=np.array([[1.0, 0.0]]), b_eq=np.zeros((3, 2)),
            )

    def test_unowned_stack_is_rebuilt_per_call(self, pentagon, rng):
        """Without a ``stack`` nothing is cached: repeats rebuild the same
        stack, record no cache events and solve bitwise-identically."""
        objectives = rng.normal(size=(4, 2))
        with obs.scoped_registry() as reg:
            first = solve_lp_batch(objectives, pentagon.H, pentagon.h)
            again = solve_lp_batch(objectives, pentagon.H, pentagon.h)
            assert reg.total(STACK_CACHE_METRIC) == 0
        for left, right in zip(first, again):
            assert left.x.tobytes() == right.x.tobytes()


class TestConcurrentStacks:
    def test_threads_share_unowned_stacks(self, pentagon, unit_box):
        """Regression: four threads stacking over more (matrix, k) pairs
        than the old 64-entry module-level stack LRU held used to race on
        its eviction (``KeyError``)."""
        polys = [pentagon, unit_box] + [
            HPolytope.from_box([-s, -1.0], [s, 2.0])
            for s in np.linspace(0.5, 3.0, 10)
        ]
        directions = [np.random.default_rng(k).normal(size=(k, 2))
                      for k in range(2, 10)]
        expected = {
            (p, k): maximize_batch(d, poly.H, poly.h).tobytes()
            for p, poly in enumerate(polys)
            for k, d in enumerate(directions)
        }
        start = threading.Barrier(4, timeout=30)
        errors = []

        def work(seed):
            order = np.random.default_rng(seed).permutation(len(expected))
            keys = list(expected)
            try:
                start.wait()
                for _ in range(3):
                    for idx in order:
                        p, k = keys[idx]
                        got = maximize_batch(
                            directions[k], polys[p].H, polys[p].h
                        )
                        assert got.tobytes() == expected[(p, k)]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestBlockStack:
    """Owner-held stacks: a long-lived caller's cached stacks."""

    def test_owned_stack_matches_anonymous_path(self, pentagon, rng):
        objectives = rng.normal(size=(5, 2))
        stack = BlockStack(pentagon.H)
        with obs.scoped_registry():
            owned = solve_lp_batch(
                objectives, pentagon.H, pentagon.h, stack=stack
            )
            anonymous = solve_lp_batch(objectives, pentagon.H, pentagon.h)
            assert _stack_events() == {"hits": 0, "misses": 1}
        for left, right in zip(owned, anonymous):
            assert left.x.tobytes() == right.x.tobytes()
        assert len(stack) == 1  # the k=5 stack lives on the owner

    def test_owned_stack_counts_in_shared_stats(self, pentagon, rng):
        stack = BlockStack(pentagon.H)
        with obs.scoped_registry():
            solve_lp_batch(
                rng.normal(size=(3, 2)), pentagon.H, pentagon.h, stack=stack
            )
            solve_lp_batch(
                rng.normal(size=(3, 2)), pentagon.H, pentagon.h, stack=stack
            )
            assert _stack_events() == {"hits": 1, "misses": 1}

    def test_mismatched_stack_rejected(self, pentagon, unit_box):
        stack = BlockStack(unit_box.H)
        with pytest.raises(ValueError, match="different block matrices"):
            solve_lp_batch(
                np.ones((3, 2)), pentagon.H, pentagon.h, stack=stack
            )

    def test_release_drops_built_stacks(self, pentagon, rng):
        stack = BlockStack(pentagon.H)
        solve_lp_batch(
            rng.normal(size=(4, 2)), pentagon.H, pentagon.h, stack=stack
        )
        assert len(stack) == 1
        stack.release()
        assert len(stack) == 0
        # Rebuilt transparently on the next solve.
        with obs.scoped_registry():
            solve_lp_batch(
                rng.normal(size=(4, 2)), pentagon.H, pentagon.h, stack=stack
            )
            assert _stack_events()["misses"] == 1

    def test_lru_bounded_entries(self, pentagon, rng):
        stack = BlockStack(pentagon.H, max_entries=2)
        for k in (2, 3, 4):
            solve_lp_batch(
                rng.normal(size=(k, 2)), pentagon.H, pentagon.h, stack=stack
            )
        assert len(stack) == 2


class TestMaximizeBatch:
    def test_matches_scalar_maximize(self, pentagon, rng):
        directions = rng.normal(size=(9, 2))
        values = maximize_batch(directions, pentagon.H, pentagon.h)
        for d, value in zip(directions, values):
            assert value == pytest.approx(
                maximize(d, pentagon.H, pentagon.h).value, abs=1e-8
            )


class TestPolytopeBatchSupport:
    def test_support_batch_matches_support(self, pentagon, rng):
        directions = rng.normal(size=(6, 2))
        values = pentagon.support_batch(directions)
        for d, value in zip(directions, values):
            assert value == pytest.approx(pentagon.support(d), abs=1e-8)

    def test_support_batch_dimension_check(self, pentagon):
        with pytest.raises(ValueError, match="dimension"):
            pentagon.support_batch(np.ones((2, 3)))

    def test_pontryagin_difference_matches_facet_loop(self, pentagon, small_box):
        batched = pentagon.pontryagin_difference(small_box)
        shrink = np.array([small_box.support(a) for a in pentagon.H])
        reference = HPolytope(pentagon.H, pentagon.h - shrink, normalize=False)
        assert batched.equals(reference, tol=1e-7)

    def test_pontryagin_roundtrip_containment(self, unit_box, small_box):
        eroded = unit_box.pontryagin_difference(small_box)
        assert unit_box.contains_polytope(eroded)
        # Every eroded point plus the full box stays inside (definition).
        assert unit_box.contains_polytope(eroded.minkowski_sum(small_box), tol=1e-6)

    def test_bounding_box_matches_supports(self, pentagon):
        lower, upper = pentagon.bounding_box()
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            assert upper[i] == pytest.approx(pentagon.support(e), abs=1e-8)
            assert lower[i] == pytest.approx(-pentagon.support(-e), abs=1e-8)

    def test_is_bounded(self, pentagon):
        assert pentagon.is_bounded()
        half_plane = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert not half_plane.is_bounded()

    def test_contains_polytope_with_unbounded_other(self, unit_box):
        # The batch stack fails on the unbounded operand; the scalar
        # fallback preserves the legacy semantics: early exit when a
        # bounded direction already fails, LPError when the first
        # undecided direction is unbounded.
        wide_half_plane = HPolytope(np.array([[1.0, 0.0]]), np.array([5.0]))
        assert not unit_box.contains_polytope(wide_half_plane)
        with pytest.raises(LPError):
            narrow = HPolytope(np.array([[1.0, 0.0]]), np.array([0.1]))
            unit_box.contains_polytope(narrow)
        half_plane = HPolytope(np.array([[1.0, 0.0]]), np.array([0.1]))
        assert half_plane.contains_polytope(
            HPolytope.from_box([-0.5, -0.5], [0.0, 0.5])
        )
