"""Tests for the LP backends (repro.utils.lp_backends).

Both backends run on scipy's bundled HiGHS core, so every test runs
everywhere: ``auto``/``scipy`` resolve to the cold path, ``highs`` to the
warm-started :class:`PersistentStackSolver`.

The solved family throughout: ``min x0 + x1`` over the unit box with
``x0`` pinned per block (``x0 = v``), whose optimum is ``v - 1`` at
``(v, -1)`` — infeasible iff ``|v| > 1``.
"""

import numpy as np
import pytest

from repro.utils.lp import LPError, solve_lp
from repro.utils.lp_backends import (
    BACKENDS,
    DEFAULT_MAX_MODELS,
    PersistentStackSolver,
    resolve_backend,
)

BOX_H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
BOX_h = np.ones(4)
PIN_X0 = np.array([[1.0, 0.0]])


def _solver(**kwargs) -> PersistentStackSolver:
    return PersistentStackSolver(
        cost=[1.0, 1.0],
        a_ub=BOX_H,
        b_ub=BOX_h,
        a_eq=PIN_X0,
        b_eq=[0.0],
        varying_eq_rows=[0],
        **kwargs,
    )


class TestResolveBackend:
    def test_scipy_is_always_scipy(self):
        assert resolve_backend("scipy") == "scipy"

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="one of"):
            resolve_backend("cplex")

    def test_auto_resolves_to_an_effective_backend(self):
        # The default stays cold and bitwise.
        assert resolve_backend("auto") == "scipy"

    def test_auto_falls_back_silently(self):
        assert resolve_backend("auto") == "scipy"

    def test_explicit_highs_is_warm(self):
        assert resolve_backend("highs") == "highs"

    def test_highs_degrades_to_cold_without_the_core(self, monkeypatch):
        from repro.utils import lp

        monkeypatch.setattr(lp, "_core", None)
        assert resolve_backend("highs") == "scipy"

    def test_backends_tuple_is_the_request_vocabulary(self):
        assert BACKENDS == ("auto", "highs", "scipy")


class TestPersistentStackSolver:
    def test_matches_scalar_solves(self):
        solver = _solver()
        pins = np.linspace(-0.8, 0.9, 5).reshape(-1, 1)
        batch = solver.solve_batch(pins)
        assert len(batch) == 5
        for pin, sol in zip(pins, batch):
            scalar = solve_lp(
                [1.0, 1.0], a_ub=BOX_H, b_ub=BOX_h, a_eq=PIN_X0, b_eq=pin
            )
            assert sol.value == pytest.approx(scalar.value, abs=1e-9)
            assert sol.value == pytest.approx(pin[0] - 1.0, abs=1e-9)
            assert sol.x[0] == pytest.approx(pin[0], abs=1e-9)

    def test_second_call_is_warm(self):
        solver = _solver()
        pins = np.zeros((4, 1))
        solver.solve_batch(pins)
        assert solver.model_builds == 1
        assert solver.warm_solves == 0
        batch = solver.solve_batch(pins + 0.25)
        # Same batch size: the persistent model is reused (no rebuild),
        # only the varying RHS was rewritten.
        assert solver.model_builds == 1
        assert solver.warm_solves == 1
        assert batch[0].value == pytest.approx(-0.75, abs=1e-9)

    def test_chunking_matches_unchunked(self):
        chunked = _solver(chunk_size=2)
        whole = _solver()
        pins = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
        a = chunked.solve_batch(pins)
        b = whole.solve_batch(pins)
        # k=5 at chunk_size=2 → one 2-block model + one 1-block remainder.
        assert chunked.model_builds == 2
        for left, right in zip(a, b):
            assert left.value == pytest.approx(right.value, abs=1e-9)
        # Same k again: both chunk models stay warm, none rebuilt.
        chunked.solve_batch(pins + 0.1)
        assert chunked.model_builds == 2
        assert chunked.warm_solves >= 2

    def test_infeasible_block_raises(self):
        solver = _solver()
        with pytest.raises(LPError, match="persistent stacked"):
            solver.solve_batch([[0.0], [3.0]])

    def test_failure_is_all_or_nothing(self):
        """A failing later chunk must raise (nothing partial), and the
        solver must stay usable afterwards."""
        solver = _solver(chunk_size=2)
        pins = np.array([[0.0], [0.1], [3.0]])  # failure in chunk 2
        with pytest.raises(LPError):
            solver.solve_batch(pins)
        batch = solver.solve_batch(np.zeros((3, 1)))
        assert [sol.value for sol in batch] == pytest.approx([-1.0] * 3)

    def test_release_then_rebuild(self):
        solver = _solver()
        solver.solve_batch(np.zeros((3, 1)))
        assert solver.model_builds == 1
        solver.release()
        batch = solver.solve_batch(np.zeros((3, 1)))
        assert solver.model_builds == 2
        assert batch[1].value == pytest.approx(-1.0, abs=1e-9)

    def test_model_lru_is_bounded(self):
        solver = _solver(max_models=2)
        for k in (1, 2, 3, 4):
            solver.solve_batch(np.zeros((k, 1)))
        assert solver.model_builds == 4
        assert len(solver._models) == 2

    def test_default_keeps_two_models(self):
        solver = _solver()
        assert solver.max_models == DEFAULT_MAX_MODELS == 2
        for k in (1, 2, 3):
            solver.solve_batch(np.zeros((k, 1)))
        assert sorted(solver._models) == [2, 3]

    def test_value_shape_validation(self):
        solver = _solver()
        with pytest.raises(ValueError, match="varying"):
            solver.solve_batch(np.zeros((3, 2)))

    def test_empty_batch(self):
        assert _solver().solve_batch(np.zeros((0, 1))) == []

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            PersistentStackSolver(
                cost=[1.0], a_ub=BOX_H, b_ub=BOX_h,
                a_eq=PIN_X0, b_eq=[0.0], varying_eq_rows=[0],
            )
        with pytest.raises(ValueError, match="varying_eq_rows"):
            PersistentStackSolver(
                cost=[1.0, 1.0], a_ub=BOX_H, b_ub=BOX_h,
                a_eq=PIN_X0, b_eq=[0.0], varying_eq_rows=[5],
            )
        with pytest.raises(ValueError, match="chunk_size"):
            _solver(chunk_size=0)
        with pytest.raises(ValueError, match="max_models"):
            _solver(max_models=0)


class TestHighsMatchesScipyStack:
    def test_against_solve_lp_batch(self):
        """The two backends attain identical optimal values on the same
        stacked family (the plan-equivalent contract at the LP layer)."""
        from repro.utils.lp import solve_lp_batch

        pins = np.linspace(-0.9, 0.9, 7).reshape(-1, 1)
        persistent = _solver().solve_batch(pins)
        b_eq = pins  # per-block equality RHS, one varying row
        stacked = solve_lp_batch(
            np.tile([1.0, 1.0], (7, 1)), BOX_H, BOX_h,
            a_eq=PIN_X0, b_eq=b_eq,
        )
        for left, right in zip(persistent, stacked):
            assert left.value == pytest.approx(right.value, abs=1e-9)
