"""Tests for the persistent stacked solve
(:class:`repro.utils.lp.PersistentStackSolver`) and for the names
:mod:`repro.utils.lp_backends` keeps for the repository benchmark.

The solver runs on scipy's bundled HiGHS core, so every test runs
everywhere.  Tests that need chunking lower
:data:`repro.utils.lp.STACK_CHUNK_SIZE`.

The solved family throughout: ``min x0 + x1`` over the unit box with
``x0`` pinned per block (``x0 = v``), whose optimum is ``v - 1`` at
``(v, -1)`` — infeasible iff ``|v| > 1``.
"""

import numpy as np
import pytest

from repro.utils import lp
from repro.utils.lp import (
    LPError,
    PersistentStackSolver,
    solve_lp,
    solve_lp_batch,
)
from repro.utils.lp_backends import BACKENDS, _ChunkModel, resolve_backend

BOX_H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
BOX_h = np.ones(4)
PIN_X0 = np.array([[1.0, 0.0]])


def _solver() -> PersistentStackSolver:
    return PersistentStackSolver(
        cost=[1.0, 1.0],
        a_ub=BOX_H,
        b_ub=BOX_h,
        a_eq=PIN_X0,
        b_eq=[0.0],
        varying_eq_rows=[0],
    )


@pytest.fixture
def chunk_size(monkeypatch):
    """Lower the stack's largest capacity: ``chunk_size(n)``."""
    return lambda n: monkeypatch.setattr(lp, "STACK_CHUNK_SIZE", n)


class TestResolveBackend:
    def test_scipy_is_always_scipy(self):
        assert resolve_backend("scipy") == "scipy"

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="one of"):
            resolve_backend("cplex")

    def test_auto_resolves_to_an_effective_backend(self):
        # "auto" is an alias of the cold, bitwise "scipy".
        assert resolve_backend("auto") == "scipy"

    def test_auto_falls_back_silently(self, monkeypatch, caplog):
        # Without the bundled core, "auto" still resolves (to the cold
        # path) and an RMPC's stacked request runs its rows as scalar
        # solves through linprog: no error, no warning.
        from repro.controllers import RobustMPC
        from repro.observability import metrics as obs
        from tests.conftest import make_double_integrator

        mpc = RobustMPC(make_double_integrator(), horizon=3)
        monkeypatch.setattr(lp, "_core", None)
        assert resolve_backend("auto") == "scipy"
        states = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        with caplog.at_level("WARNING"), obs.scoped_registry() as reg:
            batch = mpc.solve_batch(states)
            assert reg.total(lp.FALLBACK_METRIC, path="scalar") == 3
            assert reg.total("rmpc_solves_total", path="scalar") == 3
            assert reg.total("rmpc_solves_total", path="stacked") == 0
        assert len(batch) == 3
        assert not caplog.records

    def test_explicit_highs_is_warm(self):
        assert resolve_backend("highs") == "highs"

    def test_highs_degrades_to_cold_without_the_core(self, monkeypatch):
        monkeypatch.setattr(lp, "_core", None)
        assert resolve_backend("highs") == "scipy"

    def test_backends_tuple_is_the_request_vocabulary(self):
        assert BACKENDS == ("auto", "highs", "scipy")

    def test_chunk_solve_is_the_wrappable_per_chunk_call(
        self, monkeypatch, chunk_size
    ):
        """A wrapper installed on ``_ChunkModel.solve`` (as a tracer
        does) sees every chunk of a stacked solve, once each."""
        calls = []
        real = _ChunkModel.__dict__["solve"]

        def counted(self, values):
            calls.append(len(values))
            return real(self, values)

        monkeypatch.setattr(_ChunkModel, "solve", counted)
        chunk_size(2)
        _solver().solve_batch(np.zeros((5, 1)))
        assert calls == [2, 2, 1]


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

    def test_chunking_matches_unchunked(self, chunk_size):
        chunked = _solver()
        whole = _solver()
        pins = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
        b = whole.solve_batch(pins)
        chunk_size(2)
        a = chunked.solve_batch(pins)
        # k=5 at a chunk size of 2 → three chunks (2, 2, 1) through one
        # 2-block model.
        assert chunked.model_builds == 1
        assert chunked._capacity == 2
        for left, right in zip(a, b):
            assert left.value == pytest.approx(right.value, abs=1e-9)
        # Same k again: the model stays warm, not rebuilt.
        chunked.solve_batch(pins + 0.1)
        assert chunked.model_builds == 1
        assert chunked.warm_solves == 5

    def test_infeasible_block_raises(self):
        solver = _solver()
        with pytest.raises(LPError, match="persistent stacked"):
            solver.solve_batch([[0.0], [3.0]])

    def test_failure_is_all_or_nothing(self, chunk_size):
        """A failing later chunk must raise (nothing partial), and the
        solver must stay usable afterwards."""
        chunk_size(2)
        solver = _solver()
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

    def test_capacity_grows_to_the_next_power_of_two(self):
        solver = _solver()
        capacities = []
        for k in (1, 2, 3, 4, 2, 5):
            solver.solve_batch(np.zeros((k, 1)))
            capacities.append(solver._capacity)
        assert capacities == [1, 2, 4, 4, 4, 8]
        # Built at k = 1, 2, 3 and 5; k = 4 and 2 fit the 4-block model.
        assert solver.model_builds == 4

    def test_default_holds_one_model(self):
        solver = _solver()
        for k in (3, 1, 2):
            solver.solve_batch(np.zeros((k, 1)))
        assert lp.STACK_CHUNK_SIZE == 1024
        assert solver.model_builds == 1
        assert solver._capacity == 4
        assert solver.warm_solves == 2

    def test_capacity_is_capped_at_the_chunk_size(self, chunk_size):
        chunk_size(3)
        solver = _solver()
        solver.solve_batch(np.zeros((7, 1)))
        assert solver._capacity == 3
        assert solver.model_builds == 1

    def test_fresh_model_parks_spare_blocks_at_a_batch_row(self):
        """The base ``b_eq`` pins ``x0 = 5``, outside the unit box: a
        spare block parked there would make the stack infeasible."""
        solver = PersistentStackSolver(
            cost=[1.0, 1.0], a_ub=BOX_H, b_ub=BOX_h, a_eq=PIN_X0,
            b_eq=[5.0], varying_eq_rows=[0],
        )
        pins = np.array([[0.5], [-0.25], [0.75]])
        batch = solver.solve_batch(pins)  # one fresh 4-block model
        assert solver.model_builds == 1
        assert solver._capacity == 4
        for pin, sol in zip(pins, batch):
            assert sol.value == pytest.approx(pin[0] - 1.0, abs=1e-9)

    def test_drifting_sizes_solve_warm_on_one_model(self):
        solver = _solver()
        rng = np.random.default_rng(4)
        for k in (5, 3, 7, 2, 6):
            pins = rng.uniform(-0.9, 0.9, size=(k, 1))
            batch = solver.solve_batch(pins)
            assert len(batch) == k
            for pin, sol in zip(pins, batch):
                scalar = solve_lp(
                    [1.0, 1.0], a_ub=BOX_H, b_ub=BOX_h, a_eq=PIN_X0, b_eq=pin
                )
                assert sol.value == pytest.approx(scalar.value, abs=1e-9)
                assert sol.x[0] == pytest.approx(pin[0], abs=1e-9)
        assert solver.model_builds == 1
        assert solver.warm_solves == 4

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


class TestHighsMatchesScipyStack:
    def test_against_solve_lp_batch(self):
        """The persistent solve and a fresh stacked ``solve_lp_batch``
        attain identical optimal values on the same stacked family (the
        plan-equivalent contract at the LP layer)."""
        pins = np.linspace(-0.9, 0.9, 7).reshape(-1, 1)
        persistent = _solver().solve_batch(pins)
        b_eq = pins  # per-block equality RHS, one varying row
        stacked = solve_lp_batch(
            np.tile([1.0, 1.0], (7, 1)), BOX_H, BOX_h,
            a_eq=PIN_X0, b_eq=b_eq,
        )
        for left, right in zip(persistent, stacked):
            assert left.value == pytest.approx(right.value, abs=1e-9)


class TestSolverState:
    def test_row_bounds_tracked_for_the_residual_check(self):
        """The residual check reads the model's right-hand sides from the
        model's mirror, which must follow every rewrite."""
        solver = _solver()
        for pins in ([[0.1], [0.2], [0.3]], [[-0.5], [0.5], [0.0]]):
            solver.solve_batch(pins)
        model = solver._model
        assert np.array_equal(
            model.row_upper, model._highs.getLp().row_upper_
        )

    def test_failure_clears_every_model(self, chunk_size):
        """After a failed batch the solver solves as a fresh one would."""
        chunk_size(2)
        solver = _solver()
        solver.solve_batch(np.full((3, 1), 0.4))
        with pytest.raises(LPError):
            solver.solve_batch([[0.0], [0.1], [3.0]])
        assert solver.warm_solves == 0
        pins = np.array([[0.2], [-0.3], [0.6]])
        again = solver.solve_batch(pins)
        fresh = _solver().solve_batch(pins)
        for got, want in zip(again, fresh):
            assert got.x.tobytes() == want.x.tobytes()
