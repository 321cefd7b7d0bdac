"""Differential tests: the HiGHS-core adapter against ``linprog``.

Every cold LP in the package runs through
:func:`repro.utils.lp.solve_prepared`, one build and one run of a
:class:`repro.utils.lp.HighsModel` on scipy's bundled HiGHS core.  Its
contract is the "fast vs reference agree" pattern: on any LP — dense or
sparse, with or without equality rows, feasible, infeasible or unbounded
— it returns the same status as ``scipy.optimize.linprog(method="highs")``
and, when optimal, the bitwise-identical ``x`` and objective.  A model
edited in place and re-run warm must agree with a cold solve of the
edited LP (status, and the objective to 1e-9 relative), and a failed
HiGHS run is mapped per route.  The guard that routes every solve
through ``linprog`` when the core is unusable is forced here too, and the
``exact_solves=True`` audit tier is re-proved bitwise against the
``linprog`` route on every zoo scenario.
"""

import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro import scenarios as scenario_registry
from repro.experiments import ExecutionConfig, SweepPlan, run_sweep
from repro.observability import metrics as obs
from repro.utils import lp
from repro.utils.lp import (
    FALLBACK_METRIC,
    LP_SOLVES_METRIC,
    HighsModel,
    LPMatrix,
    PersistentStackSolver,
    lp_feasible,
    maximize,
    solve_lp,
    solve_lp_batch,
    solve_prepared,
)

FAST = settings(max_examples=150, deadline=None)


def _reference(c, a_ub, b_ub, a_eq, b_eq):
    return linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(None, None), method="highs",
    )


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_agrees(c, a_ub, b_ub, a_eq=None, b_eq=None):
    """Adapter and ``linprog`` agree: status, success, bitwise x/fun."""
    n = len(c)
    fast = solve_prepared(c, LPMatrix.from_blocks(a_ub, a_eq, n), b_ub, b_eq)
    slow = _reference(c, a_ub, b_ub, a_eq, b_eq)
    assert fast.status == slow.status, (fast.message, slow.message)
    assert fast.success == slow.success
    if slow.x is None:
        assert fast.x is None
    else:
        assert _bits(fast.x) == _bits(slow.x)
        assert _bits(fast.fun) == _bits(slow.fun)
    return fast.status


@st.composite
def lps(draw):
    """Random small LPs: integer-valued (so many structural zeros) or
    real coefficients, dense or sparse, 0–2 equality rows, and right-hand
    sides that may be negative (infeasible) or too few rows to bound the
    objective (unbounded)."""
    n = draw(st.integers(1, 5))
    m_ub = draw(st.integers(0, 8))
    m_eq = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        a = rng.integers(-2, 3, size=(m_ub + m_eq, n)).astype(float)
    else:
        a = rng.normal(size=(m_ub + m_eq, n))
        a[rng.random(a.shape) < 0.3] = 0.0
    b = rng.uniform(-0.5, 2.0, size=m_ub + m_eq)
    c = rng.normal(size=n)
    a_ub, b_ub = (a[:m_ub], b[:m_ub]) if m_ub else (None, None)
    a_eq, b_eq = (a[m_ub:], b[m_ub:]) if m_eq else (None, None)
    if draw(st.booleans()):
        a_ub = None if a_ub is None else sp.csr_matrix(a_ub)
        a_eq = None if a_eq is None else sp.csr_matrix(a_eq)
    return c, a_ub, b_ub, a_eq, b_eq


class TestAdapterAgreesWithLinprog:
    @FAST
    @given(lps())
    def test_random_lps(self, problem):
        assert_agrees(*problem)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize(
        "case, status",
        [
            # min x + y over the unit box: optimal at (-1, -1).
            ("box", 0),
            # x <= -1 and -x <= -1: empty.
            ("infeasible", 2),
            # min x s.t. x <= 1: unbounded below.
            ("unbounded", 3),
            # min x + y on the box with x - y = 0.5.
            ("equality", 0),
            # x = 3 outside the box: infeasible through the equality.
            ("infeasible_equality", 2),
        ],
    )
    def test_every_status_class(self, case, status, sparse):
        box = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        problems = {
            "box": ([1.0, 1.0], box, np.ones(4), None, None),
            "infeasible": (
                [1.0], np.array([[1.0], [-1.0]]), [-1.0, -1.0], None, None,
            ),
            "unbounded": ([1.0], np.array([[1.0]]), [1.0], None, None),
            "equality": (
                [1.0, 1.0], box, np.ones(4), np.array([[1.0, -1.0]]), [0.5],
            ),
            "infeasible_equality": (
                [1.0, 1.0], box, np.ones(4), np.array([[1.0, 0.0]]), [3.0],
            ),
        }
        c, a_ub, b_ub, a_eq, b_eq = problems[case]
        if sparse:
            a_ub = sp.csr_matrix(a_ub)
            a_eq = None if a_eq is None else sp.csr_matrix(a_eq)
        assert assert_agrees(c, a_ub, b_ub, a_eq, b_eq) == status

    @FAST
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_stacked_batch_equals_linprog_of_the_stack(self, k, seed, eq):
        """``solve_lp_batch`` returns, bitwise, what ``linprog`` returns
        for the explicit block-diagonal stack."""
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(6, 2))
        h = rng.uniform(0.5, 2.0, size=6)
        # Bounded: close the region with a box.
        H = np.vstack([H, np.eye(2), -np.eye(2)])
        h = np.concatenate([h, 3.0 * np.ones(4)])
        C = rng.normal(size=(k, 2))
        a_eq = np.array([[1.0, 1.0]]) if eq else None
        b_eq = rng.uniform(-0.2, 0.2, size=(k, 1)) if eq else None
        try:
            batch = solve_lp_batch(C, H, h, a_eq=a_eq, b_eq=b_eq)
        except lp.LPError:
            batch = None
        res = _reference(
            C.reshape(-1),
            sp.block_diag([sp.csr_matrix(H)] * k, format="csr"),
            np.tile(h, k),
            None if a_eq is None else sp.block_diag(
                [sp.csr_matrix(a_eq)] * k, format="csr"
            ),
            None if b_eq is None else b_eq.reshape(-1),
        )
        assert (batch is not None) == res.success
        if batch is not None:
            assert _bits(np.stack([sol.x for sol in batch])) == _bits(
                res.x.reshape(k, 2)
            )

    def test_public_wrappers_match_linprog(self):
        H = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, -1.0], [1.0, -1.0]])
        h = np.array([2.0, 1.0, 1.0, 1.5])
        ref = _reference([-1.0, -1.0], H, h, None, None)
        sol = maximize([1.0, 1.0], H, h)
        assert _bits(sol.x) == _bits(ref.x)
        assert _bits(-sol.value) == _bits(ref.fun)
        sol = solve_lp([-1.0, -1.0], a_ub=H, b_ub=h)
        assert _bits(sol.value) == _bits(ref.fun)
        assert lp_feasible(H, h)
        assert not lp_feasible(np.array([[1.0], [-1.0]]), [-1.0, -1.0])

    def test_invalid_inputs_rejected_like_linprog(self):
        H = np.eye(2)
        with pytest.raises(ValueError):
            solve_lp([1.0, 1.0], a_ub=H, b_ub=[1.0])
        with pytest.raises(ValueError):
            solve_lp([1.0, 1.0], a_ub=H, b_ub=[1.0, np.inf])
        with pytest.raises(ValueError):
            solve_lp([1.0, 1.0, 1.0], a_ub=H, b_ub=[1.0, 1.0])


@st.composite
def edited_lps(draw):
    """A bounded random LP — random inequality rows closed by a box, with
    or without equality rows — and a sequence of in-place edits: rewrite
    right-hand sides, free or restore a random row, change the cost.
    Box rows are never freed, so every edited LP stays bounded;
    rewritten right-hand sides may make it infeasible."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    m_eq = draw(st.integers(0, min(2, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, n))
    a_ub = np.vstack([a, np.eye(n), -np.eye(n)])
    b_ub = np.concatenate([rng.uniform(0.2, 2.0, m), 3.0 * np.ones(2 * n)])
    a_eq = rng.normal(size=(m_eq, n))
    b_eq = rng.uniform(-0.2, 0.2, m_eq)
    edit = st.one_of(
        st.tuples(st.just("rhs"), st.lists(
            st.integers(0, m + m_eq - 1), min_size=1, max_size=3,
            unique=True,
        # On a grid: HiGHS scales rows by powers of two, which rounds the
        # bounds it reports back near the underflow threshold.
        ), st.integers(-50, 200).map(lambda k: k / 100)),
        st.tuples(st.just("free"), st.integers(0, m - 1)),
        st.tuples(st.just("restore"), st.integers(0, m - 1)),
        st.tuples(st.just("cost"), st.integers(0, 2**32 - 1)),
    )
    edits = draw(st.lists(edit, min_size=1, max_size=8))
    return rng.normal(size=n), a_ub, b_ub, a_eq, b_eq, edits


class TestHighsModelEdits:
    @FAST
    @given(edited_lps())
    def test_warm_reruns_agree_with_cold_solves(self, problem):
        """After every edit the warm re-run reaches the cold solve's
        status and objective, and the mirror equals HiGHS's bounds."""
        c, a_ub, b_ub, a_eq, b_eq, edits = problem
        n, m_ub = a_ub.shape[1], len(b_ub)
        rhs = np.concatenate([b_ub, b_eq])
        model = HighsModel(
            lp.highs_core(), c, LPMatrix.from_blocks(a_ub, a_eq, n), rhs
        )
        freed = np.zeros(m_ub, dtype=bool)
        for kind, *args in [("run",)] + edits:
            if kind == "rhs":
                rows, value = args
                # Indices below m are the random inequality rows; the
                # rest skip the box rows to reach the equality rows.
                rows = [r if r < m_ub - 2 * n else r + 2 * n for r in rows]
                rhs[rows] = value
                freed[[r for r in rows if r < m_ub]] = False
                model.set_rhs(rows, np.full(len(rows), value))
            elif kind == "free":
                freed[args[0]] = True
                model.free_row(args[0])
            elif kind == "restore":
                freed[args[0]] = False
                model.restore_row(args[0])
            elif kind == "cost":
                c = np.random.default_rng(args[0]).normal(size=n)
                model.set_cost(c)
            assert np.array_equal(
                model.row_upper, model._highs.getLp().row_upper_
            )
            warm = model.run()
            kept = ~freed
            cold = solve_prepared(
                c, LPMatrix.from_blocks(a_ub[kept], a_eq, n),
                rhs[:m_ub][kept], rhs[m_ub:],
            )
            assert warm.status == cold.status, (warm.message, cold.message)
            if cold.success:
                assert warm.fun == pytest.approx(cold.fun, rel=1e-9, abs=1e-12)

    def test_build_refuses_what_it_cannot_solve(self, monkeypatch):
        matrix = LPMatrix.from_blocks(np.eye(2), None, 2)
        assert HighsModel.build(np.zeros(2), matrix, [1.0, np.inf]) is None
        assert HighsModel.build(np.zeros(2), matrix, [1.0, 1.0]) is not None
        monkeypatch.setattr(lp, "_core", None)
        assert HighsModel.build(np.zeros(2), matrix, [1.0, 1.0]) is None


class TestFailedRun:
    """A HiGHS ``run`` that returns ``kError`` is mapped per route: a cold
    solve maps the model status as ``linprog`` does, a warm redundancy
    re-run reports 4 (so the row goes to the cold LP, never "essential"),
    and the κ_R stack raises."""

    @pytest.fixture
    def failing_run(self, monkeypatch):
        core = lp.highs_core()
        real = core.module._Highs.run

        def failing(self):
            real(self)
            return core.error

        monkeypatch.setattr(core.module._Highs, "run", failing)

    @pytest.mark.parametrize(
        "a_ub, b_ub, status",
        [
            (np.array([[1.0], [-1.0]]), [-1.0, -1.0], 2),  # infeasible
            (np.array([[1.0]]), [1.0], 3),  # unbounded below
        ],
    )
    def test_warm_rerun_is_4_and_cold_is_linprogs_mapping(
        self, failing_run, a_ub, b_ub, status
    ):
        matrix = LPMatrix.from_blocks(a_ub, None, 1)
        assert solve_prepared([1.0], matrix, b_ub).status == status
        warm = HighsModel.over(a_ub, np.array(b_ub))
        assert warm.maximize_freed(0, np.array([1.0])).status == 4
        model = HighsModel.build([1.0], matrix, np.array(b_ub))
        assert model.run().status == status

    def test_stack_raises(self, failing_run):
        solver = PersistentStackSolver(
            cost=[1.0, 1.0], a_ub=np.vstack([np.eye(2), -np.eye(2)]),
            b_ub=np.ones(4), a_eq=[[1.0, 0.0]], b_eq=[0.0],
            varying_eq_rows=[0],
        )
        with pytest.raises(lp.LPError, match="persistent stacked"):
            solver.solve_batch(np.zeros((2, 1)))

    def test_rejected_model_is_a_model_error(self, monkeypatch):
        core = lp.highs_core()
        monkeypatch.setattr(
            core.module._Highs, "passModel", lambda self, model: core.error
        )
        matrix = LPMatrix.from_blocks(np.eye(1), None, 1)
        assert solve_prepared([1.0], matrix, [1.0]).status == 2
        assert HighsModel.build([1.0], matrix, np.ones(1)) is None


class TestLinprogFallback:
    def _solves(self):
        H = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, -1.0], [1.0, -1.0]])
        h = np.array([2.0, 1.0, 1.0, 1.5])
        directions = np.array([[1.0, 0.0], [0.3, 1.0], [-1.0, 0.2]])
        scalar = [maximize(d, H, h) for d in directions]
        stacked = solve_lp_batch(-directions, H, h)
        return (
            [_bits(s.x) + _bits(s.value) for s in scalar],
            [_bits(s.x) + _bits(s.value) for s in stacked],
            lp_feasible(np.array([[1.0], [-1.0]]), [-1.0, -1.0]),
        )

    def test_forced_fallback_gives_the_same_results(self, monkeypatch):
        on_core = self._solves()
        with obs.scoped_registry():
            monkeypatch.setattr(lp, "_core", None)
            assert lp.highs_core() is None
            fallback = self._solves()
            reg = obs.registry()
            assert reg.total(FALLBACK_METRIC) == reg.total(LP_SOLVES_METRIC)
            assert reg.total(FALLBACK_METRIC, path="stacked") == 1
        assert fallback == on_core

    def test_core_used_when_healthy(self):
        with obs.scoped_registry():
            self._solves()
            reg = obs.registry()
            assert reg.total(LP_SOLVES_METRIC, path="scalar") == 4
            assert reg.total(LP_SOLVES_METRIC, path="stacked") == 1
            assert reg.total(FALLBACK_METRIC) == 0

    def test_missing_module_falls_back(self, monkeypatch, caplog):
        def missing():
            raise ImportError("no module named _core")

        monkeypatch.setattr(lp, "_import_core", missing)
        with caplog.at_level(logging.WARNING, logger=lp.__name__):
            assert lp._load_core() is None
        assert "linprog" in caplog.text

    def test_missing_attribute_falls_back(self, monkeypatch, caplog):
        class Stripped:
            pass

        monkeypatch.setattr(lp, "_import_core", lambda: Stripped())
        with caplog.at_level(logging.WARNING, logger=lp.__name__):
            assert lp._load_core() is None
        assert "AttributeError" in caplog.text

    def test_disagreeing_self_test_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(lp, "_self_test", lambda core: False)
        with caplog.at_level(logging.WARNING, logger=lp.__name__):
            assert lp._load_core() is None
        assert "self-test" in caplog.text

    def test_healthy_core_loads(self):
        assert lp._load_core() is not None


@pytest.mark.parametrize("name", scenario_registry.list_scenarios())
def test_exact_solves_audit_tier_matches_linprog(name, monkeypatch):
    """On every zoo scenario the bitwise audit tier (lockstep with
    ``exact_solves=True``, on the core) equals the serial engine run with
    every LP going through ``linprog``."""
    plan = SweepPlan.for_scenarios([name], num_cases=3, horizon=10, seed=11)
    audit = run_sweep(
        plan, ExecutionConfig(engine="lockstep", jobs=1, exact_solves=True)
    )
    monkeypatch.setattr(lp, "_core", None)
    reference = run_sweep(plan, ExecutionConfig(engine="serial", jobs=1))
    assert audit.deterministic_rows() == reference.deterministic_rows()


def _lp_solves(result) -> float:
    return sum(
        entry["value"]
        for cell in result.cells
        for entry in (cell.telemetry or {})
        .get("counters", {})
        .get(LP_SOLVES_METRIC, [])
    )


def test_warm_closed_form_lockstep_runs_zero_lps():
    """"Zero LP calls" is checkable from inside the program: a warm
    closed-form (LQR) lockstep sweep adds nothing to ``lp_solves_total``,
    while the same sweep of an RMPC scenario does."""
    execution = ExecutionConfig(engine="lockstep", jobs=1, telemetry=True)

    def sweep(name):
        plan = SweepPlan.for_scenarios(
            [name], num_cases=16, horizon=40, seed=5, execution=execution
        )
        run_sweep(plan)  # warm-up: synthesis and monitor caches
        return run_sweep(plan)

    assert _lp_solves(sweep("lane_keeping")) == 0
    assert _lp_solves(sweep("thermal")) > 0
