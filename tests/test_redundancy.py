"""Fast certified-set synthesis agrees bitwise with the serial loops.

:meth:`HPolytope.remove_redundancies` screens rows with one stacked LP,
``_dedupe_rows``/``_unique_rows`` match rows with a vectorised closeness
matrix, and :meth:`LPMatrix.stacked` assembles block-diagonal CSC arrays
directly.  Each must return exactly what the code it replaced returns:
the serial oracles in :mod:`repro.geometry.reference` and the
``scipy.sparse.block_diag`` route ("fast vs reference agree").
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.geometry import HPolytope
from repro.geometry.hpolytope import (
    REDUNDANCY_LPS_METRIC,
    _dedupe_rows,
    _unique_rows,
)
from repro.geometry.reference import (
    dedupe_rows_serial,
    remove_redundancies_serial,
    unique_rows_serial,
)
from repro.observability import metrics as obs
from repro.utils.lp import LPError, LPMatrix, _as_csr_block, maximize

FAST = settings(max_examples=150, deadline=None)


def _same(left: np.ndarray, right: np.ndarray) -> bool:
    return (left.dtype == right.dtype and left.shape == right.shape
            and left.tobytes() == right.tobytes())


@st.composite
def polytopes(draw):
    """1–3-D H-polytopes built to stress the redundancy decisions:
    exact and near duplicates, rows within 1e-10…1e-5 of redundancy,
    and empty, unbounded and 1–2-row sets."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bounded", "bounded", "empty", "unbounded", "tiny"]))
    H = rng.normal(size=(draw(st.integers(dim + 1, 8)), dim))
    h = rng.uniform(0.2, 2.0, size=len(H))
    if kind == "tiny":
        rows = draw(st.integers(1, 2))
        return HPolytope(H[:rows], h[:rows])
    if kind == "unbounded":
        H[:, 0] = -np.abs(H[:, 0]) - 0.1  # every row loosens along +x_0
    else:
        H = np.vstack([H, np.eye(dim), -np.eye(dim)])
        h = np.concatenate([h, np.full(2 * dim, 3.0)])
    extra_H, extra_h = [], []
    for _ in range(draw(st.integers(0, 4))):  # rows near redundancy
        d = rng.normal(size=dim)
        try:
            support = maximize(d, H, h).value
        except LPError:
            continue
        gap = 10.0 ** draw(st.floats(-10, -5)) * draw(st.sampled_from([-1, 1]))
        extra_H.append(d)
        extra_h.append(support + gap * np.linalg.norm(d))
    for _ in range(draw(st.integers(0, 3))):  # exact duplicates
        i = rng.integers(len(H))
        extra_H.append(H[i])
        extra_h.append(h[i] + rng.choice([0.0, 0.1, -0.05]))
    for _ in range(draw(st.integers(0, 3))):  # near duplicates
        i = rng.integers(len(H))
        scale = 10.0 ** draw(st.floats(-12, -4))
        extra_H.append(H[i] + scale * rng.normal(size=dim))
        extra_h.append(h[i] + scale * rng.normal())
    if kind == "empty":
        d = rng.normal(size=dim)
        extra_H.append(d)
        extra_h.append(-maximize(-d, H, h).value - 0.5 * np.linalg.norm(d))
    if extra_H:
        H = np.vstack([H, np.array(extra_H)])
        h = np.concatenate([h, np.array(extra_h)])
    order = rng.permutation(len(h))
    return HPolytope(H[order], h[order])


class TestRemoveRedundancies:
    @FAST
    @given(polytopes())
    def test_matches_serial_loop(self, poly):
        fast = poly.remove_redundancies()
        ref_H, ref_h = remove_redundancies_serial(poly.H, poly.h)
        assert _same(fast.H, ref_H) and _same(fast.h, ref_h)
        fast_H, fast_h = _dedupe_rows(poly.H, poly.h)
        ref_H, ref_h = dedupe_rows_serial(poly.H, poly.h)
        assert _same(fast_H, ref_H) and _same(fast_h, ref_h)

    @pytest.mark.parametrize("name", ["thermal", "pendulum", "lane_keeping"])
    def test_zoo_synthesis_replays_through_oracle(self, name, monkeypatch):
        """Every ``remove_redundancies`` input of a cold synthesis gives
        the serial loop's rows bitwise."""
        calls = []
        original = HPolytope.remove_redundancies

        def recording(self, tol=1e-9):
            result = original(self, tol)
            calls.append((self.H, self.h, tol, result))
            return result

        monkeypatch.setattr(HPolytope, "remove_redundancies", recording)
        with obs.scoped_registry():
            scenarios.build_case_study(scenarios.get(name), use_cache=False)
        assert calls
        for H, h, tol, result in calls:
            ref_H, ref_h = remove_redundancies_serial(H, h, tol)
            assert _same(result.H, ref_H) and _same(result.h, ref_h)

    @pytest.mark.parametrize("name", ["thermal", "lane_keeping"])
    def test_synthesis_counts_screens_and_rechecks(self, name, monkeypatch):
        """One screen per polytope with more than two (deduplicated) rows,
        and fewer serial re-checks than input rows.  Thermal is 1-D, so
        deduplication leaves at most two rows and nothing is screened;
        lane_keeping (4-D) screens."""
        seen = {"screenable": 0, "rows_in": 0}
        original = HPolytope.remove_redundancies

        def counting(self, tol=1e-9):
            seen["rows_in"] += self.num_constraints
            seen["screenable"] += len(_dedupe_rows(self.H, self.h)[1]) > 2
            return original(self, tol)

        monkeypatch.setattr(HPolytope, "remove_redundancies", counting)
        with obs.scoped_registry(enabled=False) as reg:
            scenarios.build_case_study(scenarios.get(name), use_cache=False)
        screens = reg.value(REDUNDANCY_LPS_METRIC, phase="screen")
        assert screens == seen["screenable"]
        assert (screens > 0) == (name != "thermal")
        assert reg.value(REDUNDANCY_LPS_METRIC, phase="recheck") < seen["rows_in"]

    def test_failed_screen_leaves_every_row_to_the_loop(self):
        """An empty set fails the stacked screen; the serial loop then
        decides every row, as before."""
        poly = HPolytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([1.0, -2.0, 1.0, 1.0]),
        )
        with obs.scoped_registry() as reg:
            fast = poly.remove_redundancies()
        ref_H, ref_h = remove_redundancies_serial(poly.H, poly.h)
        assert _same(fast.H, ref_H) and _same(fast.h, ref_h)
        assert reg.value(REDUNDANCY_LPS_METRIC, phase="screen") == 1
        assert reg.value(REDUNDANCY_LPS_METRIC, phase="recheck") == 4


@st.composite
def near_duplicate_rows(draw):
    """Rows drawn from a few prototypes, perturbed around the matchers'
    ``atol`` and ``rtol·|y|`` thresholds, with ±0.0 offset ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    protos = rng.normal(size=(draw(st.integers(1, 4)), n)) * draw(
        st.sampled_from([1e-3, 1.0, 1e3])
    )
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        row = protos[rng.integers(len(protos))].copy()
        step = draw(st.sampled_from([0.0, 1e-11, 1e-10, 5e-9, 1e-8, 1e-6, 1e-5, 2e-5]))
        row += step * np.abs(row) * rng.choice([-1.0, 1.0], size=n)
        row += draw(st.sampled_from([0.0, 0.0, 9e-11, 1.1e-10, 9e-9, 1.1e-8]))
        rows.append(row)
    A = np.array(rows)
    h = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=len(A))
    return A, h


class TestRowMatchers:
    @FAST
    @given(near_duplicate_rows())
    def test_dedupe_matches_allclose_loop(self, case):
        A, h = case
        fast_H, fast_h = _dedupe_rows(A, h)
        ref_H, ref_h = dedupe_rows_serial(A, h)
        assert _same(fast_H, ref_H) and _same(fast_h, ref_h)

    @FAST
    @given(near_duplicate_rows())
    def test_unique_rows_matches_allclose_loop(self, case):
        A, _ = case
        assert _same(_unique_rows(A), unique_rows_serial(A))

    def test_signed_zero_tie_keeps_first(self):
        H = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        for h in ([0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -0.0]):
            h = np.array(h)
            assert _same(_dedupe_rows(H, h)[1], dedupe_rows_serial(H, h)[1])


def _block_diag_route(a_ub, a_eq, k):
    """The assembly :meth:`LPMatrix.stacked` replaced."""
    ub = sp.block_diag([_as_csr_block(a_ub)] * k, format="csr")
    eq = None if a_eq is None else sp.block_diag(
        [_as_csr_block(a_eq)] * k, format="csr"
    )
    return LPMatrix.from_blocks(ub, eq, ub.shape[1])


class TestStackedAssembly:
    @FAST
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 17),
        st.sampled_from(["dense", "sparse", "explicit_zeros", "mixed"]),
        st.booleans(),
    )
    def test_matches_block_diag_route(self, seed, k, form, with_eq):
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(1, 6))
        a_ub = rng.normal(size=(int(rng.integers(1, 7)), cols))
        a_ub[rng.random(a_ub.shape) < 0.4] = 0.0
        a_eq = None
        if with_eq:
            a_eq = rng.normal(size=(int(rng.integers(1, 4)), cols))
            a_eq[rng.random(a_eq.shape) < 0.4] = 0.0
        if form == "sparse":
            a_ub = sp.csr_matrix(a_ub)
            a_eq = None if a_eq is None else sp.coo_matrix(a_eq)
        elif form == "explicit_zeros":
            a_ub = sp.csr_matrix(a_ub)
            a_ub.data[::2] = 0.0  # stored entries that are zero
        elif form == "mixed" and a_eq is not None:
            a_eq = sp.csr_matrix(a_eq)
        fast = LPMatrix.stacked(a_ub, a_eq, k)
        ref = _block_diag_route(a_ub, a_eq, k)
        for field in ("indptr", "indices", "data"):
            assert _same(getattr(fast, field), getattr(ref, field)), field
        assert (fast.rows_ub, fast.rows_eq, fast.cols) == (
            ref.rows_ub, ref.rows_eq, ref.cols
        )
