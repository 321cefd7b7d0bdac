"""Fast certified-set synthesis agrees bitwise with the serial loops.

:meth:`HPolytope.remove_redundancies` decides the rows of 1-D and 2-D
polytopes by closed-form certificates where one holds, and re-solves one
warm HiGHS model row by row for the rest (cold LPs only for rows the
warm solve cannot decide; 3-D lifts keep that route under test),
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
    REDUNDANCY_CLOSED_FORM_METRIC,
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
from repro.utils import lp
from repro.utils.lp import (
    LP_SOLVES_METRIC,
    LPError,
    LPMatrix,
    _as_csr_block,
    maximize,
)

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


def _lift(poly: HPolytope, dim: int = 3) -> HPolytope:
    """``poly × [-1, 1]^(dim - n)``: the same rows, padded with zeros, then
    a unit box in the new axes.  Above 2-D no row has a closed-form
    certificate, so a lift keeps a check on the warm and cold LP route."""
    m, n = poly.H.shape
    extra = dim - n
    H = np.vstack([
        np.hstack([poly.H, np.zeros((m, extra))]),
        np.hstack([np.zeros((2 * extra, n)),
                   np.vstack([np.eye(extra), -np.eye(extra)])]),
    ])
    return HPolytope(H, np.concatenate([poly.h, np.ones(2 * extra)]))


def _counts(poly: HPolytope):
    """``(result, closed-form, warm, cold)`` of one redundancy removal."""
    with obs.scoped_registry() as reg:
        result = poly.remove_redundancies()
    return (result, reg.value(REDUNDANCY_CLOSED_FORM_METRIC),
            reg.value(REDUNDANCY_LPS_METRIC, phase="warm"),
            reg.value(REDUNDANCY_LPS_METRIC, phase="cold"))


def _matches_serial(poly: HPolytope, result: HPolytope) -> bool:
    ref_H, ref_h = remove_redundancies_serial(poly.H, poly.h)
    return _same(result.H, ref_H) and _same(result.h, ref_h)


#: The empty set of the empty-set tests: ``x <= 1`` and ``x >= 2``.
EMPTY_SQUARE = HPolytope(
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
    np.array([1.0, -2.0, 1.0, 1.0]),
)
#: The unit square behind two redundant diagonal rows (rows 0 and 5).
SQUARE_WITH_DIAGONALS = HPolytope(
    np.array([[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
              [0.0, -1.0], [1.0, -1.0]]),
    np.array([5.0, 1.0, 1.0, 1.0, 1.0, 5.0]),
)


@st.composite
def planar_polytopes(draw):
    """1-D and 2-D H-polytopes aimed at the closed-form certificates:
    near-parallel rows, rows that are duplicates only after normalising,
    unbounded and empty sets, three lines through one vertex, and a facet
    whose neighbours' corner a kept non-facet row cuts off."""
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bounded", "bounded", "unbounded", "empty"]))
    H = rng.normal(size=(draw(st.integers(dim + 1, 9)), dim))
    h = rng.uniform(0.2, 2.0, size=len(H))
    if kind == "unbounded":
        H[:, 0] = -np.abs(H[:, 0]) - 0.1  # every row loosens along +x_0
    else:
        H = np.vstack([H, np.eye(dim), -np.eye(dim)])
        h = np.concatenate([h, np.full(2 * dim, 3.0)])
    extra_H, extra_h = [], []
    if dim == 2:
        for _ in range(draw(st.integers(0, 2))):  # near-parallel rows
            i = rng.integers(len(H))
            angle = 10.0 ** draw(st.floats(-12, -3)) * rng.choice([-1.0, 1.0])
            c, s = np.cos(angle), np.sin(angle)
            extra_H.append(np.array([[c, -s], [s, c]]) @ H[i])
            extra_h.append(h[i] + draw(st.sampled_from([0.0, 1e-9, -1e-6, 0.1])))
        if kind == "bounded":
            for _ in range(draw(st.integers(0, 2))):  # a third line through a vertex
                d = rng.normal(size=dim)
                extra_H.append(d)
                extra_h.append(maximize(d, H, h).value)
    for _ in range(draw(st.integers(0, 2))):  # duplicates after normalising
        i = rng.integers(len(H))
        scale = draw(st.sampled_from([0.5, 2.0, 7.0]))
        extra_H.append(scale * H[i])
        extra_h.append(scale * (h[i] + rng.choice([0.0, 0.1, -0.05])))
    if kind == "empty":
        d = rng.normal(size=dim)
        extra_H.append(d)
        extra_h.append(-maximize(-d, H, h).value - 0.5 * np.linalg.norm(d))
    if extra_H:
        H = np.vstack([H, np.array(extra_H)])
        h = np.concatenate([h, np.array(extra_h)])
    order = rng.permutation(len(h))
    H, h = H[order], h[order]
    if dim == 2 and kind == "bounded" and draw(st.booleans()):
        H, h = _cut_corner(H, h, rng, draw(st.floats(0.1, 0.9)))
    # Move the set away from the origin, where shots of rows that are not
    # facets start.
    shift = draw(st.sampled_from([0.0, 0.0, 10.0])) * rng.normal(size=dim)
    return HPolytope(H, h + H @ shift)


def _cut_corner(H, h, rng, fraction):
    """Append a row ``i`` that cuts off a vertex ``p`` of ``H x <= h``, then
    a row ``c`` that is redundant given ``i`` but still cuts ``p``: when
    ``i`` is checked, ``c`` is kept and cuts off the corner that ``i``'s
    neighbours would leave."""
    normal = rng.normal(size=2)
    normal /= np.linalg.norm(normal)
    corner = maximize(normal, H, h).x
    low = -maximize(-normal, H, h).value
    cut = normal @ corner - 0.3 * (normal @ corner - low)
    tilt = rng.uniform(0.05, 0.4) * rng.choice([-1.0, 1.0])
    other = np.array([[np.cos(tilt), -np.sin(tilt)],
                      [np.sin(tilt), np.cos(tilt)]]) @ normal
    low = maximize(other, np.vstack([H, normal]), np.append(h, cut)).value
    high = other @ corner
    return (np.vstack([H, normal, other]),
            np.concatenate([h, [cut, low + fraction * (high - low)]]))


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

    @settings(max_examples=300, deadline=None)
    @given(planar_polytopes())
    def test_planar_certificates_match_serial_loop(self, poly):
        """The closed-form certificates, and the LP route for the rows
        they leave undecided, give the serial loop's rows bitwise."""
        assert _matches_serial(poly, poly.remove_redundancies())

    @pytest.mark.parametrize("name", ["thermal", "pendulum", "lane_keeping", "acc"])
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
    def test_synthesis_counts_warm_and_cold(self, name, monkeypatch):
        """Every redundancy check of a zoo synthesis is decided once: a
        polytope decides each of its deduplicated rows but at most one
        (the last row, once every earlier one is dropped, has nothing to
        be checked against).  In 1-D and 2-D (thermal) a certificate
        decides every check and no LP is solved; above 2-D (lane_keeping)
        every check is a warm re-solve.  Replayed on 3-D lifts, thermal's
        polytopes take the warm route too.  None goes cold."""
        seen = {"rows": 0, "at_least": 0, "planar": []}
        original = HPolytope.remove_redundancies

        def counting(self, tol=1e-9):
            rows = len(_dedupe_rows(self.H, self.h)[1])
            seen["rows"] += rows
            seen["at_least"] += rows - 1
            if self.dim <= 2:
                seen["planar"].append(self)
            return original(self, tol)

        monkeypatch.setattr(HPolytope, "remove_redundancies", counting)
        with obs.scoped_registry(enabled=False) as reg:
            scenarios.build_case_study(scenarios.get(name), use_cache=False)
        monkeypatch.setattr(HPolytope, "remove_redundancies", original)
        closed = reg.value(REDUNDANCY_CLOSED_FORM_METRIC)
        warm = reg.value(REDUNDANCY_LPS_METRIC, phase="warm")
        assert reg.value(REDUNDANCY_LPS_METRIC, phase="cold") == 0
        assert warm == reg.value(LP_SOLVES_METRIC, path="warm")
        assert 0 < seen["at_least"] <= closed + warm <= seen["rows"]
        assert (closed > 0) == bool(seen["planar"]) and (warm > 0) != (closed > 0)
        lifted = {"rows": 0, "at_least": 0, "warm": 0}
        for poly in seen["planar"]:
            lift = _lift(poly)
            rows = len(_dedupe_rows(lift.H, lift.h)[1])
            result, closed, warm, cold = _counts(lift)
            assert _matches_serial(lift, result)
            assert closed == 0 and cold == 0
            lifted["rows"] += rows
            lifted["at_least"] += rows - 1
            lifted["warm"] += warm
        assert lifted["at_least"] <= lifted["warm"] <= lifted["rows"]

    def test_empty_set_leaves_undecided_rows_cold(self):
        """On an empty set a ray keeps each row: the checks of ``x <= 1``
        and ``x >= 2`` are unbounded, and those of ``y <= 1`` and ``y >=
        -1`` infeasible, which keeps them too.  On the 3-D lift the warm
        solves of the rows whose check region is empty report infeasible;
        those rows go cold, as the serial loop solves them, and the two
        unbounded checks keep their rows warm."""
        result, closed, warm, cold = _counts(EMPTY_SQUARE)
        assert _matches_serial(EMPTY_SQUARE, result)
        assert result.num_constraints == 4
        assert (closed, warm, cold) == (4, 0, 0)
        lift = _lift(EMPTY_SQUARE)
        result, closed, warm, cold = _counts(lift)
        assert _matches_serial(lift, result)
        assert (closed, warm, cold) == (0, 6, 4)

    def test_dropped_rows_stay_free_for_later_warm_solves(self):
        """In 2-D a certificate drops the two diagonals and keeps the
        square's sides, with no LP.  On the 3-D lift a dropped row keeps
        its ``+inf`` bound in the residual check too: after rows 0 and 5
        are dropped, every later optimum lies outside them, and each row
        is still decided warm."""
        result, closed, warm, cold = _counts(SQUARE_WITH_DIAGONALS)
        assert _matches_serial(SQUARE_WITH_DIAGONALS, result)
        assert result.num_constraints == 4
        assert (closed, warm, cold) == (6, 0, 0)
        lift = _lift(SQUARE_WITH_DIAGONALS)
        with obs.scoped_registry() as reg:
            result = lift.remove_redundancies()
        assert _matches_serial(lift, result)
        assert result.num_constraints == 6
        assert reg.value(REDUNDANCY_CLOSED_FORM_METRIC) == 0
        assert reg.value(REDUNDANCY_LPS_METRIC, phase="warm") == 8
        assert reg.value(REDUNDANCY_LPS_METRIC, phase="cold") == 0
        assert reg.value(LP_SOLVES_METRIC, path="scalar") == 0

    def test_margin_row_builds_the_warm_model_late(self):
        """A row through a vertex of the square (``x + y <= 2``) has its
        serial value ``h_i`` inside the decision margin, so it has no
        certificate.  It is the one row that takes the LP route: the warm
        model is built for it, with the diagonal dropped before it
        already freed; its warm value is inside the margin too, so it is
        re-solved cold, and the result is the serial loop's."""
        poly = HPolytope(
            np.array([[1.0, -1.0], [1.0, 1.0], [1.0, 0.0], [-1.0, 0.0],
                      [0.0, 1.0], [0.0, -1.0]]),
            np.array([5.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        )
        result, closed, warm, cold = _counts(poly)
        assert _matches_serial(poly, result)
        assert result.num_constraints == 4
        assert (closed, warm, cold) == (5, 1, 1)

    @pytest.mark.parametrize("shift", [-1e-6, -1e-9, 0.0, 1e-9, 1e-6])
    def test_rows_inside_the_margin_match_serial_loop(self, shift):
        """A row within ``1e-6·(1 + |h_i|)`` of ``h_i + tol`` is never
        decided by a certificate; the LP route gives the serial answer."""
        H = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                      [1.0, 1.0]])
        poly = HPolytope(H, np.array([1.0, 1.0, 1.0, 1.0, 2.0 + shift]))
        result, closed, warm, cold = _counts(poly)
        assert _matches_serial(poly, result)
        assert warm + cold >= 1 and closed <= 4

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-10])
    def test_touching_row_away_from_the_origin(self, offset):
        """``y <= offset`` touches the vertex ``(5, 0)`` of a set that does
        not hold the origin, and is redundant within ``tol``.  Shot from
        the origin along ``(0, 1)``, it reaches ``y = 10`` before a row
        stops it, at a point outside ``x >= 5``: that point is no
        certificate, and the row takes the LP route."""
        poly = HPolytope(
            np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0],
                      [2.0, 1.0]]),
            np.array([offset, -5.0, 6.0, 1.0, 10.0]),
        )
        result, closed, warm, cold = _counts(poly)
        assert _matches_serial(poly, result)
        assert result.num_constraints == 3
        assert (closed, warm, cold) == (4, 1, 1)

    def test_without_core_every_row_goes_cold(self, monkeypatch):
        """With no bundled core there is no warm model: every decided row
        that no certificate decides is one cold LP (through ``linprog``),
        and the result is still the serial loop's bitwise.  In 2-D the
        certificates decide these sets without an LP; their 3-D lifts
        go cold row by row."""
        monkeypatch.setattr(lp, "_core", None)
        single = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
        cases = [
            (SQUARE_WITH_DIAGONALS, 6, 8),
            (EMPTY_SQUARE, 4, 6),
            (single, 0, 3),
        ]
        for poly, planar, lifted in cases:
            for shape, decided, certified in ((poly, planar, planar),
                                              (_lift(poly), lifted, 0)):
                result, closed, warm, cold = _counts(shape)
                assert _matches_serial(shape, result)
                assert closed == certified and warm == 0
                assert cold == decided - certified
                with obs.scoped_registry() as reg:
                    shape.remove_redundancies()
                assert reg.value(LP_SOLVES_METRIC, path="warm") == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planar_polytopes())
    def test_planar_without_core_matches_serial_loop(self, poly):
        """Certificates and the cold ``linprog`` route for the rest agree
        with the serial loop when the bundled core is unusable."""
        original = lp._core
        lp._core = None
        try:
            result, _, warm, _ = _counts(poly)
            assert _matches_serial(poly, result)
            assert warm == 0
        finally:
            lp._core = original

    def test_zoo_checks_are_mostly_closed_form(self, monkeypatch):
        """On the 1-D and 2-D polytopes of the perfbench grid (thermal and
        pendulum at horizons 4 and 6), at least 95% of the row checks are
        decided without an LP."""
        planar = []
        original = HPolytope.remove_redundancies

        def recording(self, tol=1e-9):
            if self.dim <= 2:
                planar.append((self, tol))
            return original(self, tol)

        monkeypatch.setattr(HPolytope, "remove_redundancies", recording)
        with obs.scoped_registry(enabled=False):
            for name in ("thermal", "pendulum"):
                for horizon in (4, 6):
                    spec = scenarios.get(name).with_overrides(horizon=horizon)
                    scenarios.build_case_study(spec, use_cache=False)
        monkeypatch.setattr(HPolytope, "remove_redundancies", original)
        with obs.scoped_registry(enabled=False) as reg:
            for poly, tol in planar:
                poly.remove_redundancies(tol)
        closed = reg.value(REDUNDANCY_CLOSED_FORM_METRIC)
        lps = reg.total(REDUNDANCY_LPS_METRIC)
        assert planar and closed >= 0.95 * (closed + lps)


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
