"""Differential tests for the row-dot kernel (``repro.utils.rowdot``).

The kernel replaced ``np.sum(M * X[:, None, :], axis=-1)`` at every
bitwise matvec site, so below 8 terms (where numpy's reduction is a
plain left-to-right loop) it must return that expression's bytes, at any
batch height and on the awkward floats (signed zeros, subnormals, mixed
magnitudes, zero columns).  At every length a scalar call must equal the
matching batch row, and a point of the wrong length must be refused.  The
engine-level tests run two zoo scenarios with the kernel and with the
old expression patched back in, and demand identical records.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.controllers import LinearFeedback
from repro.framework import BatchRunner, SafetyMonitor, run_lockstep
from repro.geometry import HPolytope
from repro.skipping import PeriodicSkipPolicy
from repro.systems import DiscreteLTISystem
import repro.utils.rowdot as rowdot_module
from repro.utils.rowdot import rowdot

#: Shortest contraction that numpy's pairwise summation regroups.
PAIRWISE_BLOCK = 8


def reference(M, X):
    """The expression the kernel replaced."""
    return np.sum(M * X[..., None, :], axis=-1)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]

#: Entries spanning signed zeros, subnormals and magnitudes 1e-8..1e8.
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
    st.builds(
        lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.integers(-8, 8),
        st.floats(min_value=1.0, max_value=9.999),
    ),
)


def seeded_rows(rng, count, n):
    """``count`` rows of mixed magnitudes with signed zeros and subnormals."""
    rows = rng.choice([-1.0, 1.0], size=(count, n)) * 10.0 ** rng.uniform(
        -8, 8, size=(count, n)
    )
    kind = rng.random((count, n))
    rows[kind < 0.1] = 0.0
    rows[(kind >= 0.1) & (kind < 0.2)] = -0.0
    subnormal = (kind >= 0.2) & (kind < 0.25)
    rows[subnormal] = 5e-324 * rng.integers(-1000, 1000, size=subnormal.sum())
    return rows


@st.composite
def operands(draw, max_n=PAIRWISE_BLOCK - 1):
    """``(M, X)``: hypothesis-drawn matrix and head rows, a seeded tail
    up to 600 rows high, and optionally zeroed columns."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.integers(1, 12))
    height = draw(st.integers(1, 600))
    M = np.array(
        draw(st.lists(ELEMENTS, min_size=rows * n, max_size=rows * n))
    ).reshape(rows, n)
    head = min(height, draw(st.integers(0, 4)))
    X = np.empty((height, n))
    X[:head] = np.array(
        draw(st.lists(ELEMENTS, min_size=head * n, max_size=head * n))
    ).reshape(head, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X[head:] = seeded_rows(rng, height - head, n)
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    M[:, zero] = draw(st.sampled_from([0.0, -0.0]))
    return M, X


class TestKernelMatchesReduction:
    @settings(max_examples=300, deadline=None)
    @given(operands())
    def test_batch_bytes_equal_reference(self, pair):
        M, X = pair
        assert rowdot(M, X).tobytes() == reference(M, X).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(operands(max_n=PAIRWISE_BLOCK + 4))
    def test_scalar_equals_batch_row(self, pair):
        M, X = pair
        batch = rowdot(M, X)
        for t in range(min(len(X), 25)):
            point = rowdot(M, X[t])
            assert point.shape == (M.shape[0],)
            assert point.tobytes() == batch[t].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, PAIRWISE_BLOCK - 1])
    def test_negative_zero_first_product_sums_to_positive_zero(self, n):
        """A ``-0.0`` first product that no later term changes: numpy's
        reduction starts from ``+0.0``, so the kernel must too."""
        M = np.full((3, n), 1.0)
        M[:, 0] = -1.0
        X = np.full((5, n), -0.0)
        X[:, 0] = 0.0  # products: -0.0 first, then -0.0 throughout
        expected = reference(M, X)
        assert not np.signbit(expected).any()
        assert rowdot(M, X).tobytes() == expected.tobytes()
        assert rowdot(M, X[0]).tobytes() == expected[0].tobytes()

    def test_empty_contraction_is_zero(self):
        out = rowdot(np.zeros((3, 0)), np.zeros((5, 0)))
        assert out.shape == (5, 3)
        assert out.tobytes() == reference(np.zeros((3, 0)), np.zeros((5, 0))).tobytes()


class TestWrongLengthRefused:
    """The kernel checks the contraction length itself, so no entry point
    silently reads only the first ``n`` coordinates of a longer point."""

    @pytest.mark.parametrize("length", [3, 5])
    def test_kernel(self, length):
        M = np.ones((2, 4))
        with pytest.raises(ValueError):
            rowdot(M, np.ones(length))
        with pytest.raises(ValueError):
            rowdot(M, np.ones((6, length)))

    def test_linear_feedback(self):
        controller = LinearFeedback(np.ones((1, 4)))
        with pytest.raises(ValueError):
            controller.compute(np.ones(5))
        with pytest.raises(ValueError):
            controller.compute_batch(np.ones((3, 5)))

    def test_dynamics(self):
        box = HPolytope.from_box
        system = DiscreteLTISystem(
            np.eye(2),
            np.ones((2, 1)),
            safe_set=box([-1.0, -1.0], [1.0, 1.0]),
            input_set=box([-1.0], [1.0]),
            disturbance_set=box([-0.1, -0.1], [0.1, 0.1]),
        )
        with pytest.raises(ValueError):
            system.step(np.ones(3), np.ones(1))
        with pytest.raises(ValueError):
            system.step(np.ones(2), np.ones(2))

    def test_polytope(self):
        box = HPolytope.from_box([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            box.violation(np.zeros(3))
        with pytest.raises(ValueError):
            box.contains(np.zeros(3))


@st.composite
def polytope_stack(draw):
    """Two or three polytopes of one dimension and a point batch."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    polytopes = []
    for _ in range(draw(st.integers(2, 3))):
        m = draw(st.integers(1, 10))
        H = seeded_rows(rng, m, n)
        h = rng.uniform(-1.0, 1.0, size=m) * 10.0 ** rng.uniform(-8, 8, size=m)
        polytopes.append(HPolytope(H, h, normalize=False))
    X = seeded_rows(rng, draw(st.integers(1, 300)), n)
    return polytopes, X


@st.composite
def nested_pair(draw):
    """A seeded nested pair ``X' ⊆ XI`` and points at ±tol of their facets.

    ``XI`` is a box cut by random halfspaces that keep the origin inside;
    ``X'`` is ``XI`` shrunk towards the origin (or ``XI`` itself, so that
    the two share every facet).  Each boundary point is a random point
    moved along one facet's normal to ``h_i + s`` with ``s`` at, just
    inside or just outside ``±tol``.
    """
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = draw(st.integers(0, 6))
    half = rng.uniform(0.5, 3.0, size=n)
    invariant = HPolytope(
        np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(cuts, n))]),
        np.concatenate([half, half, rng.uniform(0.2, 2.0, size=cuts)]),
    )
    shrink = draw(st.one_of(st.just(1.0), st.floats(0.3, 1.0)))
    strengthened = HPolytope(invariant.H, invariant.h * shrink, normalize=False)
    tol = SafetyMonitor.tol
    rows = np.vstack([strengthened.H, invariant.H])
    offsets = np.concatenate([strengthened.h, invariant.h])
    count = draw(st.integers(1, 60))
    start = rng.uniform(-3.5, 3.5, size=(count, n))
    facet = rng.integers(len(rows), size=count)
    shift = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=count) * tol
    shift *= rng.choice([1.0 - 1e-9, 1.0, 1.0 + 1e-9], size=count)
    along = offsets[facet] + shift - np.sum(rows[facet] * start, axis=1)
    X = np.vstack([start, start + along[:, None] * rows[facet]])
    return strengthened, invariant, X


class TestMembershipRoutesAgree:
    @settings(max_examples=100, deadline=None)
    @given(polytope_stack())
    def test_scalar_and_batch_routes_agree(self, case):
        polytopes, X = case
        for poly in polytopes:
            batch = poly.contains_batch(X)
            assert [poly.contains(x) for x in X[:20]] == batch[:20].tolist()
            violation = poly.violation_batch(X)
            assert violation[:20].tobytes() == np.array(
                [poly.violation(x) for x in X[:20]]
            ).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(nested_pair())
    def test_classification_equals_serial_classify(self, case):
        """The X'-then-XI batch classification (the lockstep engine's and
        ``classify_batch``'s) against per-row non-strict ``classify``."""
        strengthened, invariant, X = case
        batch = SafetyMonitor(strengthened, invariant, invariant, strict=False)
        serial = SafetyMonitor(strengthened, invariant, invariant, strict=False)
        assert batch.classify_batch(X) == [serial.classify(x) for x in X]
        assert batch.violations == serial.violations
        in_strengthened, unsafe = batch.membership_batch(X)
        assert in_strengthened.tolist() == [strengthened.contains(x) for x in X]
        assert unsafe.tolist() == [
            not strengthened.contains(x) and not invariant.contains(x) for x in X
        ]
        for poly in (strengthened, invariant):
            assert poly.contains_batch(X).tolist() == [poly.contains(x) for x in X]
            assert poly.violation_batch(X).tobytes() == np.array(
                [poly.violation(x) for x in X]
            ).tobytes()


CASES = 6
STEPS = 30


def run_scenario(name, engine):
    """Records of one seeded batch, plus the lockstep trajectories."""
    case = scenarios.build(name)
    runner = BatchRunner(
        case.system,
        case.controller,
        lambda: case.make_monitor(strict=False),
        lambda: PeriodicSkipPolicy(2),
        skip_input=case.skip_input,
        engine=engine,
        exact_solves=True,
    )
    states = case.sample_initial_states(np.random.default_rng(3), CASES)
    factory = case.disturbance_factory(STEPS)
    records = runner.run_seeded(states, factory, 20261019).deterministic_records()
    runs = run_lockstep(
        case.system,
        case.controller,
        [case.make_monitor(strict=False) for _ in states],
        [PeriodicSkipPolicy(2) for _ in states],
        states,
        [factory(e, np.random.default_rng(100 + e)) for e in range(CASES)],
        skip_input=case.skip_input,
        exact_solves=True,
    )
    trajectories = [(r.states.tobytes(), r.inputs.tobytes()) for r in runs]
    return records, trajectories


def patch_back_reference(monkeypatch):
    """Route every module that imported the kernel to the old expression."""
    patched = 0
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if module is rowdot_module or not name.startswith("repro."):
            continue
        if getattr(module, "rowdot", None) is rowdot:
            monkeypatch.setattr(module, "rowdot", reference)
            patched += 1
    return patched


class TestEngineRecordsUnchanged:
    @pytest.mark.parametrize("name", ["lane_keeping", "pendulum"])
    def test_kernel_matches_reference_expression(self, name, monkeypatch):
        records, trajectories = run_scenario(name, "lockstep")
        serial_records, _ = run_scenario(name, "serial")
        assert records == serial_records
        # membership, dynamics and linear feedback
        assert patch_back_reference(monkeypatch) >= 3
        old_records, old_trajectories = run_scenario(name, "lockstep")
        assert records == old_records
        assert trajectories == old_trajectories
