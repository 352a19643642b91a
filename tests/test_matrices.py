import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames.errors import DimensionTooLarge
from affinegames.matrices import (
    CLASSIFY_CAP,
    NotSingular,
    _classify_stack,
    _classify_sweep,
    SquareMatrix,
    ZeroPivot,
    classify,
    gen_k_matrix,
    gen_p_matrix,
    positive_left_null,
    principal_minor,
    scaled_tol,
    schur_reduce,
)

# Singular Z-matrix with positive proper minors; its left null vector is
# the all-ones direction.
SINGULAR_K0 = np.array(
    [
        [2 / 9, -1 / 9, -1 / 9],
        [-1 / 9, 2 / 9, -1 / 9],
        [-1 / 9, -1 / 9, 2 / 9],
    ]
)


def _timed(call):
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


class TestSquareMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SquareMatrix(np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            SquareMatrix(np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SquareMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_from_rows(self):
        M = SquareMatrix.from_rows([[1, 2], [3, 4]])
        assert M.m == 2
        assert M.entries.dtype == np.float64


class TestClassify:
    def test_identity_is_k(self):
        cls = classify(np.eye(3))
        assert cls.is_P and cls.is_Z and cls.is_K
        assert cls.is_P0prime and cls.is_K0prime
        assert cls.has_positive_diagonal
        assert cls.has_nonzero_proper_minors
        assert cls.column_sums_nonneg

    def test_positive_offdiagonal_is_not_z(self):
        cls = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))  # det = -3
        assert not cls.is_Z
        assert not cls.is_P
        assert not cls.is_P0prime

    def test_singular_z_is_k0prime_not_k(self):
        cls = classify(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert cls.is_Z and cls.is_P0prime and cls.is_K0prime
        assert not cls.is_P and not cls.is_K
        assert cls.has_nonzero_proper_minors  # proper minors are 1, 1

    def test_three_player_singular_instance(self):
        cls = classify(SINGULAR_K0)
        assert cls.is_K0prime and not cls.is_P
        assert cls.has_positive_diagonal
        assert cls.column_sums_nonneg

    def test_zero_diagonal_is_nothing(self):
        cls = classify(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not cls.is_P and not cls.is_P0prime
        assert not cls.has_positive_diagonal
        assert not cls.has_nonzero_proper_minors

    def test_diagonal_is_positive_above_zero(self):
        # the rule GameSpec applies: an entry far below tol times the largest
        # entry of its row, or of the matrix, is still positive
        cls = classify(np.diag([1e-10, 1.0]))
        assert cls.is_K and cls.has_positive_diagonal
        assert classify(np.array([[1e-10, -1.0], [0.0, 1.0]])).has_positive_diagonal
        assert classify(np.array([[1e-13, -1e-3], [0.0, 1.0]])).has_positive_diagonal
        assert not classify(np.array([[0.0]])).has_positive_diagonal
        assert not classify(np.array([[-1e-300]])).has_positive_diagonal

    def test_nonsymmetric_p_matrix(self):
        # minors 1, 1, det = 1 + 4 = 5: P but not Z and not symmetric
        cls = classify(np.array([[1.0, -2.0], [2.0, 1.0]]))
        assert cls.is_P and not cls.is_Z

    def test_cap(self):
        # the exhaustive sweep, which every non-Z matrix takes, keeps its cap
        with pytest.raises(DimensionTooLarge, match="cap is 16"):
            classify(gen_p_matrix(0, 17))

    def test_z_matrices_are_not_capped(self):
        cls = classify(np.eye(17))
        assert cls.is_K and cls.is_K0prime and cls.is_P

    def test_z_matrix_outside_k0prime_keeps_the_cap(self):
        with pytest.raises(DimensionTooLarge):
            classify(-np.eye(17))


def dhat(weights):
    alpha = np.asarray(weights, dtype=float)
    return np.diag(alpha) - np.outer(alpha, alpha)


def z_matrix(seed, m, kind):
    """Seeded Z-matrices: K, D-hat with weights summing to 1 (singular K0')
    and to 0.9 (K), singular with a positive left null vector, and sparse
    random ones that are often outside K0'."""
    rng = np.random.default_rng([seed, m])
    if kind == "k":
        return gen_k_matrix(seed, m).entries
    if kind in ("dhat", "dhat-0.9"):
        w = rng.uniform(0.5, 1.5, m)
        return dhat((1.0 if kind == "dhat" else 0.9) * w / w.sum())
    off = -rng.uniform(0.0, 1.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.6)
    np.fill_diagonal(off, 0.0)
    if kind == "singular":
        v = rng.uniform(0.5, 1.5, m)
        return off + np.diag(-(v @ off) / v) if m > 1 else np.zeros((1, 1))
    return off + np.diag(rng.uniform(0.0, 2.0, m))


class TestZMatrixPath:
    """classify's polynomial path against the exhaustive sweep it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 10),
        kind=st.sampled_from(["k", "dhat", "dhat-0.9", "singular", "sparse"]),
        tol=st.sampled_from([1e-9, 1e-6]),
    )
    def test_flags_equal_the_sweep(self, seed, m, kind, tol):
        a = z_matrix(seed, m, kind)
        assert classify(a, tol) == _classify_sweep(a, tol)

    @pytest.mark.parametrize(
        "a, tol, k0prime",
        [
            (dhat([0.2, 0.3, 0.5]), 1e-9, True),
            (dhat([0.2, 0.3, 0.5 + 1e-7]), 1e-9, False),
            (dhat([0.2, 0.3, 0.5 + 1e-7]), 1e-6, True),
            (np.array([[1.0, -1.0], [-1.0, 0.99999999]]), 1e-9, False),
            (np.array([[1.0, -1.0], [-1.0, 0.99999999]]), 1e-6, True),
            (np.zeros((1, 1)), 1e-9, True),
            (np.ones((1, 1)), 2.0, True),  # at tol >= 1 a 1x1 determinant counts as zero
        ],
    )
    def test_tolerance_boundary(self, a, tol, k0prime):
        cls = classify(a, tol)
        assert cls == _classify_sweep(a, tol)
        assert cls.is_K0prime is k0prime and not cls.is_K

    @pytest.mark.parametrize("singular", [False, True])
    def test_m200_in_under_100_ms(self, singular):
        a = dhat(np.full(200, 1 / 200)) if singular else gen_k_matrix(0, 200).entries
        best = min(_timed(lambda: classify(a)) for _ in range(3))
        cls = classify(a)
        assert cls.is_K0prime and cls.is_K is not singular
        assert best < 0.1


def stack_member(seed, m, kind):
    """One matrix of a mixed stack: a K-matrix, a singular D-hat, a P-matrix
    that is not a Z-matrix, a K-matrix with a zero row, or one with a
    near-zero positive diagonal entry."""
    if kind == "dhat":
        return z_matrix(seed, m, "dhat")
    if kind == "p":
        return gen_p_matrix(seed, m).entries
    a = gen_k_matrix(seed, m).entries.copy()
    if kind == "zero-row":
        a[seed % m] = 0.0
    elif kind == "near-zero-diagonal":
        a[seed % m, seed % m] = 1e-13
    return a


class TestClassifyStack:
    """Each row of a stack is classified as it would be on its own."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 8),
        members=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.sampled_from(["k", "dhat", "p", "zero-row", "near-zero-diagonal"]),
                st.sampled_from([1.0, 1e12, 1e-12]),
            ),
            min_size=1,
            max_size=6,
        ),
        tol=st.sampled_from([1e-9, 1e-6]),
    )
    def test_rows_equal_classify_alone_and_the_sweep(self, m, members, tol):
        stack = np.stack([scale * stack_member(seed, m, kind) for seed, kind, scale in members])
        assert m <= CLASSIFY_CAP  # so the sweep can judge every row
        for a, cls in zip(stack, _classify_stack(stack, tol)):
            assert cls == classify(a, tol) == _classify_sweep(a, tol)

    def test_mixed_stack_hand_values(self):
        stack = np.stack([dhat([0.2, 0.3, 0.5]), -SINGULAR_K0, gen_k_matrix(0, 3).entries])
        classes = _classify_stack(stack, 1e-9)
        flags = [(c.is_K, c.is_K0prime) for c in classes]
        assert flags == [(False, True), (False, False), (True, True)]


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_minor_flags_are_scale_invariant(scale):
    """Minors of a 12x12 matrix scaled by 1e-30 are about 1e-360: they and
    their bound must not underflow to zero together. The entrywise flags
    must not change with the scale either: this matrix has positive
    off-diagonal entries, so it is not a Z-matrix at any scale."""
    a = gen_p_matrix(0, 12).entries
    plain, scaled = classify(a), classify(scale * a)
    assert plain.is_P and plain.has_nonzero_proper_minors
    assert not plain.is_Z and plain.has_positive_diagonal
    assert dataclasses.asdict(scaled) == dataclasses.asdict(plain)


def test_principal_minor_hand_values():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert principal_minor(M, [0]) == pytest.approx(1.0)
    assert principal_minor(M, [1]) == pytest.approx(4.0)
    assert principal_minor(M, [0, 1]) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        principal_minor(M, [])
    with pytest.raises(ValueError):
        principal_minor(M, [2])


class TestSchurReduce:
    def test_hand_value(self):
        out = schur_reduce(np.array([[2.0, -1.0], [-1.0, 2.0]]), 0)
        assert out.entries == pytest.approx(np.array([[1.5]]))

    def test_zero_pivot(self):
        with pytest.raises(ZeroPivot):
            schur_reduce(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            schur_reduce(np.eye(2), 2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(2, 6), pivot=st.integers(0, 5))
    def test_determinant_identity(self, seed, m, pivot):
        M = gen_k_matrix(seed, m)
        i = pivot % m
        reduced = schur_reduce(M, i)
        lhs = float(np.linalg.det(M.entries))
        rhs = M.entries[i, i] * float(np.linalg.det(reduced.entries))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_preserves_k_class(self):
        for seed in range(25):
            m = 2 + seed % 4
            M = gen_k_matrix(seed, m)
            for i in range(m):
                assert classify(schur_reduce(M, i)).is_K, (seed, i)


class TestPositiveLeftNull:
    def test_three_player_instance(self):
        cert = positive_left_null(SINGULAR_K0)
        assert cert is not None
        assert cert.v == pytest.approx(np.ones(3))

    def test_two_player_instance(self):
        cert = positive_left_null(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert cert.v == pytest.approx(np.ones(2))

    def test_nonsingular_raises(self):
        with pytest.raises(NotSingular):
            positive_left_null(np.eye(2))

    def test_sign_indefinite_null_vector_gives_none(self):
        # left null space of [[1, 1], [1, 1]] is spanned by (1, -1)
        assert positive_left_null(np.array([[1.0, 1.0], [1.0, 1.0]])) is None

    def test_multidimensional_null_gives_none(self):
        assert positive_left_null(np.zeros((2, 2))) is None

    def test_certificate_annihilates_matrix(self):
        for s in (0.2, 0.5, 0.8):
            alpha = np.array([s / 2, s / 2])
            dhat = np.diag(alpha) - np.outer(alpha, alpha)
            with pytest.raises(NotSingular):
                positive_left_null(dhat)
        alpha = np.array([0.5, 0.5])
        dhat = np.diag(alpha) - np.outer(alpha, alpha)
        cert = positive_left_null(dhat)
        assert float(np.max(np.abs(cert.v @ dhat))) < 1e-12


class TestGenerators:
    def test_k_matrix_is_k_and_deterministic(self):
        for seed in range(10):
            m = 2 + seed % 5
            M = gen_k_matrix(seed, m)
            again = gen_k_matrix(seed, m)
            assert np.array_equal(M.entries, again.entries)
            assert classify(M).is_K

    def test_k_matrix_nonneg_colsums(self):
        for seed in range(10):
            M = gen_k_matrix(seed, 4, require_nonneg_colsums=True)
            assert float(np.min(M.entries.sum(axis=0))) >= 0.0

    def test_k_matrix_m1(self):
        assert gen_k_matrix(0, 1).entries == pytest.approx(np.array([[1.0]]))

    def test_p_matrix_is_p_and_symmetric(self):
        for seed in range(10):
            m = 2 + seed % 5
            M = gen_p_matrix(seed, m)
            assert classify(M).is_P
            assert np.array_equal(M.entries, M.entries.T)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            gen_k_matrix(0, 0)


def test_entry_tolerance_scales_with_magnitude():
    assert scaled_tol(1e-9, np.eye(2)) == pytest.approx(1e-9)
    assert scaled_tol(1e-9, 100.0 * np.eye(2)) == pytest.approx(1e-7)
