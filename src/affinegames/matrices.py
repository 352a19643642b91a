"""Dense square matrices and their sign-class structure.

The solvers in this package only have guarantees for matrices whose
principal minors behave: P-matrices (all principal minors positive),
Z-matrices (non-positive off-diagonal entries), K = P-and-Z, and the
almost-P class P0' (non-negative determinant, positive proper minors).
This module provides minor-based classification, the Schur pivot
reduction used to eliminate a player from a game, positive
left-null-vector certificates for singular P0' matrices, and seeded
random generators for K and P instances.

A minor counts as positive when it exceeds tol * scale, and as zero when
its magnitude is at most tol * scale, where scale is the product of the
submatrix's largest absolute row entries; this keeps the test invariant
under row scaling. _minor_signs is that test; it compares logarithms
(numpy.linalg.slogdet), so neither side underflows on small entries.

Classification has two paths. A Z-matrix (no positive off-diagonal
entry) is decided in O(m^3), for any m: by Fiedler and Ptak it is a
K-matrix exactly when its leading principal minors are positive, and
those are read off one LU factorization without pivoting, which a
K-matrix does not need. When the determinant is zero at the tolerance,
the Z-matrix is K0' exactly when its m principal (m-1)-minors are
positive; they come from one Gauss-Jordan pass over the leading block.
This path is decided for a whole stack of same-sized matrices at once
(_classify_stack; validating a tree passes all its distinct matrices),
and classify is the stack of one. Every other matrix, and a Z-matrix
that is not K0', is classified by the signs of all 2^m - 1 principal
minors, stacked by size from _principal_blocks, and is refused above
CLASSIFY_CAP players. The is_Z flag allows positive off-diagonal entries
up to tol times the largest entry magnitude; such a matrix takes the
sweep.

One numpy call takes at most _stack_width(k) matrices of size k, so at most
_STACK_ENTRIES entries: principal blocks here, a tree's distinct matrices, a
date's complementarity problems in bsde.

A SquareMatrix's entries are a read-only array, copied from the caller's
when that one could be written to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations, islice
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import DimensionTooLarge, DomainError

__all__ = [
    "DEFAULT_TOL",
    "CLASSIFY_CAP",
    "ENUM_CAP",
    "SquareMatrix",
    "MatrixClass",
    "NullCertificate",
    "ZeroPivot",
    "NotSingular",
    "classify",
    "schur_reduce",
    "positive_left_null",
    "gen_k_matrix",
    "gen_p_matrix",
]

DEFAULT_TOL = 1e-9
CLASSIFY_CAP = 16
ENUM_CAP = 20


class ZeroPivot(DomainError):
    """Schur reduction requested on a (near-)zero diagonal entry."""


class NotSingular(DomainError):
    """A null-space certificate was requested for a nonsingular matrix."""


def _read_only(x) -> np.ndarray:
    """x as a float array that cannot be written to: x itself when it already
    is one that owns its data, otherwise a read-only copy."""
    if type(x) is np.ndarray and x.dtype == float and x.base is None and not x.flags.writeable:
        return x
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SquareMatrix:
    """An m-by-m array of finite float64 entries, row-major and read-only."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _read_only(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square 2-d array, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", a)

    def __reduce__(self):  # copies and pickles rebuild read-only entries
        return SquareMatrix, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:  # keeps test failure output readable
        return f"SquareMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True)
class MatrixClass:
    """Classification flags derived from one exhaustive minor sweep."""

    is_Z: bool
    is_P: bool
    is_P0prime: bool
    is_K: bool
    is_K0prime: bool
    has_positive_diagonal: bool
    has_nonzero_proper_minors: bool
    column_sums_nonneg: bool


@dataclass(frozen=True)
class NullCertificate:
    """A strictly positive row vector v with v^T M = 0, scaled to max 1."""

    v: np.ndarray


def _as_array(M: Union[SquareMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(M, SquareMatrix):
        return M.entries
    return SquareMatrix(M).entries


# At most this many entries in one stack of matrices worked on together, so
# memory does not grow with the number of matrices.
_STACK_ENTRIES = 1 << 16


def _stack_width(k: int) -> int:
    """How many k-by-k matrices one stacked call may hold."""
    return max(1, _STACK_ENTRIES // max(1, k * k))


def _principal_blocks(a: np.ndarray, k: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The k-subsets S of range(m) in lexicographic order, with their blocks
    a[S, S]: (n, k) and (n, k, k) arrays of at most _stack_width(k) rows each."""
    subsets = combinations(range(a.shape[0]), k)
    while chunk := list(islice(subsets, _stack_width(k))):
        S = np.array(chunk, dtype=np.intp)
        yield S, a[S[:, :, None], S[:, None, :]]


def _minor_signs(blocks: np.ndarray, tol: float) -> np.ndarray:
    """-1, 0 or +1 for each determinant of a (..., k, k) stack at the scaled
    tolerance, as logarithms so that neither side can underflow."""
    sign, log_det = np.linalg.slogdet(blocks)
    with np.errstate(divide="ignore"):
        log_bound = np.log(tol) + np.log(np.abs(blocks).max(axis=-1)).sum(axis=-1)
    return np.where(log_det > log_bound, sign, 0.0).astype(int)


def scaled_tol(tol: float, *arrays: np.ndarray) -> float:
    """Absolute tolerance for comparing values of the given arrays' size:
    tol times the largest magnitude among them, floored at 1."""
    return tol * max([1.0] + [float(np.max(np.abs(a))) for a in arrays])


def _row_tols(tol: float, *stacks: np.ndarray) -> np.ndarray:
    """scaled_tol for each row of the given (n, ...) stacks at once: tol times
    the largest magnitude in that row among them, floored at 1."""
    top = np.ones(len(stacks[0]))
    for a in stacks:
        top = np.maximum(top, np.abs(a).max(axis=tuple(range(1, a.ndim))))
    return tol * top


def classify(M: Union[SquareMatrix, np.ndarray], tol: float = DEFAULT_TOL) -> MatrixClass:
    """Classify M by the signs of its principal minors.

    A K0' Z-matrix is decided in polynomial time at any size; any other
    matrix by the sweep over all 2^m - 1 minors, refused when m > CLASSIFY_CAP.
    """
    return _classify_stack(_as_array(M)[None], tol)[0]


def _classify_stack(stack: np.ndarray, tol: float) -> List[MatrixClass]:
    """classify for each matrix of an (n, m, m) stack: the Z-matrix path is
    decided for the whole stack at once, and each row it leaves undecided
    goes through the sweep on its own."""
    decided, det_sign = _k0prime_det_sign(stack, tol)
    fast = iter(
        _matrix_class(stack[decided], tol, True, True, det_sign[decided]) if decided.any() else ()
    )
    return [
        next(fast) if ok else _classify_sweep(a, tol) for a, ok in zip(stack, decided.tolist())
    ]


def _classify_sweep(
    M: Union[SquareMatrix, np.ndarray], tol: float = DEFAULT_TOL
) -> MatrixClass:
    """classify by the signs of all 2^m - 1 principal minors; the oracle tests
    hold the Z-matrix path to."""
    a = _as_array(M)
    m = a.shape[0]
    if m > CLASSIFY_CAP:
        raise DimensionTooLarge(
            f"classification sweeps 2^{m} minors; cap is {CLASSIFY_CAP}"
        )

    proper_positive = proper_nonzero = True
    for k in range(1, m):
        for _, blocks in _principal_blocks(a, k):
            signs = _minor_signs(blocks, tol)
            proper_positive &= bool(np.all(signs > 0))
            proper_nonzero &= bool(np.all(signs != 0))
    det_sign = int(_minor_signs(a, tol))
    return _matrix_class(a[None], tol, proper_positive, proper_nonzero, det_sign)[0]


def _matrix_class(
    stack: np.ndarray,
    tol: float,
    proper_positive: Union[bool, np.ndarray],
    proper_nonzero: Union[bool, np.ndarray],
    det_sign: Union[int, np.ndarray],
) -> List[MatrixClass]:
    """The flags of each matrix of an (n, m, m) stack from its minor signs
    (one value for the stack, or one a row), plus the entrywise tests. The Z
    and column-sum tests use tol times the largest magnitude, with no floor,
    so they too are scale invariant. A diagonal entry is positive when it is
    above 0, the rule GameSpec applies: a 1x1 block is its own scale, so for
    tol < 1 _minor_signs gives any such entry the same sign."""
    n, m = stack.shape[:2]
    tau = tol * np.abs(stack).max(axis=(1, 2))
    is_z = (np.where(np.eye(m, dtype=bool), 0.0, stack) <= tau[:, None, None]).all(axis=(1, 2))
    is_p = proper_positive & (det_sign > 0)
    is_p0prime = proper_positive & (det_sign >= 0)
    flags = np.empty((n, 8), dtype=bool)  # the MatrixClass fields, in order
    flags[:, 0] = is_z
    flags[:, 1] = is_p
    flags[:, 2] = is_p0prime
    flags[:, 3] = is_p & is_z
    flags[:, 4] = is_p0prime & is_z
    flags[:, 5] = (stack.diagonal(axis1=1, axis2=2) > 0.0).all(axis=1)
    flags[:, 6] = proper_nonzero
    flags[:, 7] = (stack.sum(axis=1) >= -tau[:, None]).all(axis=1)
    return [MatrixClass(*row) for row in flags.tolist()]


def _k0prime_det_sign(stack: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """For each matrix of an (n, m, m) stack, whether it is a Z-matrix whose
    proper principal minors are positive at tol, and for those the sign of
    its determinant at tol (1, or 0); both as length-n arrays.

    Pivots of the unpivoted LU give the leading minors; when the determinant
    is zero at tol, the (m-1)-minors are det(A11) * (x_i y_i + s inv(A11)_ii),
    where A11 is the leading block, s the last pivot, and x, y the right and
    left vectors with A x = s e_m, y^T A = s e_m^T and x_m = y_m = 1. On a
    K-matrix no principal minor is relatively smaller (minor over the scale
    _minor_signs uses) than the determinant of a principal block containing it,
    by Fischer's and Hadamard's inequalities, so these m tests decide at the
    same tolerance as the sweep. Sizes are compared as logarithms, so long
    products of small pivots cannot underflow.

    The stack is factored in one pass of m - 1 pivots. A matrix refused
    before or part way is carried to the end under np.errstate: its zero or
    negative pivots give infinities and NaNs, which fail every later test.
    """
    n, m = stack.shape[:2]
    ab = np.abs(stack)
    # a Z-matrix with no zero row: a zero row makes every minor through it 0
    z = ~(np.where(np.eye(m, dtype=bool), 0.0, stack) > 0.0).any(axis=(1, 2))
    z &= (ab.max(axis=2) > 0.0).all(axis=1)
    if not z.any():
        return z, np.zeros(n, dtype=int)
    log_tol = np.log(tol)
    with np.errstate(all="ignore"):
        u = stack.copy()
        for k in range(m - 1):
            u[:, k + 1 :, k + 1 :] -= (
                u[:, k + 1 :, k, None] * u[:, None, k, k + 1 :] / u[:, k, k, None, None]
            )
        pivots = u.diagonal(axis1=1, axis2=2)
        log_lead = np.log(np.abs(pivots)).cumsum(axis=1)
        log_scales = np.log(np.maximum.accumulate(ab, axis=2))
        # row i of leading block k spans columns 0..k-1, so its scale sums column k-1
        rel = log_lead - log_scales.cumsum(axis=1).diagonal(axis1=1, axis2=2)
        # a pivot that is not positive refuses its row; the ones after it are void
        ok = z & ((pivots[:, :-1] > 0.0) & (rel[:, :-1] > log_tol)).all(axis=1)
        s = pivots[:, -1]
        positive = ok & (s > 0.0) & (rel[:, -1] > log_tol)
        # a determinant negative beyond the tolerance leaves the row undecided
        zero = ok & (rel[:, -1] <= log_tol)
        if m > 1 and zero.any():  # a 1x1 matrix has no proper minor to test
            zero[zero] = _singular_k0prime(
                stack[zero], ab[zero], s[zero], log_lead[zero, -2], log_tol
            )
    return positive | zero, positive.astype(int)


def _singular_k0prime(
    a: np.ndarray, ab: np.ndarray, s: np.ndarray, log_lead: np.ndarray, log_tol: float
) -> np.ndarray:
    """Whether each Z-matrix of a stack with positive proper leading minors
    and a determinant zero at tol has all m principal (m-1)-minors positive
    at tol, given |a|, the last pivots s and the log leading (m-1)-minors."""
    k, m = a.shape[:2]
    t = _pivot_transform(a, m - 1)
    x, y = -t[:, :-1, -1], t[:, -1, :-1]
    d = x * y + s[:, None] * np.diagonal(t, axis1=1, axis2=2)[:, :-1]
    # the scale of the block without index i: each other row's largest entry
    # outside column i, which is its second largest where column i holds its
    # largest (at a tie for the largest the two are equal, so either column will do)
    at = ab.argmax(axis=2)
    ordered = np.sort(ab, axis=2)
    log_top = np.log(ordered[:, :, -1])
    gap = np.log(ordered[:, :, -2]) - log_top
    moved = np.zeros((k, m))
    shifted = at != np.arange(m)
    np.add.at(moved, (np.nonzero(shifted)[0], at[shifted]), gap[shifted])
    log_scale_without = log_top.sum(axis=1)[:, None] - log_top + moved
    rel_without = log_lead[:, None] + np.log(d) - log_scale_without[:, :-1]
    return ((d > 0.0) & (rel_without > log_tol)).all(axis=1) & np.isfinite(
        log_scale_without
    ).all(axis=1)


def _pivot_transform(a: np.ndarray, n: int) -> np.ndarray:
    """Gauss-Jordan on the first n diagonal pivots of each matrix of a
    (..., m, m) stack, without pivoting: [[A11, A12], [A21, A22]] becomes
    [[inv(A11), inv(A11) A12], [-A21 inv(A11), A22 - A21 inv(A11) A12]].

    Elementwise numpy only, so no threaded BLAS call: on a busy two-core
    machine a threaded inverse of a 199x199 block stalled for over 100 ms.
    """
    t = a.astype(float)
    for k in range(n):
        p = t[..., k, k, None].copy()
        col = t[..., :, k] / p
        row = t[..., k, :].copy()
        t -= col[..., :, None] * row[..., None, :]
        t[..., k, :] = row / p
        t[..., :, k] = -col
        t[..., k, k] = 1.0 / p[..., 0]
    return t


def schur_reduce(
    M: Union[SquareMatrix, np.ndarray], i: int, tol: float = DEFAULT_TOL
) -> SquareMatrix:
    """Eliminate row/column i by one pivot step: out_jk = M_jk - M_ji M_ik / M_ii.

    This is the matrix of the game that remains after player i exercises;
    the surviving indices keep their relative order.
    """
    a = _as_array(M)
    m = a.shape[0]
    if not 0 <= i < m:
        raise ValueError(f"pivot index {i} out of range for m={m}")
    pivot = a[i, i]
    if abs(pivot) <= scaled_tol(tol, a):
        raise ZeroPivot(f"diagonal entry {i} is {pivot!r}, too close to zero to pivot")
    keep = [j for j in range(m) if j != i]
    sub = a[np.ix_(keep, keep)]
    reduced = sub - np.outer(a[keep, i], a[i, keep]) / pivot
    return SquareMatrix(reduced)


def positive_left_null(
    M: Union[SquareMatrix, np.ndarray], tol: float = DEFAULT_TOL
) -> Optional[NullCertificate]:
    """A strictly positive v with v^T M = 0, for singular M.

    Uses the SVD: left null vectors of M are the columns of U whose
    singular values vanish. Only a one-dimensional null space is searched
    (the basis vector or its negation); anything else returns None. Raises
    NotSingular when the determinant is clearly nonzero at the scaled
    tolerance.
    """
    a = _as_array(M)
    if _minor_signs(a, tol) != 0:
        raise NotSingular("matrix determinant exceeds tolerance; no null certificate")
    u, s, _ = np.linalg.svd(a)
    null_cols = np.nonzero(s <= tol * max(s[0], 1e-300))[0]
    if len(null_cols) != 1:
        return None
    v = u[:, null_cols[0]]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    v = v / np.max(np.abs(v))
    if np.min(v) <= tol:
        return None
    if float(np.max(np.abs(v @ a))) > scaled_tol(tol, a):
        return None
    return NullCertificate(v=v)


def gen_k_matrix(
    seed: int, m: int, require_nonneg_colsums: bool = False
) -> SquareMatrix:
    """Seeded random K-matrix: unit diagonal, off-diagonals uniform in [-c, 0].

    c is chosen below 1/(m-1) so columns are strictly diagonally dominant,
    a sufficient condition for K membership; that also makes every column
    sum positive, so the nonneg-colsums rescale loop is a defensive no-op.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    a = np.eye(m)
    if m > 1:
        c = 0.95 / (m - 1)
        off = rng.uniform(-c, 0.0, size=(m, m))
        np.fill_diagonal(off, 0.0)
        a = a + off
        if require_nonneg_colsums:
            while np.min(a.sum(axis=0)) < 0.0:
                off *= 0.9
                a = np.eye(m) + off
    return SquareMatrix(a)


def gen_p_matrix(seed: int, m: int) -> SquareMatrix:
    """Seeded random symmetric positive definite matrix, A^T A + 0.1 I."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(m, m))
    return SquareMatrix(a.T @ a + 0.1 * np.eye(m))
