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
positive; they come from one solve with the leading block. Every other
matrix, and a Z-matrix that is not K0', is classified by the signs of
all 2^m - 1 principal minors, stacked by size from _principal_blocks, and
is refused above CLASSIFY_CAP players. The is_Z flag allows positive
off-diagonal entries up to tol times the largest entry magnitude; such a
matrix takes the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

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
    "principal_minor",
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


@dataclass(frozen=True)
class SquareMatrix:
    """An m-by-m array of finite float64 entries, row-major."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square 2-d array, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_rows(cls, rows: Union[Sequence[Sequence[float]], np.ndarray]) -> "SquareMatrix":
        return cls(np.asarray(rows, dtype=float))

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
    return SquareMatrix.from_rows(M).entries


# A 2^m walk stacks at most this many principal blocks at a time, which bounds
# its memory: at k = 17 one slice of blocks is 2.4 MB.
_BLOCK_ROWS = 1024


def _principal_blocks(a: np.ndarray, k: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The k-subsets S of range(m) in lexicographic order, with their blocks
    a[S, S]: (n, k) and (n, k, k) arrays of at most _BLOCK_ROWS rows each."""
    subsets = combinations(range(a.shape[0]), k)
    while chunk := list(islice(subsets, _BLOCK_ROWS)):
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


def principal_minor(M: Union[SquareMatrix, np.ndarray], S: Iterable[int]) -> float:
    """det(M_SS) for a nonempty index set S (0-based)."""
    a = _as_array(M)
    idx = sorted(set(int(i) for i in S))
    if not idx:
        raise ValueError("index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= a.shape[0]:
        raise ValueError(f"index set {idx} out of range for m={a.shape[0]}")
    return float(np.linalg.det(a[np.ix_(idx, idx)]))


def classify(M: Union[SquareMatrix, np.ndarray], tol: float = DEFAULT_TOL) -> MatrixClass:
    """Classify M by the signs of its principal minors.

    A K0' Z-matrix is decided in polynomial time at any size; any other
    matrix by the sweep over all 2^m - 1 minors, refused when m > CLASSIFY_CAP.
    """
    a = _as_array(M)
    det_sign = _k0prime_det_sign(a, tol)
    if det_sign is None:
        return _classify_sweep(a, tol)
    return _matrix_class(a, tol, True, True, det_sign)


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
    return _matrix_class(a, tol, proper_positive, proper_nonzero, det_sign)


def _matrix_class(
    a: np.ndarray, tol: float, proper_positive: bool, proper_nonzero: bool, det_sign: int
) -> MatrixClass:
    """The flags from the minor signs, plus the entrywise tests. The Z and
    column-sum tests use tol times the largest magnitude, with no floor, so
    they too are scale invariant. A diagonal entry is positive when it is
    above 0, the rule GameSpec applies: a 1x1 block is its own scale, so for
    tol < 1 _minor_signs gives any such entry the same sign."""
    tau = tol * float(np.max(np.abs(a)))
    off = a - np.diag(np.diag(a))
    is_z = bool(np.all(off <= tau))
    is_p = proper_positive and det_sign > 0
    is_p0prime = proper_positive and det_sign >= 0
    return MatrixClass(
        is_Z=is_z,
        is_P=is_p,
        is_P0prime=is_p0prime,
        is_K=is_p and is_z,
        is_K0prime=is_p0prime and is_z,
        has_positive_diagonal=bool(np.all(np.diag(a) > 0.0)),
        has_nonzero_proper_minors=proper_nonzero,
        column_sums_nonneg=bool(np.all(a.sum(axis=0) >= -tau)),
    )


def _k0prime_det_sign(a: np.ndarray, tol: float) -> Optional[int]:
    """For a Z-matrix whose proper principal minors are positive at tol, the
    sign of its determinant at tol (1, or 0); None for any other matrix.

    Pivots of the unpivoted LU give the leading minors; when the determinant
    is zero at tol, the (m-1)-minors are det(A11) * (x_i y_i + s inv(A11)_ii),
    where A11 is the leading block, s the last pivot, and x, y the right and
    left vectors with A x = s e_m, y^T A = s e_m^T and x_m = y_m = 1. On a
    K-matrix no principal minor is relatively smaller (minor over the scale
    _minor_signs uses) than the determinant of a principal block containing it,
    by Fischer's and Hadamard's inequalities, so these m tests decide at the
    same tolerance as the sweep. Sizes are compared as logarithms, so long
    products of small pivots cannot underflow.
    """
    m = a.shape[0]
    ab = np.abs(a)
    if np.any(a[~np.eye(m, dtype=bool)] > 0.0) or not np.all(ab.max(axis=1) > 0.0):
        return None  # not a Z-matrix, or a zero row makes every minor through it 0
    u = a.copy()
    for k in range(m - 1):
        if not u[k, k] > 0.0:
            return None
        u[k + 1 :, k + 1 :] -= np.outer(u[k + 1 :, k], u[k, k + 1 :]) / u[k, k]
    pivots = np.diag(u)
    log_tol = np.log(tol)
    with np.errstate(divide="ignore"):
        log_lead = np.cumsum(np.log(np.abs(pivots)))
        log_scales = np.log(np.maximum.accumulate(ab, axis=1))
    # row i of leading block k spans columns 0..k-1, so its scale sums column k-1
    rel = log_lead - np.diag(np.cumsum(log_scales, axis=0))
    if not np.all(rel[:-1] > log_tol):
        return None
    s = pivots[-1]
    if s > 0.0 and rel[-1] > log_tol:
        return 1
    if not rel[-1] <= log_tol:
        return None  # determinant negative beyond the tolerance
    t = _pivot_transform(a, m - 1)
    x, y = -t[:-1, -1], t[-1, :-1]
    d = x * y + s * np.diag(t)[:-1]
    if not np.all(d > 0.0):
        return None
    # the scale of the block without index i: each other row's largest entry
    # outside column i
    order = np.argsort(ab, axis=1)
    rows = np.arange(m)
    top, at = ab[rows, order[:, -1]], order[:, -1]
    log_top = np.log(top)
    with np.errstate(divide="ignore"):
        gap = np.log(ab[rows, order[:, -2]]) - log_top
    moved = np.zeros(m)
    np.add.at(moved, at[at != rows], gap[at != rows])
    log_scale_without = log_top.sum() - log_top + moved
    if not np.all(np.isfinite(log_scale_without)):
        return None
    rel_without = log_lead[-2] + np.log(d) - log_scale_without[:-1]
    return 0 if np.all(rel_without > log_tol) else None


def _pivot_transform(a: np.ndarray, n: int) -> np.ndarray:
    """Gauss-Jordan on the first n diagonal pivots of a, without pivoting:
    [[A11, A12], [A21, A22]] becomes [[inv(A11), inv(A11) A12],
    [-A21 inv(A11), A22 - A21 inv(A11) A12]].

    Elementwise numpy only, so no threaded BLAS call: on a busy two-core
    machine a threaded inverse of a 199x199 block stalled for over 100 ms.
    """
    t = a.astype(float)
    for k in range(n):
        p = t[k, k]
        col = t[:, k] / p
        row = t[k].copy()
        t -= np.outer(col, row)
        t[k] = row / p
        t[:, k] = -col
        t[k, k] = 1.0 / p
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
