"""Linear complementarity problems: find z >= 0 with w = q + Mz >= 0, z^T w = 0.

Two independent general solvers are provided on purpose. solve_enum walks
supports in a canonical order, stacked by size, and is the reference oracle
at small m; solve_lemke is the classical complementary pivoting method with
a covering vector of ones and lexicographic degeneracy resolution. For
P-matrices both must agree. Lemke's one caller in the package is the CLI's
raw {q, M} input above its enumeration cutoff; the reflected equation
solves its K-matrix problems by policy iteration (bsde). Z-matrices have a
third, polynomial solver: Chandrasekaran's method grows the support from
empty at most m times, re-solving on principal blocks M[S, S], and accepts
its answer by solve_enum's test and by the complementarity conditions. Its
kernel, _chandrasekaran_stack, solves a stack of problems at once (backward
induction sends it each date's nonsingular nodes); solve_chandrasekaran is
its one-row case. Policy iteration instead starts from the full support on
bordered rows, so the game value U and the reflected equation's Z stay two
computations, and U = Z a check between them. The singular-but-almost-P
case (P0' matrices) gets a solvability test with a positive left-null
certificate: the problem has a solution exactly when v^T q >= 0; it solves
with solve_chandrasekaran when the matrix is Z and with solve_enum otherwise.
project_quadratic, an active-set minimizer, is the route to the Nash payoff
that bypasses complementarity (single_period.projection_sol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionTooLarge, DomainError
from .matrices import (
    DEFAULT_TOL,
    ENUM_CAP,
    MatrixClass,
    NullCertificate,
    SquareMatrix,
    _minor_signs,
    _principal_blocks,
    _row_tols,
    classify,
    positive_left_null,
    scaled_tol,
)

__all__ = [
    "LcpProblem",
    "LcpSolution",
    "P0PrimeOutcome",
    "CycleLimit",
    "CertificateUnavailable",
    "solve_enum",
    "solve_chandrasekaran",
    "solve_lemke",
    "solvability_p0prime",
    "project_quadratic",
]


class CycleLimit(DomainError):
    """Pivoting exceeded the 10 * 2^m step budget; assumed to be cycling."""


class CertificateUnavailable(DomainError):
    """Singular input whose null space is not one-dimensional positive."""


@dataclass(frozen=True)
class LcpProblem:
    q: np.ndarray
    M: SquareMatrix

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.shape[0] != self.M.m:
            raise ValueError(f"q has shape {q.shape}, expected ({self.M.m},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("q must be finite")
        object.__setattr__(self, "q", q)

    @property
    def m(self) -> int:
        return self.M.m


@dataclass(frozen=True)
class LcpSolution:
    z: np.ndarray
    w: np.ndarray
    support: tuple


@dataclass(frozen=True)
class P0PrimeOutcome:
    """Either a solution or a positive null certificate proving none exists."""

    solvable: bool
    solution: Optional[LcpSolution]
    certificate: Optional[NullCertificate]


def _finish(z: np.ndarray, w: np.ndarray) -> LcpSolution:
    z = np.where(z < 0.0, 0.0, z)
    w = np.where(w < 0.0, 0.0, w)
    support = tuple(int(i) for i in np.nonzero(z > 0.0)[0])
    return LcpSolution(z=z, w=w, support=support)


def solve_enum(problem: LcpProblem, tol: float = DEFAULT_TOL) -> Optional[LcpSolution]:
    """Support enumeration in increasing cardinality, then lexicographic order.

    Solves M_SS z_S = -q_S, stacked over the supports of one size whose
    det(M_SS) is nonzero at the scaled tolerance, and accepts the first S whose
    z and off-support w are nonnegative at the scaled tolerance. Accepted
    near-zero negatives are clamped to 0. Returns None when no S qualifies.
    Refused when m > ENUM_CAP.
    """
    q, Ma, m = problem.q, problem.M.entries, problem.m
    if m > ENUM_CAP:
        raise DimensionTooLarge(f"support enumeration is 2^{m} subsets; cap is {ENUM_CAP}")
    tau = scaled_tol(tol, q, Ma)

    if float(np.min(q)) >= -tau:
        return _finish(np.zeros(m), q.copy())
    for k in range(1, m + 1):
        for S, blocks in _principal_blocks(Ma, k):
            ok = _minor_signs(blocks, tol) != 0
            S = S[ok]
            on = (S[:, :, None] == np.arange(m)).any(axis=1)
            z = np.zeros(on.shape)
            z[on] = np.linalg.solve(blocks[ok], -q[S][..., None]).ravel()
            w = q + (Ma @ z[..., None])[..., 0]
            feasible = np.all((z >= -tau) & (on | (w >= -tau)), axis=1)
            if feasible.any():
                first = int(np.argmax(feasible))
                return _finish(z[first], w[first])
    return None


def solve_chandrasekaran(
    problem: LcpProblem, tol: float = DEFAULT_TOL
) -> Optional[LcpSolution]:
    """Chandrasekaran's method for Z-matrices, in at most m re-solves: the
    one-row case of _chandrasekaran_stack. Returns None when the problem is
    left unsolved there."""
    z, w, solved = _chandrasekaran_stack(problem.q[None], problem.M.entries[None], tol)
    if not solved[0]:
        return None
    return LcpSolution(z=z[0], w=w[0], support=tuple(np.flatnonzero(z[0] > 0.0).tolist()))


def _chandrasekaran_stack(
    q: np.ndarray, M: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chandrasekaran's method on each row of an (n, m) stack q and an
    (n, m, m) stack M of Z-matrices, all rows at once.

    Each row starts from the empty support; while some off-support w_i is
    below the row's tau = scaled_tol(tol, q, M), it adds every such index
    and re-solves M_SS z_S = -q_S. On a K-matrix the iterates increase to the
    unique solution. The re-solves of one pass are grouped by support size
    and run on the exact blocks M[S, S], singularity test included, and w
    is q + Mz, as in solve_enum, so the two solvers agree bit for bit where
    their supports do. A row fails when M_SS is singular at the tolerance (on
    a singular P0' matrix, only the full support can be) or z_S falls below
    -tau; an answer is accepted only when z >= -tau, w >= -tau and
    |z^T w| <= tau * sum|z|: complementarity per unit of z, since z scales
    inversely with M (on 1e-12 times a K-matrix, z is about 1e13 and the
    rounding left in w_S makes z^T w about 1e-2, with tau about 5e-9).
    Returns z and w with accepted near-zero negatives clamped to 0, and
    whether each row was solved.
    """
    n, m = q.shape
    tau = _row_tols(tol, q, M)
    floor = -tau[:, None]
    z, w = np.zeros((n, m)), q.copy()
    support = np.zeros((n, m), dtype=bool)
    solved = np.ones(n, dtype=bool)
    while True:
        grow = (w < floor) & ~support & solved[:, None]
        live = np.flatnonzero(grow.any(axis=1))
        if not live.size:
            break
        support |= grow
        on = support[live]
        sizes = on.sum(axis=1)
        distinct = set(sizes.tolist())
        for k in distinct:
            rows, S = live, on
            if len(distinct) > 1:
                rows, S = live[sizes == k], on[sizes == k]
            S = np.nonzero(S)[1].reshape(len(rows), k)
            blocks = M[rows[:, None, None], S[:, :, None], S[:, None, :]]
            regular = _minor_signs(blocks, tol) != 0
            if not regular.all():
                solved[rows[~regular]] = False
                rows, S, blocks = rows[regular], S[regular], blocks[regular]
            z_s = np.linalg.solve(blocks, -q[rows[:, None], S][..., None])[..., 0]
            z[rows[:, None], S] = z_s  # supports only grow, so z is 0 off S
            solved[rows[z_s.min(axis=1) < floor[rows, 0]]] = False
        # only the rows solved again get a new w; the rest keep theirs (w = q
        # while the support is empty, as in solve_enum)
        w[live] = q[live] + (M[live] @ z[live][..., None])[..., 0]
    solved &= (np.minimum(z, w) >= floor).all(axis=1)
    solved &= np.abs((z * w).sum(axis=1)) <= tau * np.abs(z).sum(axis=1)
    return np.where(z < 0.0, 0.0, z), np.where(w < 0.0, 0.0, w), solved


def _pivot_budget(m: int) -> int:
    return 10 * 2 ** min(m, 40)


def solve_lemke(
    problem: LcpProblem,
    tol: float = DEFAULT_TOL,
) -> Optional[LcpSolution]:
    """Complementary pivoting with covering vector of ones.

    Ties in the minimum-ratio test are resolved lexicographically against
    the columns that started as the identity, which rules out cycling in
    exact arithmetic; a pivot budget of 10 * 2^m guards the floating-point
    version. Returns None on ray termination (no solution found along the
    pivot path). The pivots run on M / s, with s the power of two nearest
    max |M| (1 for a zero M), so that the ratio test's fixed threshold means
    the same at every scale of M; z is divided back by s, exactly.
    """
    q, Ma, m = problem.q, problem.M.entries, problem.m
    tau = scaled_tol(tol, q, Ma)
    if float(np.min(q)) >= -tau:
        return _finish(np.zeros(m), q.copy())

    peak = float(np.max(np.abs(Ma)))
    scale = 2.0 ** min(round(math.log2(peak)), 1023) if peak > 0.0 else 1.0
    # Columns: w_0..w_{m-1}, z_0..z_{m-1}, z0, rhs. System w - (M/s)z - z0*1 = q.
    T = np.zeros((m, 2 * m + 2))
    T[:, :m] = np.eye(m)
    T[:, m : 2 * m] = -Ma / scale
    T[:, 2 * m] = -1.0
    T[:, 2 * m + 1] = q
    basis = list(range(m))
    z0_col = 2 * m

    def pivot(row: int, col: int) -> None:
        T[row] /= T[row, col]
        for r in range(m):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * T[row]
        basis[row] = col

    def ratio_row(col: int) -> Optional[int]:
        d = T[:, col]
        cand = [r for r in range(m) if d[r] > 1e-11]
        if not cand:
            return None
        best = cand[0]
        for r in cand[1:]:
            # lexicographic comparison of (rhs, identity block) / pivot entry
            for j in [2 * m + 1] + list(range(m)):
                a, b = T[r, j] / d[r], T[best, j] / d[best]
                if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
                    if a < b:
                        best = r
                    break
        return best

    # z0 enters against the most negative rhs, making the basis feasible.
    row = int(np.argmin(T[:, 2 * m + 1]))
    leaving = basis[row]
    pivot(row, z0_col)
    entering = leaving + m  # complement of the departed w variable

    for _ in range(_pivot_budget(m)):
        row = ratio_row(entering)
        if row is None:
            return None
        leaving = basis[row]
        pivot(row, entering)
        if leaving == z0_col:
            z = np.zeros(m)
            for r, var in enumerate(basis):
                if m <= var < 2 * m:
                    z[var - m] = T[r, 2 * m + 1]
            z = np.where(z < 0.0, 0.0, z) / scale
            return _finish(z, q + Ma @ z)
        entering = leaving + m if leaving < m else leaving - m
    raise CycleLimit(f"no termination within {_pivot_budget(m)} pivots")


def solvability_p0prime(
    problem: LcpProblem, tol: float = DEFAULT_TOL
) -> P0PrimeOutcome:
    """Solve-or-certify for matrices with nonneg determinant, positive proper minors.

    Nonsingular members are plain P-matrices and always solvable. Singular
    ones are solvable exactly when v^T q >= 0 for the positive left null
    vector v; otherwise v is returned as the unsolvability certificate.
    """
    cls = classify(problem.M, tol=tol)
    if not cls.is_P0prime:
        raise ValueError("matrix is outside the P0' class; dichotomy does not apply")
    return _p0prime_dichotomy(problem, cls, tol)


def _p0prime_dichotomy(
    problem: LcpProblem, cls: MatrixClass, tol: float
) -> P0PrimeOutcome:
    """solvability_p0prime for a matrix its caller has already classified as P0'."""
    q = problem.q
    solve = solve_chandrasekaran if cls.is_Z else solve_enum
    if cls.is_P:
        sol = solve(problem, tol=tol)
        if sol is None:
            raise ArithmeticError("P-matrix problem unexpectedly failed to solve")
        return P0PrimeOutcome(solvable=True, solution=sol, certificate=None)
    cert = positive_left_null(problem.M, tol=tol)
    if cert is None:
        raise CertificateUnavailable(
            "singular input without a one-dimensional positive left null space"
        )
    vq = float(cert.v @ q)
    tau = scaled_tol(tol, q)
    if vq < -tau:
        return P0PrimeOutcome(solvable=False, solution=None, certificate=cert)
    sol = solve(problem, tol=tol)
    if sol is not None:
        return P0PrimeOutcome(solvable=True, solution=sol, certificate=cert)
    if vq <= tau:
        # boundary case lost to roundoff; report honestly as unsolvable
        return P0PrimeOutcome(solvable=False, solution=None, certificate=cert)
    raise ArithmeticError("certificate promises a solution but the solver found none")


def project_quadratic(
    Q: np.ndarray,
    v: np.ndarray,
    lower: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Minimize (x - v)^T Q (x - v) / 2 subject to x >= lower, Q SPD.

    Primal active-set iteration: solve the equality-constrained problem on
    the current working set, take the largest feasible step toward it, add
    the blocking bound, and drop the most negative multiplier when the
    stationary point is feasible. Finite for SPD Q.
    """
    Q = np.asarray(Q, dtype=float)
    v = np.asarray(v, dtype=float)
    lower = np.asarray(lower, dtype=float)
    m = v.shape[0]
    x = np.maximum(v, lower)
    active = set(int(i) for i in np.nonzero(v < lower)[0])
    tau = scaled_tol(tol, v, lower)
    lam_tau = scaled_tol(tol, Q) * max(1.0, float(np.max(np.abs(v - lower))))

    for _ in range(50 * (m + 2)):
        free = [i for i in range(m) if i not in active]
        target = lower.copy()
        if free:
            act = sorted(active)
            rhs = Q[np.ix_(free, free)] @ v[free]
            if act:
                rhs -= Q[np.ix_(free, act)] @ (lower[act] - v[act])
            target[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
        step = target - x
        blocking = [i for i in free if step[i] < 0.0 and target[i] < lower[i] - tau]
        if blocking:
            alphas = [(lower[i] - x[i]) / step[i] for i in blocking]
            hit = blocking[int(np.argmin(alphas))]
            alpha = max(0.0, min(alphas))
            x = x + alpha * step
            x[hit] = lower[hit]
            active.add(hit)
            continue
        x = np.maximum(target, lower)
        grad = Q @ (x - v)
        if not active:
            return x
        worst = min(active, key=lambda i: grad[i])
        if grad[worst] >= -lam_tau:
            return x
        active.remove(worst)
    raise ArithmeticError("active-set projection failed to converge")


def _is_spd(Ma: np.ndarray, tol: float) -> bool:
    if float(np.max(np.abs(Ma - Ma.T))) > scaled_tol(tol, Ma):
        return False
    try:
        np.linalg.cholesky(0.5 * (Ma + Ma.T))
    except np.linalg.LinAlgError:
        return False
    return True
