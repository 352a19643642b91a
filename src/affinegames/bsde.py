"""Reflected backward equations on scenario trees.

The process Z runs backward from the terminal payoffs, held above the
obstacle X by a reflection term: at every node, with p the expected
next-period Z,

    Z = p + G dK,   Z >= X,   dK >= 0,   dK_i = 0 wherever Z_i > X_i,

which is the complementarity problem with data (p - X, G) at each node.
K accumulates the increments from the root and J accumulates G dK, so
Z_t - (J_{t+1} - J_t) = E[Z_{t+1} | F_t] holds along every edge. Only
nonsingular K-matrices are accepted: complementarity problems with
singular matrices can fail to have solutions, and the equivalence with
the game value process is stated for the nonsingular class.

The problems of one date read only the next date's Z, so a date is solved
at once: its problems are stacked and solved together by Howard's policy
iteration (see _howard), in slices of bounded size. Backward induction
reaches the same values through the one-shot games and Chandrasekaran's
method, which starts from the empty support; Howard starts from the full
support, solves bordered m x m systems instead of principal blocks, and
accepts its answer by its own residual test, so U = Z remains a check
between two separate computations.

Solving and verifying are deliberately separate code paths; the verifier
checks the defining conditions directly from the assembled processes, all
nodes and edges at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .matrices import _STACK_ENTRIES, DEFAULT_TOL, SquareMatrix, scaled_tol
from .tree import AdaptedProcess, ScenarioTree, TreeNode

__all__ = [
    "BsdeSolution",
    "NotKMatrix",
    "solve_reflected_bsde",
    "verify_bsde_solution",
]


class NotKMatrix(DomainError):
    """The backward equation needs a nonsingular Z-matrix with positive minors."""


@dataclass(frozen=True)
class BsdeSolution:
    """Z with reflection ledger K (nondecreasing, zero at the root) and J.

    delta_K holds the increment decided at each non-terminal node; it
    applies on every edge to that node's children, which is what makes K
    and J predictable one step ahead.
    """

    Z: AdaptedProcess
    K: AdaptedProcess
    J: AdaptedProcess
    delta_K: Dict[str, np.ndarray]


def solve_reflected_bsde(tree: ScenarioTree, tol: float = DEFAULT_TOL) -> BsdeSolution:
    """Backward sweep, latest date first, solving each date's complementarity
    problems together; then a forward sweep accumulating K and J."""
    classes = tree.require_valid(tol)
    inner = tree.nonterminal()
    for n in inner:
        if not classes[n.id].is_K:
            raise NotKMatrix(f"matrix at node {n.id!r} is singular or not a K-matrix")
    m, nodes = tree.m, tree.nodes
    row = {n.id: i for i, n in enumerate(nodes)}
    X = np.array([n.X for n in nodes]).reshape(len(nodes), m)
    Z, dK, GdK = X.copy(), np.zeros_like(X), np.zeros_like(X)
    dates: List[List[TreeNode]] = [[] for _ in range(tree.T + 1)]
    for n in inner:
        dates[n.t].append(n)
    width = max(1, _STACK_ENTRIES // (m * m))
    for date in reversed(dates):
        for start in range(0, len(date), width):
            part = date[start : start + width]
            kids = [tree.children(n) for n in part]
            at = [row[c.id] for ks in kids for c in ks]
            p = np.array([c.p for ks in kids for c in ks])
            first = np.cumsum([0] + [len(ks) for ks in kids[:-1]])
            expected = np.add.reduceat(p[:, None] * Z[at], first, axis=0)
            rows = [row[n.id] for n in part]
            G = np.stack([tree.effective_G(n).entries for n in part])
            z, w = _howard(expected - X[rows], G, tol, part)
            dK[rows] = z
            Z[rows] = X[rows] + w
            GdK[rows] = (G @ z[..., None])[..., 0]
    K, J = np.zeros_like(X), np.zeros_like(X)
    for date in dates:
        kids = [row[c.id] for n in date for c in tree.children(n)]
        parents = [row[n.id] for n in date for c in tree.children(n)]
        K[kids] = K[parents] + dK[parents]
        J[kids] = J[parents] + GdK[parents]
    return BsdeSolution(
        Z=AdaptedProcess(values={n.id: Z[i] for i, n in enumerate(nodes)}),
        K=AdaptedProcess(values={n.id: K[i] for i, n in enumerate(nodes)}),
        J=AdaptedProcess(values={n.id: J[i] for i, n in enumerate(nodes)}),
        delta_K={n.id: dK[row[n.id]] for n in inner},
    )


def _howard(
    q: np.ndarray, G: np.ndarray, tol: float, part: Sequence[TreeNode]
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve min(z, q + Gz) = 0 for a stack of nonsingular M-matrices G.

    Howard's policy iteration (Bokanowski, Maroso and Zidani, SIAM J. Numer.
    Anal. 47, 2009). A policy is the set S of rows where w = q + Gz is
    set to 0; z is 0 off it. Its system takes G's rows on S and identity
    rows elsewhere, and the next policy keeps the rows of S with z > 0 and
    adds the rows off S with w < 0. The first policy is the full support.

    Step bound. Each policy matrix A is a nonsingular M-matrix, so A^-1 is
    nonnegative with a positive diagonal. With F(z) = min(z, q + Gz), the
    next policy's matrix A' satisfies A'(z' - z) = -F(z) >= 0, so the
    iterates z increase. A row enters the next policy either with z_i > 0,
    or with F_i = w_i < 0, and then (z' - z)_i >= (A'^-1)_ii (-w_i) > 0; so
    from the second policy on, the policy is exactly the support of z,
    and it only grows. It cannot grow back to the full support (z would
    equal the first iterate, whose w is 0, and the iteration would already
    have stopped), so at most m + 1 solves are needed. The whole stack is
    re-solved until no policy moves; an unchanged policy gives the same z
    again. Floating point can flip a policy on a degenerate row; the loop
    stops after m + 1 solves in any case and the answer is judged by its
    residual.

    Each problem is accepted when max |min(z, w)| is at most tau =
    scaled_tol(tol, q, G), which also holds min z and min w above -tau;
    near-zero negatives are then clamped to 0. Raises ArithmeticError
    naming the first node whose problem fails that test.
    """
    n, m = q.shape
    eye = np.eye(m)
    on = np.ones((n, m), dtype=bool)
    z = np.linalg.solve(G, -q[..., None])[..., 0]
    w = q + (G @ z[..., None])[..., 0]
    for _ in range(m):
        nxt = np.where(on, z > 0.0, w < 0.0)
        if (nxt == on).all():
            break
        on = nxt
        A = np.where(on[..., None], G, eye)
        z = np.linalg.solve(A, np.where(on, -q, 0.0)[..., None])[..., 0]
        z[~on] = 0.0
        w = q + (G @ z[..., None])[..., 0]
    # scaled_tol is never below tol, so only a problem that fails at tol
    # needs its own scale.
    residual = np.abs(np.minimum(z, w)).max(axis=1)
    for k in np.flatnonzero(~(residual <= tol)):
        tau = scaled_tol(tol, q[k], G[k])
        if not residual[k] <= tau:
            raise ArithmeticError(
                f"complementarity problem at node {part[k].id!r} is left unsolved "
                f"by policy iteration (residual {residual[k]:.3g}, tolerance {tau:.3g})"
            )
    return np.where(z < 0.0, 0.0, z), np.where(w < 0.0, 0.0, w)


def verify_bsde_solution(
    tree: ScenarioTree,
    sol: BsdeSolution,
    tol: float = DEFAULT_TOL,
) -> List[str]:
    """All violations of the defining conditions, empty when consistent.

    Nodes and edges are reported in the tree's node order, each edge's
    checks in a fixed order; every check is one reduction over all nodes or
    all edges."""
    tree.require_valid(tol)
    out: List[str] = []
    for proc, name in ((sol.Z, "Z"), (sol.K, "K"), (sol.J, "J")):
        for n in tree.nodes:
            if n.id not in proc:
                out.append(f"{name} missing at node {n.id!r}")
            elif np.asarray(proc[n.id]).shape != (tree.m,):
                out.append(f"{name} at node {n.id!r} is not length {tree.m}")
    if out:
        return out
    nodes, m = tree.nodes, tree.m
    Z, K, J = (
        np.array([proc[n.id] for n in nodes], dtype=float).reshape(len(nodes), m)
        for proc in (sol.Z, sol.K, sol.J)
    )
    X = np.array([n.X for n in nodes]).reshape(len(nodes), m)
    tau = scaled_tol(tol, Z, X, K)
    row = {n.id: i for i, n in enumerate(nodes)}
    root = tree.root
    if float(np.max(np.abs(K[row[root.id]]))) > tau:
        out.append(f"K at root {root.id!r} is not zero")
    if float(np.max(np.abs(J[row[root.id]]))) > tau:
        out.append(f"J at root {root.id!r} is not zero")
    gap = Z - X
    leaf = np.array([tree.is_leaf(n) for n in nodes])
    off_leaf = leaf & (np.abs(gap).max(axis=1) > tau)
    below = gap.min(axis=1) < -tau
    for i in np.flatnonzero(off_leaf | below):
        if off_leaf[i]:
            out.append(f"Z at leaf {nodes[i].id!r} differs from the terminal payoff")
        if below[i]:
            out.append(f"Z at node {nodes[i].id!r} falls below the payoff floor")

    # Edges in node order, then child order; edges under one matrix share
    # one product with it.
    parent: List[int] = []
    child: List[int] = []
    under: Dict[int, Tuple[SquareMatrix, List[int]]] = {}
    for i, n in enumerate(nodes):
        kids = tree.children(n)
        if kids:
            G = tree.effective_G(n)
            under.setdefault(id(G), (G, []))[1].extend(
                range(len(child), len(child) + len(kids))
            )
            parent.extend([i] * len(kids))
            child.extend(row[c.id] for c in kids)
    p = np.array([nodes[c].p for c in child])
    expected = np.zeros_like(Z)
    np.add.at(expected, parent, p[:, None] * Z[child])
    dK = K[child] - K[parent]
    dJ = J[child] - J[parent]
    GdK = np.empty_like(dK)
    for G, edges in under.values():
        GdK[edges] = dK[edges] @ G.entries.T
    decreases = dK.min(axis=1) < -tau
    not_gdk = np.abs(dJ - GdK).max(axis=1) > tau
    recursion = np.abs(Z[parent] - dJ - expected[parent]).max(axis=1) > tau
    binding = gap > tau
    misplaced = np.where(binding[parent], dK, 0.0).sum(axis=1) > tau
    for e in np.flatnonzero(decreases | not_gdk | recursion | misplaced):
        a, b = nodes[parent[e]].id, nodes[child[e]].id
        if decreases[e]:
            out.append(f"K decreases on edge {a!r} -> {b!r}")
        if not_gdk[e]:
            out.append(f"J increment on edge {a!r} -> {b!r} is not G dK")
        if recursion[e]:
            out.append(f"backward recursion fails on edge {a!r} -> {b!r}")
        if misplaced[e]:
            out.append(f"reflection acts at node {a!r} where Z is off the floor")
    return out
