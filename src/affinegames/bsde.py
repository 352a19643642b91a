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

A date's problems read only the next date's Z, so they are stacked and
solved together by Howard's policy iteration (see _howard), in slices of
bounded size. Backward induction reaches the same values by a separate
method: Chandrasekaran's grows the support from empty and solves on
principal blocks, while policy iteration here starts from the full support
and solves on bordered rows (G's rows on the policy, identity rows off it),
so U = Z remains a check between two computations. The verifier, a third
path, checks the defining conditions on all nodes and edges at once. Both
read the tree's row index and its dates, and sum children by the tree
module's one child-sum rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .lcp import _judged
from .matrices import DEFAULT_TOL, _stack_width, scaled_tol
from .tree import AdaptedProcess, ScenarioTree, TreeNode, _valid

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
    classes = _valid(tree, tol)
    ix, nodes = tree._index, tree.nodes
    inner = np.flatnonzero(np.diff(ix.start)).tolist()
    for i in inner:
        if not classes[ix.col[i]].is_K:
            raise NotKMatrix(f"matrix at node {nodes[i].id!r} is singular or not a K-matrix")
    X, parent, child = ix.X, ix.parent, ix.child
    Z, dK, GdK = X.copy(), np.zeros_like(X), np.zeros_like(X)
    width, stack = _stack_width(tree.m), ix.stack()
    for edges, rows in reversed(ix.dates):
        expected = ix.child_sum(Z, edges)
        for start in range(0, len(rows), width):
            at = rows[start : start + width]
            part = [nodes[i] for i in at.tolist()]
            G = stack[ix.col[at]]
            z, w = _howard(expected[at] - X[at], G, tol, part)
            dK[at] = z
            Z[at] = X[at] + w
            GdK[at] = (G @ z[..., None])[..., 0]
    K, J = np.zeros_like(X), np.zeros_like(X)
    for edges, _ in ix.dates:
        up, down = parent[edges], child[edges]
        K[down] = K[up] + dK[up]
        J[down] = J[up] + GdK[up]
    Z, K, J = (ix.process(a) for a in (Z, K, J))
    return BsdeSolution(Z=Z, K=K, J=J, delta_K={nodes[i].id: dK[i] for i in inner})


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
    stops after m + 1 solves in any case and the answer is judged by the
    LCP solvers' one check, lcp._judged, which clamps accepted near-zero
    negatives to 0. Raises ArithmeticError naming the first node whose
    answer it refuses.
    """
    n, m = q.shape
    eye = np.eye(m)
    on = np.ones((n, m), dtype=bool)
    for _ in range(m + 1):
        A = np.where(on[..., None], G, eye)
        z = np.linalg.solve(A, np.where(on, -q, 0.0)[..., None])[..., 0]
        z[~on] = 0.0
        w = q + (G @ z[..., None])[..., 0]
        nxt = np.where(on, z > 0.0, w < 0.0)
        if (nxt == on).all():
            break
        on = nxt
    z, w, ok = _judged(q, G, z, tol)
    if not ok.all():
        raise ArithmeticError(
            f"complementarity problem at node {part[int(np.argmin(ok))].id!r} is left "
            "unsolved by policy iteration"
        )
    return z, w


def verify_bsde_solution(
    tree: ScenarioTree,
    sol: BsdeSolution,
    tol: float = DEFAULT_TOL,
) -> List[str]:
    """All violations of the defining conditions, empty when consistent.

    Nodes and edges are reported in the tree's node order, each edge's
    checks in a fixed order; every check is one reduction over all nodes or
    all edges."""
    _valid(tree, tol)
    out: List[str] = []
    for proc, name in ((sol.Z, "Z"), (sol.K, "K"), (sol.J, "J")):
        for n in tree.nodes:
            if n.id not in proc:
                out.append(f"{name} missing at node {n.id!r}")
            elif np.asarray(proc[n.id]).shape != (tree.m,):
                out.append(f"{name} at node {n.id!r} is not length {tree.m}")
    if out:
        return out
    ix, nodes = tree._index, tree.nodes
    Z, K, J = (ix.rows(proc) for proc in (sol.Z, sol.K, sol.J))
    X, parent, child = ix.X, ix.parent, ix.child
    tau = scaled_tol(tol, Z, X, K)
    root = ix.row[tree.root.id]
    for name, A in (("K", K), ("J", J)):
        if float(np.max(np.abs(A[root]))) > tau:
            out.append(f"{name} at root {nodes[root].id!r} is not zero")
    gap = Z - X
    leaf = ix.start[1:] == ix.start[:-1]
    off_leaf = leaf & (np.abs(gap).max(axis=1) > tau)
    below = gap.min(axis=1) < -tau
    for i in np.flatnonzero(off_leaf | below):
        if off_leaf[i]:
            out.append(f"Z at leaf {nodes[i].id!r} differs from the terminal payoff")
        if below[i]:
            out.append(f"Z at node {nodes[i].id!r} falls below the payoff floor")

    # Edges in node order, then child order; edges under one distinct matrix
    # share one product with it.
    expected = ix.child_sum(Z)[parent]
    dK = K[child] - K[parent]
    dJ = J[child] - J[parent]
    GdK = np.empty_like(dK)
    under = ix.col[parent]
    for j in set(under.tolist()):
        GdK[under == j] = dK[under == j] @ ix.matrices[j].entries.T
    decreases = dK.min(axis=1) < -tau
    not_gdk = np.abs(dJ - GdK).max(axis=1) > tau
    recursion = np.abs(Z[parent] - dJ - expected).max(axis=1) > tau
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
