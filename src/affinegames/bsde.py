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

Solving and verifying are deliberately separate code paths; the verifier
checks the defining conditions directly from the assembled processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import DomainError
from .lcp import LcpProblem, solve_lemke
from .matrices import DEFAULT_TOL, scaled_tol
from .tree import AdaptedProcess, ScenarioTree, conditional_expectation

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
    """Backward sweep solving one complementarity problem per node, latest
    date first; each node's problem reads only its children."""
    classes = tree.require_valid(tol)
    for n in tree.nonterminal():
        if not classes[n.id].is_K:
            raise NotKMatrix(f"matrix at node {n.id!r} is singular or not a K-matrix")
    Z: Dict[str, np.ndarray] = {}
    dK: Dict[str, np.ndarray] = {}
    for n in tree._children_first:
        if tree.is_leaf(n):
            Z[n.id] = n.X.copy()
            continue
        G = tree.effective_G(n)
        p = conditional_expectation(tree, Z, n)
        lcp_sol = solve_lemke(LcpProblem(q=p - n.X, M=G), tol=tol)
        if lcp_sol is None:
            raise ArithmeticError(
                f"complementarity problem at node {n.id!r} ended on a ray"
            )
        dK[n.id] = lcp_sol.z
        Z[n.id] = n.X + lcp_sol.w
    K: Dict[str, np.ndarray] = {}
    J: Dict[str, np.ndarray] = {}
    for n in reversed(tree._children_first):
        if n.parent is None:
            K[n.id] = np.zeros(tree.m)
            J[n.id] = np.zeros(tree.m)
        else:
            parent = tree.node(n.parent)
            step = dK[parent.id]
            K[n.id] = K[parent.id] + step
            J[n.id] = J[parent.id] + tree.effective_G(parent).entries @ step
    return BsdeSolution(
        Z=AdaptedProcess(values=Z),
        K=AdaptedProcess(values=K),
        J=AdaptedProcess(values=J),
        delta_K=dK,
    )


def verify_bsde_solution(
    tree: ScenarioTree,
    sol: BsdeSolution,
    tol: float = DEFAULT_TOL,
) -> List[str]:
    """All violations of the defining conditions, empty when consistent."""
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
    tau = scaled_tol(
        tol, *(a for n in tree.nodes for a in (sol.Z[n.id], n.X, sol.K[n.id]))
    )
    root = tree.root
    if float(np.max(np.abs(sol.K[root.id]))) > tau:
        out.append(f"K at root {root.id!r} is not zero")
    if float(np.max(np.abs(sol.J[root.id]))) > tau:
        out.append(f"J at root {root.id!r} is not zero")
    for n in tree.nodes:
        if tree.is_leaf(n):
            if float(np.max(np.abs(sol.Z[n.id] - n.X))) > tau:
                out.append(f"Z at leaf {n.id!r} differs from the terminal payoff")
        if float(np.min(sol.Z[n.id] - n.X)) < -tau:
            out.append(f"Z at node {n.id!r} falls below the payoff floor")
    for n in tree.nonterminal():
        G = tree.effective_G(n)
        expected = conditional_expectation(tree, sol.Z, n)
        binding = sol.Z[n.id] - n.X > tau
        for c in tree.children(n):
            dK = sol.K[c.id] - sol.K[n.id]
            if float(np.min(dK)) < -tau:
                out.append(f"K decreases on edge {n.id!r} -> {c.id!r}")
            dJ = sol.J[c.id] - sol.J[n.id]
            if float(np.max(np.abs(dJ - G.entries @ dK))) > tau:
                out.append(
                    f"J increment on edge {n.id!r} -> {c.id!r} is not G dK"
                )
            if float(np.max(np.abs(sol.Z[n.id] - dJ - expected))) > tau:
                out.append(
                    f"backward recursion fails on edge {n.id!r} -> {c.id!r}"
                )
            if float(np.sum(dK[binding])) > tau:
                out.append(
                    f"reflection acts at node {n.id!r} where Z is off the floor"
                )
    return out
