"""Finite scenario trees: the discrete filtered probability space.

A tree has one root at time 0, edge-conditional branch probabilities,
and all leaves at the horizon T. Vector-valued processes adapted to the
tree assign one length-m vector per node; conditional expectation at a
node averages the children's values with the branch probabilities.
Validation returns violations as data so callers can report all problems
at once instead of failing on the first; a non-terminal node with no
matrix is one, and so is a matrix with a diagonal entry that is not above
0, which no one-shot game accepts. A tree is validated once per tree and
tolerance, classifying its distinct matrices together; every call reads
the matrix classes that require_valid returns. The diagonal rule alone
takes no tolerance, as in GameSpec. The memo is sound because a tree
cannot change: its nodes and matrices are frozen and their arrays read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import DomainError
from .matrices import (
    _STACK_ENTRIES,
    DEFAULT_TOL,
    MatrixClass,
    SquareMatrix,
    _classify_stack,
    _read_only,
)

__all__ = [
    "TreeNode",
    "ScenarioTree",
    "AdaptedProcess",
    "TerminalNode",
    "validate",
    "conditional_expectation",
]

PROB_TOL = 1e-12

# violations, and the class of each node's effective matrix by node id
_Verdict = Tuple[Tuple[str, ...], Dict[str, MatrixClass]]


class TerminalNode(DomainError):
    """Conditional expectation was requested at a leaf."""


@dataclass(frozen=True)
class TreeNode:
    id: str
    t: int
    parent: Optional[str]
    p: float
    X: np.ndarray
    G: Optional[SquareMatrix] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(
            self, "parent", None if self.parent is None else str(self.parent)
        )
        object.__setattr__(self, "t", int(self.t))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "X", _read_only(self.X))

    def __reduce__(self):  # copies and pickles rebuild a read-only X
        return TreeNode, tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class AdaptedProcess:
    """One vector per node id."""

    values: Dict[str, np.ndarray]

    def __getitem__(self, node_id: str) -> np.ndarray:
        return self.values[str(node_id)]

    def __contains__(self, node_id: str) -> bool:
        return str(node_id) in self.values


@dataclass(frozen=True)
class ScenarioTree:
    """Horizon T, player count m, nodes, and an optional shared matrix G.

    A per-node matrix overrides the shared one. Lookup tables and the
    latest-date-first sweep order are built eagerly; semantic problems are
    reported by validate, not raised here, so a malformed tree can still be inspected.
    The verdict at each tolerance is kept, and dataclasses.replace starts afresh.
    """

    T: int
    m: int
    nodes: Tuple[TreeNode, ...]
    G: Optional[SquareMatrix] = None
    _by_id: Dict[str, TreeNode] = field(repr=False, default_factory=dict)
    _children: Dict[str, Tuple[TreeNode, ...]] = field(repr=False, default_factory=dict)
    _children_first: Tuple[TreeNode, ...] = field(repr=False, default=())
    _verdicts: Dict[float, _Verdict] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        by_id: Dict[str, TreeNode] = {}
        for n in nodes:
            by_id.setdefault(n.id, n)
        kids: Dict[str, List[TreeNode]] = {n.id: [] for n in nodes}
        for n in nodes:
            if n.parent is not None and n.parent in kids:
                kids[n.parent].append(n)
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_children", {k: tuple(v) for k, v in kids.items()}
        )
        object.__setattr__(self, "_children_first", tuple(sorted(nodes, key=lambda n: -n.t)))
        object.__setattr__(self, "_verdicts", {})

    def node(self, node_id: Union[str, TreeNode]) -> TreeNode:
        if isinstance(node_id, TreeNode):
            return node_id
        return self._by_id[str(node_id)]

    def children(self, node_id: Union[str, TreeNode]) -> Tuple[TreeNode, ...]:
        return self._children[self.node(node_id).id]

    def is_leaf(self, node_id: Union[str, TreeNode]) -> bool:
        return not self.children(node_id)

    @property
    def root(self) -> TreeNode:
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise ValueError(f"tree has {len(roots)} roots")
        return roots[0]

    def effective_G(self, node_id: Union[str, TreeNode]) -> Optional[SquareMatrix]:
        n = self.node(node_id)
        return n.G if n.G is not None else self.G

    def nonterminal(self) -> List[TreeNode]:
        return [n for n in self.nodes if not self.is_leaf(n)]

    def require_valid(self, tol: float = DEFAULT_TOL) -> Mapping[str, MatrixClass]:
        """Validate at tol; the class of each node's effective matrix, by node id."""
        problems, classes = _checked(self, tol)
        if problems:
            raise ValueError("invalid tree: " + "; ".join(problems))
        return MappingProxyType(classes)


def validate(tree: ScenarioTree, tol: float = DEFAULT_TOL) -> List[str]:
    """All invariant violations, empty when the tree is well formed."""
    return list(_checked(tree, tol)[0])


def _checked(tree: ScenarioTree, tol: float) -> _Verdict:
    """Violations, and the class of each node's well-sized effective matrix by
    node id; worked out at the first call for the tree and tol."""
    verdict = tree._verdicts.get(tol)
    if verdict is None:
        verdict = tree._verdicts[tol] = _check(tree, tol)
    return verdict


def _check(tree: ScenarioTree, tol: float) -> _Verdict:
    """_checked's verdict; the distinct matrices are classified as one stack,
    cut into slices of bounded size."""
    out: List[str] = []
    seen: Dict[str, int] = {}
    for n in tree.nodes:
        seen[n.id] = seen.get(n.id, 0) + 1
    for nid, count in seen.items():
        if count > 1:
            out.append(f"node id {nid!r} appears {count} times")
    roots = [n for n in tree.nodes if n.parent is None]
    if len(roots) != 1:
        out.append(f"expected exactly one root, found {len(roots)}")
    for n in tree.nodes:
        if n.parent is None:
            if n.t != 0:
                out.append(f"root {n.id!r} has time {n.t}, expected 0")
        elif n.parent not in tree._by_id:
            out.append(f"node {n.id!r} references unknown parent {n.parent!r}")
        else:
            pt = tree.node(n.parent).t
            if n.t != pt + 1:
                out.append(
                    f"node {n.id!r} at time {n.t} under parent at time {pt}"
                )
        if not 0 <= n.t <= tree.T:
            out.append(f"node {n.id!r} time {n.t} outside [0, {tree.T}]")
        if not n.p > 0:
            out.append(f"node {n.id!r} probability {n.p} is not positive")
        if n.X.shape != (tree.m,):
            out.append(f"node {n.id!r} payoff vector is not length {tree.m}")
        elif not np.all(np.isfinite(n.X)):
            out.append(f"node {n.id!r} payoff vector has non-finite entries")
        if n.id in tree._children and tree._children[n.id]:
            mass = sum(c.p for c in tree._children[n.id])
            if abs(mass - 1.0) > PROB_TOL:
                out.append(
                    f"children of {n.id!r} have probabilities summing to {mass!r}"
                )
            if tree.effective_G(n) is None:
                out.append(f"node {n.id!r} has no matrix and no shared default")
        elif n.t != tree.T:
            out.append(f"leaf {n.id!r} at time {n.t}, expected horizon {tree.T}")
    matrices: List[Tuple[str, SquareMatrix]] = []
    if tree.G is not None:
        matrices.append(("<shared>", tree.G))
    matrices.extend((n.id, n.G) for n in tree.nodes if n.G is not None)
    distinct = {M.entries.tobytes(): M.entries for _, M in matrices if M.m == tree.m}
    keys = list(distinct)
    width = max(1, _STACK_ENTRIES // max(1, tree.m * tree.m))
    by_entries: Dict[bytes, MatrixClass] = {}
    for start in range(0, len(keys), width):
        part = keys[start : start + width]
        stack = np.stack([distinct[k] for k in part])
        by_entries.update(zip(part, _classify_stack(stack, tol)))
    for label, M in matrices:
        if M.m != tree.m:
            out.append(f"matrix at {label!r} has size {M.m}, expected {tree.m}")
            continue
        key = M.entries.tobytes()
        if not by_entries[key].is_K0prime:
            out.append(
                f"matrix at {label!r} is not a Z-matrix with the almost-P "
                "minor signs"
            )
        if not by_entries[key].has_positive_diagonal:
            out.append(f"matrix at {label!r} has a diagonal entry that is not positive")
    effective = ((n.id, tree.effective_G(n)) for n in tree.nodes)
    classes = {
        i: by_entries[G.entries.tobytes()]
        for i, G in effective
        if G is not None and G.m == tree.m
    }
    return tuple(out), classes


def _process_values(proc: Union[AdaptedProcess, Mapping[str, Iterable[float]]]):
    if isinstance(proc, AdaptedProcess):
        return proc.values
    return proc


def conditional_expectation(
    tree: ScenarioTree,
    proc: Union[AdaptedProcess, Mapping[str, Iterable[float]]],
    node: Union[str, TreeNode],
) -> np.ndarray:
    """Probability-weighted average of the process over the node's children."""
    n = tree.node(node)
    kids = tree.children(n)
    if not kids:
        raise TerminalNode(f"node {n.id!r} has no children")
    values = _process_values(proc)
    out = np.zeros(tree.m)
    for c in kids:
        out = out + c.p * np.asarray(values[c.id], dtype=float)
    return out
