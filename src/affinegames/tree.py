"""Finite scenario trees: the discrete filtered probability space.

A tree has one root at time 0, edge-conditional branch probabilities,
and all leaves at the horizon T. Vector-valued processes adapted to the
tree assign one length-m vector per node; conditional expectation at a
node averages the children's values with the branch probabilities by the
one child-sum rule: from 0, add p times each child's value in child order.
Inside the package a process is an array, a row per node. Every sum over
children of one is an _Index.child_sum call (backward induction, profile
evaluation, the naive anchor, the reflected equation and its verifier,
the joint table's stay-in payoffs; its mix of children's tables adds in
the same order), so they agree bit for bit; np.add.reduceat does not.
conditional_expectation is the rule's public per-node form.
A tree is held once, as its nodes; the accessors, validation and every walk
in multi_period and bsde read one row index built from them, valid tree or
not (ScenarioTree._index), and a node's matrix through its column into the
distinct matrices. Its dates, each date's edges and parent rows, are built at
their first read, which only a validated tree's solvers and verifiers make.
Validation returns violations as data so callers can report all problems
at once instead of failing on the first; a non-terminal node with no
matrix is one, and so is a matrix with a diagonal entry that is not above
0, which no one-shot game accepts. The node checks are reductions over the
index; only nodes a check flags are visited, to word their messages in node
order. A tree is validated once per tree and tolerance, classifying its
distinct matrices together. The diagonal rule alone takes no tolerance, as
in GameSpec. A tree also keeps, per tolerance, what multi_period solves on
it: the value process's rows and tau_star, and per anchor the joint payoff
table of every stopping profile with its verdict tolerance, all read-only.
These memos are sound because a tree cannot change: its nodes and matrices
are frozen and its index read-only. Copies and pickles keep the verdicts and
build the rest again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import DomainError
from .matrices import (
    DEFAULT_TOL,
    MatrixClass,
    SquareMatrix,
    _classify_stack,
    _read_only,
    _stack_width,
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

    A per-node matrix overrides the shared one. The nodes are the only input;
    _index, built from them at its first read and not compared, holds a row
    per node: the row of each id's first node (row); the parent row (up; -1
    for a root, -2 for an unknown id) and the root rows (roots); t, p, whether
    X has length m (sized) and those X; the edges by parent row, then child
    row (parent, child; a row's are start[row]:start[row + 1], or below[row],
    a list built at its first read); the rows latest date first (order); each
    node's effective matrix as a column (col; -1 for none, -2 for one not m by
    m) into the distinct m-by-m matrices by content, shared one first
    (matrices); and, read only once the tree is validated, each date's edges
    with their parent rows (dates, built at its first read). validate reports
    semantic problems rather than raising them, so a malformed tree can be
    inspected. The verdicts, the index and the solved value process and joint
    tables are kept; dataclasses.replace starts afresh.
    """

    T: int
    m: int
    nodes: Tuple[TreeNode, ...]
    G: Optional[SquareMatrix] = None
    _verdicts: Dict[float, "_Verdict"] = field(init=False, compare=False, repr=False)
    # by tol: U's rows and tau_star, kept by multi_period._value_rows
    _values: Dict[float, Tuple[np.ndarray, Any]] = field(init=False, compare=False, repr=False)
    # by (tol, naive anchor): the joint table and its tau, kept by
    # multi_period._tree_normal_form
    _tables: Dict[Tuple[float, bool], Tuple[np.ndarray, float]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "_verdicts", {})
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "_tables", {})

    def __getstate__(self):  # a copy builds its own read-only arrays and solves afresh
        state = {k: v for k, v in self.__dict__.items() if k != "_index"}
        return {**state, "_values": {}, "_tables": {}}

    @cached_property
    def _index(self) -> "_Index":
        """The nodes as read-only rows, built at the first read, valid tree or not."""
        nodes, m, size = self.nodes, self.m, len(self.nodes)
        ids = [n.id for n in nodes]
        row = dict(zip(ids, range(size)))
        if len(row) < size:  # a repeated id maps to its first node's row
            row.update(zip(reversed(ids), range(size - 1, -1, -1)))
        up = np.array(
            [-1 if n.parent is None else row.get(n.parent, -2) for n in nodes], dtype=np.intp
        )
        roots = np.flatnonzero(up == -1)
        try:
            t = np.array([n.t for n in nodes], dtype=np.int64)
        except OverflowError:  # dates past int64 are only ever reported
            t = np.array([n.t for n in nodes], dtype=object)
        p = np.array([n.p for n in nodes], dtype=float)
        Xs = [n.X for n in nodes]
        sized = np.array([x.shape == (m,) for x in Xs], dtype=bool)
        X = np.array([x for x, ok in zip(Xs, sized.tolist()) if ok], dtype=float)
        X = X.reshape(len(X), m)
        child = np.flatnonzero(up >= 0)[np.argsort(up[up >= 0], kind="stable")]
        parent = up[child]
        start = np.searchsorted(parent, np.arange(size + 1))
        # latest date first, ties in node order (negating an int64 date can overflow)
        order = (size - 1 - np.argsort(t[::-1], kind="stable"))[::-1]
        by_content: Dict[bytes, int] = {}  # the column of each m-by-m matrix's entries
        matrices: List[SquareMatrix] = []

        def column(M: Optional[SquareMatrix]) -> int:
            if M is None or M.m != m:
                return -1 if M is None else -2
            j = by_content.setdefault(M.entries.tobytes(), len(by_content))
            if j == len(matrices):
                matrices.append(M)
            return j

        shared = column(self.G)  # 0 when the shared matrix is m by m
        col = np.array([shared if n.G is None else column(n.G) for n in nodes], dtype=np.intp)
        arrays = (up, roots, t, p, sized, X, parent, child, start, order, col)
        for a in arrays:
            a.flags.writeable = False
        return _Index(MappingProxyType(row), *arrays, tuple(matrices))

    def node(self, node_id: Union[str, TreeNode]) -> TreeNode:
        if isinstance(node_id, TreeNode):
            return node_id
        return self.nodes[self._index.row[str(node_id)]]

    def children(self, node_id: Union[str, TreeNode]) -> Tuple[TreeNode, ...]:
        ix = self._index
        return tuple(self.nodes[c] for c in ix.below[ix.row[self.node(node_id).id]])

    def is_leaf(self, node_id: Union[str, TreeNode]) -> bool:
        return not self.children(node_id)

    @property
    def root(self) -> TreeNode:
        if len(self._index.roots) != 1:
            raise ValueError(f"tree has {len(self._index.roots)} roots")
        return self.nodes[self._index.roots[0]]

    def effective_G(self, node_id: Union[str, TreeNode]) -> Optional[SquareMatrix]:
        n = self.node(node_id)
        return n.G if n.G is not None else self.G

    def require_valid(self, tol: float = DEFAULT_TOL) -> Mapping[str, MatrixClass]:
        """Validate at tol; the class of each node's effective matrix, by node id."""
        classes, col = _valid(self, tol), self._index.col.tolist()
        return MappingProxyType({n.id: classes[j] for n, j in zip(self.nodes, col) if j >= 0})


@dataclass(frozen=True)
class _Index:
    """A tree's nodes as read-only rows, valid tree or not; the fields are
    listed in ScenarioTree's docstring. Processes are (n, m) arrays in row
    order; process and rows turn one into an AdaptedProcess and back."""

    row: Mapping[str, int]
    up: np.ndarray
    roots: np.ndarray
    t: np.ndarray
    p: np.ndarray
    sized: np.ndarray
    X: np.ndarray
    parent: np.ndarray
    child: np.ndarray
    start: np.ndarray
    order: np.ndarray
    col: np.ndarray
    matrices: Tuple[SquareMatrix, ...]

    @cached_property
    def below(self) -> Tuple[Tuple[int, ...], ...]:
        """Each row's child rows, for walks in Python."""
        child, start = tuple(self.child.tolist()), self.start.tolist()
        return tuple(child[a:b] for a, b in zip(start, start[1:]))

    @cached_property
    def dates(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """dates[t]: the edges under the nodes at date t, with those nodes'
        rows, for t below the horizon; read only on a validated tree, whose
        latest date is its horizon."""
        # a date's edges: a slice of one stable sort by date; its rows: the
        # parents of the first edges among them (np.unique imports numpy.ma)
        edge_t = self.t[self.parent]
        by_date = np.argsort(edge_t, kind="stable")
        by_date.flags.writeable = False
        cuts = np.searchsorted(edge_t[by_date], np.arange(self.t.max() + 1)).tolist()
        first = np.diff(self.parent, prepend=-1) != 0  # each parent row's first edge
        edges = [by_date[a:b] for a, b in zip(cuts, cuts[1:])]
        dates = tuple((e, self.parent[e[first[e]]]) for e in edges)
        for _, rows in dates:
            rows.flags.writeable = False
        return dates

    def stack(self) -> np.ndarray:
        """The distinct matrices' entries, one (k, m, m) array indexed by col."""
        return np.array([M.entries for M in self.matrices], dtype=float)

    def child_sum(self, values: np.ndarray, edges=slice(None)) -> np.ndarray:
        """Each row's sum of p times values over its children along edges, by
        the one child-sum rule; 0 at rows with no such child."""
        out = np.zeros_like(values)
        child = self.child[edges]
        np.add.at(out, self.parent[edges], self.p[child, None] * values[child])
        return out

    def process(self, values: np.ndarray) -> AdaptedProcess:
        return AdaptedProcess({k: values[i] for k, i in self.row.items()})

    def rows(self, proc: AdaptedProcess) -> np.ndarray:
        return np.array([proc[k] for k in self.row], dtype=float)


# violations, and the class of each distinct matrix by column
_Verdict = Tuple[Tuple[str, ...], Tuple[MatrixClass, ...]]


def validate(tree: ScenarioTree, tol: float = DEFAULT_TOL) -> List[str]:
    """All invariant violations, empty when the tree is well formed."""
    return list(_checked(tree, tol)[0])


def _checked(tree: ScenarioTree, tol: float) -> _Verdict:
    """_check's verdict, worked out at the first call for the tree and tol."""
    verdict = tree._verdicts.get(tol)
    if verdict is None:
        verdict = tree._verdicts[tol] = _check(tree, tol)
    return verdict


def _valid(tree: ScenarioTree, tol: float) -> Tuple[MatrixClass, ...]:
    """Validate at tol; the class of each distinct matrix, by column."""
    problems, classes = _checked(tree, tol)
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))
    return classes


def _check(tree: ScenarioTree, tol: float) -> _Verdict:
    """The node checks are reductions over the tree's _index; only a node some
    check flags is visited, to word its messages in node order. The distinct
    matrices are classified as one stack, cut into slices of bounded size."""
    nodes, T, m = tree.nodes, tree.T, tree.m
    ix = tree._index
    out: List[str] = []
    repeated = len(ix.row) < len(nodes)
    if repeated:
        for nid, count in Counter(n.id for n in nodes).items():
            if count > 1:
                out.append(f"node id {nid!r} appears {count} times")
    if len(ix.roots) != 1:
        out.append(f"expected exactly one root, found {len(ix.roots)}")
    up, t, p, size = ix.up, ix.t, ix.p, len(nodes)
    wrong_date = np.zeros(size, dtype=bool)
    wrong_date[ix.child] = t[ix.child] != t[ix.parent] + 1
    finite = np.ones(size, dtype=bool)
    finite[ix.sized] = np.isfinite(ix.X).all(axis=1)
    # children summed in node order from 0, as the builtin sum adds them
    mass = np.bincount(ix.parent, weights=p[ix.child], minlength=size)
    kids = ix.start[1:] > ix.start[:-1]
    if repeated:  # a repeated id shares the first one's children
        first = np.array([ix.row[n.id] for n in nodes], dtype=np.intp)
        mass, kids = mass[first], kids[first]
    bare = ix.col == -1
    root_time = (up == -1) & (t != 0)
    flagged = root_time | (up == -2) | wrong_date | (t < 0) | (t > T) | ~(p > 0)
    flagged |= ~finite | ~ix.sized | np.where(kids, (np.abs(mass - 1.0) > PROB_TOL) | bare, t != T)
    for i in np.flatnonzero(flagged).tolist():
        n = nodes[i]
        if root_time[i]:
            out.append(f"root {n.id!r} has time {n.t}, expected 0")
        elif up[i] == -2:
            out.append(f"node {n.id!r} references unknown parent {n.parent!r}")
        elif wrong_date[i]:
            out.append(f"node {n.id!r} at time {n.t} under parent at time {nodes[up[i]].t}")
        if not 0 <= n.t <= T:
            out.append(f"node {n.id!r} time {n.t} outside [0, {T}]")
        if not n.p > 0:
            out.append(f"node {n.id!r} probability {n.p} is not positive")
        if not ix.sized[i]:
            out.append(f"node {n.id!r} payoff vector is not length {m}")
        elif not finite[i]:
            out.append(f"node {n.id!r} payoff vector has non-finite entries")
        if kids[i]:
            if abs(mass[i] - 1.0) > PROB_TOL:
                out.append(
                    f"children of {n.id!r} have probabilities summing to {float(mass[i])!r}"
                )
            if bare[i]:
                out.append(f"node {n.id!r} has no matrix and no shared default")
        elif n.t != T:
            out.append(f"leaf {n.id!r} at time {n.t}, expected horizon {T}")
    width, G = _stack_width(m), ix.stack()
    classes: List[MatrixClass] = []
    for start in range(0, len(G), width):
        classes.extend(_classify_stack(G[start : start + width], tol))
    # by column, then -2 (not m by m) and -1 (no matrix)
    bad = [not (c.is_K0prime and c.has_positive_diagonal) for c in classes] + [True, False]
    declared = [("<shared>", tree.G, 0 if tree.G.m == m else -2)] if tree.G is not None else []
    rows = np.flatnonzero(np.array(bad, dtype=bool)[ix.col]).tolist()
    declared += [(nodes[i].id, nodes[i].G, ix.col[i]) for i in rows if nodes[i].G is not None]
    for label, M, j in declared:
        if j == -2:
            out.append(f"matrix at {label!r} has size {M.m}, expected {m}")
            continue
        if not classes[j].is_K0prime:
            out.append(
                f"matrix at {label!r} is not a Z-matrix with the almost-P "
                "minor signs"
            )
        if not classes[j].has_positive_diagonal:
            out.append(f"matrix at {label!r} has a diagonal entry that is not positive")
    return tuple(out), tuple(classes)


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
    values = proc.values if isinstance(proc, AdaptedProcess) else proc
    out = np.zeros(tree.m)
    for c in kids:
        out = out + c.p * np.asarray(values[c.id], dtype=float)
    return out
