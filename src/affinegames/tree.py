"""Finite scenario trees: the discrete filtered probability space.

A tree has one root at time 0, edge-conditional branch probabilities,
and all leaves at the horizon T. Vector-valued processes adapted to the
tree assign one length-m vector per node; conditional expectation at a
node averages the children's values with the branch probabilities by the
one child-sum rule: from 0, add p times each child's value in child order.
Inside the package a process is an array, a row per node. Every sum over
children of one is a _Layout.child_sum call (backward induction, profile
evaluation, the naive anchor, the reflected equation and its verifier,
the joint table's stay-in payoffs; its mix of children's tables adds in
the same order), so they agree bit for bit; np.add.reduceat does not.
conditional_expectation is the rule's public per-node form.
Validation returns violations as data so callers can report all problems
at once instead of failing on the first; a non-terminal node with no
matrix is one, and so is a matrix with a diagonal entry that is not above
0, which no one-shot game accepts. The node checks are reductions over the
tree's _arrays (parent rows, dates, probabilities, payoffs), built once per
tree, valid or not; a valid tree's _Layout is built from the same arrays.
Only nodes a check flags are visited one by one, to word their messages in
node order. A tree is validated once per tree and tolerance, classifying
its distinct matrices together; every call reads the matrix classes that
require_valid returns. The diagonal rule alone
takes no tolerance, as in GameSpec. A tree also keeps, per tolerance, what
multi_period solves on it: the value process's rows and tau_star, and per
anchor the joint payoff table of every stopping profile with its verdict
tolerance, all read-only. These memos are sound because a tree cannot
change: its nodes and matrices are frozen and their arrays read-only; so is
a valid tree's array layout (_Layout), built at its first use. Copies and
pickles keep the verdicts and build the rest again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple, Union

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
    latest-date-first sweep order are built eagerly from the nodes alone and
    are not compared; semantic problems are reported by validate, not raised
    here, so a malformed tree can still be inspected.
    The verdicts, the array layout and the solved value process and joint
    tables are kept; dataclasses.replace starts afresh.
    """

    T: int
    m: int
    nodes: Tuple[TreeNode, ...]
    G: Optional[SquareMatrix] = None
    _by_id: Dict[str, TreeNode] = field(init=False, compare=False, repr=False)
    _roots: Tuple[TreeNode, ...] = field(init=False, compare=False, repr=False)
    _children: Dict[str, Tuple[TreeNode, ...]] = field(init=False, compare=False, repr=False)
    _children_first: Tuple[TreeNode, ...] = field(init=False, compare=False, repr=False)
    _verdicts: Dict[float, _Verdict] = field(init=False, compare=False, repr=False)
    # by tol: U's rows and tau_star, kept by multi_period._value_rows
    _values: Dict[float, Tuple[np.ndarray, Any]] = field(init=False, compare=False, repr=False)
    # by (tol, naive anchor): the joint table and its tau, kept by
    # multi_period._tree_normal_form
    _tables: Dict[Tuple[float, bool], Tuple[np.ndarray, float]] = field(
        init=False, compare=False, repr=False
    )

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
        object.__setattr__(self, "_roots", tuple(n for n in nodes if n.parent is None))
        object.__setattr__(
            self, "_children", {k: tuple(v) for k, v in kids.items()}
        )
        object.__setattr__(self, "_children_first", tuple(sorted(nodes, key=lambda n: -n.t)))
        object.__setattr__(self, "_verdicts", {})
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "_tables", {})

    def __getstate__(self):  # a copy builds its own read-only arrays and solves afresh
        state = {k: v for k, v in self.__dict__.items() if k not in ("_arrays", "_layout")}
        return {**state, "_values": {}, "_tables": {}}

    @cached_property
    def _arrays(self) -> "_Arrays":
        """The nodes' fields as arrays, built at the first read, valid tree or not."""
        nodes, m = self.nodes, self.m
        ids = [n.id for n in nodes]
        row = dict(zip(ids, range(len(ids))))
        if len(row) < len(ids):  # a repeated id maps to its first node's row
            row = {}
            for i, nid in enumerate(ids):
                row.setdefault(nid, i)
        up = np.array(
            [-1 if n.parent is None else row.get(n.parent, -2) for n in nodes], dtype=np.intp
        )
        try:
            t = np.array([n.t for n in nodes], dtype=np.int64)
        except OverflowError:  # dates past int64 are only ever reported
            t = np.array([n.t for n in nodes], dtype=object)
        p = np.array([n.p for n in nodes], dtype=float)
        Xs = [n.X for n in nodes]
        sized = np.array([x.shape == (m,) for x in Xs], dtype=bool)
        X = np.array([x for x, ok in zip(Xs, sized.tolist()) if ok], dtype=float)
        X = X.reshape(len(X), m)
        for a in (up, t, p, sized, X):
            a.flags.writeable = False
        return _Arrays(MappingProxyType(row), up, t, p, sized, X)

    @cached_property
    def _layout(self) -> "_Layout":
        """The array layout, built at the first read from _arrays; call
        require_valid first."""
        a, n = self._arrays, len(self.nodes)
        below = np.flatnonzero(a.up >= 0)
        child = below[np.argsort(a.up[below], kind="stable")]
        parent = a.up[child]
        inner = np.flatnonzero(np.bincount(parent, minlength=n))
        # each date's edges and inner rows are slices of one stable sort by date
        edge_t, bounds = a.t[parent], np.arange(self.T + 1)
        by_date = np.argsort(edge_t, kind="stable")
        inner_by_date = inner[np.argsort(a.t[inner], kind="stable")]
        cuts = np.searchsorted(edge_t[by_date], bounds).tolist()
        inner_cuts = np.searchsorted(a.t[inner_by_date], bounds).tolist()
        p = a.p[child]
        for x in (parent, child, p, inner, by_date, inner_by_date):
            x.flags.writeable = False
        dates = tuple(
            (by_date[cuts[d] : cuts[d + 1]], inner_by_date[inner_cuts[d] : inner_cuts[d + 1]])
            for d in range(self.T)
        )
        return _Layout(a.X, parent, child, p, inner, dates, a.row)

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
        if len(self._roots) != 1:
            raise ValueError(f"tree has {len(self._roots)} roots")
        return self._roots[0]

    def effective_G(self, node_id: Union[str, TreeNode]) -> Optional[SquareMatrix]:
        n = self.node(node_id)
        return n.G if n.G is not None else self.G

    def require_valid(self, tol: float = DEFAULT_TOL) -> Mapping[str, MatrixClass]:
        """Validate at tol; the class of each node's effective matrix, by node id."""
        problems, classes = _checked(self, tol)
        if problems:
            raise ValueError("invalid tree: " + "; ".join(problems))
        return MappingProxyType(classes)


class _Arrays(NamedTuple):
    """A tree's nodes as read-only arrays, whether or not it is valid: the
    row of each id's first node; each node's parent row (-1 for none, -2 for
    an id no node has), date t and probability p; whether its payoff vector
    has length m; and those that do as the rows of X. validate reads them,
    and a valid tree's _Layout is built from them."""

    row: Mapping[str, int]
    up: np.ndarray
    t: np.ndarray
    p: np.ndarray
    sized: np.ndarray
    X: np.ndarray


class _Layout(NamedTuple):
    """A valid tree as read-only arrays: payoffs X, one row per node; edges as
    parent row, child row and p, in node order, then child order; the rows
    of the nodes with children, inner; dates[t], the edges under the nodes
    at date t with those nodes' rows; and the row of each node id, by which
    process and rows turn an (n, m) array into an AdaptedProcess and back."""

    X: np.ndarray
    parent: np.ndarray
    child: np.ndarray
    p: np.ndarray
    inner: np.ndarray
    dates: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    row: Mapping[str, int]

    def child_sum(self, values: np.ndarray, edges=slice(None)) -> np.ndarray:
        """Each row's sum of p times values over its children along edges, by
        the one child-sum rule; 0 at rows with no such child."""
        out = np.zeros_like(values)
        np.add.at(out, self.parent[edges], self.p[edges, None] * values[self.child[edges]])
        return out

    def process(self, values: np.ndarray) -> AdaptedProcess:
        return AdaptedProcess({k: values[i] for k, i in self.row.items()})

    def rows(self, proc: AdaptedProcess) -> np.ndarray:
        return np.array([proc[k] for k in self.row], dtype=float)


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
    """_checked's verdict. The node checks are reductions over the tree's
    _arrays; only a node some check flags is visited, to word its messages in
    node order. The distinct matrices are classified as one stack, cut into
    slices of bounded size."""
    nodes, T, m = tree.nodes, tree.T, tree.m
    a = tree._arrays
    out: List[str] = []
    repeated = len(a.row) < len(nodes)
    if repeated:
        for nid, count in Counter(n.id for n in nodes).items():
            if count > 1:
                out.append(f"node id {nid!r} appears {count} times")
    if len(tree._roots) != 1:
        out.append(f"expected exactly one root, found {len(tree._roots)}")
    up, t, p, size = a.up, a.t, a.p, len(nodes)
    edges = np.flatnonzero(up >= 0)
    below = up[edges]
    wrong_date = np.zeros(size, dtype=bool)
    wrong_date[edges] = t[edges] != t[below] + 1
    finite = np.ones(size, dtype=bool)
    finite[a.sized] = np.isfinite(a.X).all(axis=1)
    # children summed in node order from 0, as the builtin sum adds them
    mass = np.bincount(below, weights=p[edges], minlength=size)
    kids = np.bincount(below, minlength=size) > 0
    if repeated:  # a repeated id shares the first one's children
        first = np.array([a.row[n.id] for n in nodes], dtype=np.intp)
        mass, kids = mass[first], kids[first]
    bare = np.array([n.G is None for n in nodes], dtype=bool) & (tree.G is None)
    root_time = (up == -1) & (t != 0)
    flagged = root_time | (up == -2) | wrong_date | (t < 0) | (t > T) | ~(p > 0)
    flagged |= ~finite | ~a.sized | np.where(kids, (np.abs(mass - 1.0) > PROB_TOL) | bare, t != T)
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
        if not a.sized[i]:
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
    matrices: List[Tuple[str, SquareMatrix]] = []
    if tree.G is not None:
        matrices.append(("<shared>", tree.G))
    matrices.extend((n.id, n.G) for n in nodes if n.G is not None)
    # keyed by content, each SquareMatrix object read once
    key = {id(M): M.entries.tobytes() for _, M in matrices if M.m == m}
    distinct = {key[id(M)]: M.entries for _, M in matrices if M.m == m}
    keys = list(distinct)
    width = _stack_width(m)
    by_entries: Dict[bytes, MatrixClass] = {}
    for start in range(0, len(keys), width):
        part = keys[start : start + width]
        stack = np.stack([distinct[k] for k in part])
        by_entries.update(zip(part, _classify_stack(stack, tol)))
    for label, M in matrices:
        if M.m != m:
            out.append(f"matrix at {label!r} has size {M.m}, expected {m}")
            continue
        cls = by_entries[key[id(M)]]
        if not cls.is_K0prime:
            out.append(
                f"matrix at {label!r} is not a Z-matrix with the almost-P "
                "minor signs"
            )
        if not cls.has_positive_diagonal:
            out.append(f"matrix at {label!r} has a diagonal entry that is not positive")
    by_object = {k: by_entries[b] for k, b in key.items()}
    shared = by_object.get(id(tree.G))
    classes = {
        n.id: c
        for n in nodes
        if (c := shared if n.G is None else by_object.get(id(n.G))) is not None
    }
    return tuple(out), classes


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
