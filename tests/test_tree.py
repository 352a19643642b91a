import copy
import dataclasses
import functools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames import tree as tree_module
from affinegames.bsde import solve_reflected_bsde, verify_bsde_solution
from affinegames.cli import gen_tree
from affinegames.matrices import SquareMatrix, gen_k_matrix
from affinegames.multi_period import (
    naive_equilibrium_search,
    stopping_time_count,
    verify_optimal_equilibrium,
)
from affinegames.tree import (
    AdaptedProcess,
    ScenarioTree,
    TerminalNode,
    TreeNode,
    conditional_expectation,
    validate,
)

K2 = SquareMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
NOT_Z = SquareMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
SINGULAR = SquareMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def node(nid, t, parent, p, X, G=None):
    return TreeNode(id=nid, t=t, parent=parent, p=p, X=np.asarray(X, float), G=G)


def two_level_tree(m=1, G=None):
    """Root a, children b (1/4) and c (3/4), two leaves under each."""

    def X(x):
        return [float(x)] * m

    nodes = (
        node("a", 0, None, 1.0, X(0)),
        node("b", 1, "a", 0.25, X(1)),
        node("c", 1, "a", 0.75, X(2)),
        node("b0", 2, "b", 0.2, X(1)),
        node("b1", 2, "b", 0.8, X(2)),
        node("c0", 2, "c", 0.5, X(3)),
        node("c1", 2, "c", 0.5, X(4)),
    )
    return ScenarioTree(T=2, m=m, nodes=nodes, G=G)


def chain_tree(xs, m=1, G=None):
    nodes = [node("n0", 0, None, 1.0, [float(x) for x in np.atleast_1d(xs[0])])]
    for t, x in enumerate(xs[1:], start=1):
        nodes.append(
            node(f"n{t}", t, f"n{t - 1}", 1.0, [float(v) for v in np.atleast_1d(x)])
        )
    return ScenarioTree(T=len(xs) - 1, m=m, nodes=tuple(nodes), G=G)


class TestNavigation:
    def test_lookup_and_children_order(self):
        tree = two_level_tree()
        assert tree.root.id == "a"
        assert [c.id for c in tree.children("a")] == ["b", "c"]
        assert [c.id for c in tree.children("b")] == ["b0", "b1"]
        assert tree.node("c1").t == 2

    def test_leaf_predicate(self):
        tree = two_level_tree()
        assert tree.is_leaf("b0")
        assert not tree.is_leaf("a")
        assert sorted(n.id for n in tree.nodes if not tree.is_leaf(n)) == ["a", "b", "c"]

    def test_effective_matrix_prefers_node_override(self):
        override = SquareMatrix(np.array([[2.0]]))
        shared = SquareMatrix(np.array([[1.0]]))
        nodes = (
            node("n0", 0, None, 1.0, [0.0], G=override),
            node("n1", 1, "n0", 1.0, [0.0]),
        )
        tree = ScenarioTree(T=1, m=1, nodes=nodes, G=shared)
        assert tree.effective_G("n0") is override
        assert tree.effective_G("n1") is shared

    def test_effective_matrix_missing(self):
        tree = chain_tree([0.0, 1.0])
        assert tree.effective_G("n0") is None


class TestDerivedIndexes:
    """The row index and its sweep order come from the nodes alone."""

    @pytest.mark.parametrize("name", ["_index"])
    def test_not_a_constructor_argument(self, name):
        tree = two_level_tree(G=SquareMatrix(np.array([[1.0]])))
        with pytest.raises(TypeError, match=name):
            ScenarioTree(T=tree.T, m=tree.m, nodes=tree.nodes, **{name: getattr(tree, name)})

    def test_replace_rebuilds_them(self):
        tree = two_level_tree()
        shorter = dataclasses.replace(tree, T=1, nodes=tree.nodes[:3])
        assert list(shorter._index.row) == ["a", "b", "c"]
        assert [c.id for c in shorter.children("a")] == ["b", "c"]
        assert shorter.is_leaf("b") and not tree.is_leaf("b")
        assert [shorter.nodes[i].id for i in shorter._index.order] == ["b", "c", "a"]

    def test_child_lists_are_built_once_per_tree(self, monkeypatch):
        built = []
        real = tree_module._Index.below.func

        def counted(ix):
            built.append(ix)
            return real(ix)

        below = functools.cached_property(counted)
        below.__set_name__(tree_module._Index, "below")
        monkeypatch.setattr(tree_module._Index, "below", below)
        tree = gen_tree(0, 2, T=2, branching=2)
        naive_equilibrium_search(tree)
        naive_equilibrium_search(tree, tol=1e-12)
        assert stopping_time_count(tree) == 5
        assert all(tree.children(n) == () for n in tree.nodes if n.t == tree.T)
        assert built == [tree._index]


def reference_check(tree, tol):
    """The node-by-node validation that tree._check replaced, kept as its
    oracle and reading only tree.nodes: the violations, and the class of each
    node's well-sized effective matrix by node id."""
    out: list = []
    seen: dict = {}
    first: dict = {}
    kids: dict = {}
    for n in tree.nodes:
        seen[n.id] = seen.get(n.id, 0) + 1
        first.setdefault(n.id, n)
        kids.setdefault(n.parent, []).append(n)
    for nid, count in seen.items():
        if count > 1:
            out.append(f"node id {nid!r} appears {count} times")
    roots = kids.get(None, [])
    if len(roots) != 1:
        out.append(f"expected exactly one root, found {len(roots)}")
    for n in tree.nodes:
        if n.parent is None:
            if n.t != 0:
                out.append(f"root {n.id!r} has time {n.t}, expected 0")
        elif n.parent not in first:
            out.append(f"node {n.id!r} references unknown parent {n.parent!r}")
        else:
            pt = first[n.parent].t
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
        if kids.get(n.id):
            mass = sum(c.p for c in kids[n.id])
            if abs(mass - 1.0) > tree_module.PROB_TOL:
                out.append(
                    f"children of {n.id!r} have probabilities summing to {mass!r}"
                )
            if n.G is None and tree.G is None:
                out.append(f"node {n.id!r} has no matrix and no shared default")
        elif n.t != tree.T:
            out.append(f"leaf {n.id!r} at time {n.t}, expected horizon {tree.T}")
    matrices: list = []
    if tree.G is not None:
        matrices.append(("<shared>", tree.G))
    matrices.extend((n.id, n.G) for n in tree.nodes if n.G is not None)
    distinct = {M.entries.tobytes(): M.entries for _, M in matrices if M.m == tree.m}
    keys = list(distinct)
    width = tree_module._stack_width(tree.m)
    by_entries: dict = {}
    for start in range(0, len(keys), width):
        part = keys[start : start + width]
        stack = np.stack([distinct[k] for k in part])
        by_entries.update(zip(part, tree_module._classify_stack(stack, tol)))
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
    effective = ((n.id, tree.G if n.G is None else n.G) for n in tree.nodes)
    classes = {
        i: by_entries[G.entries.tobytes()]
        for i, G in effective
        if G is not None and G.m == tree.m
    }
    return tuple(out), classes


MALFORMATIONS = (
    "duplicate id",
    "duplicate node",
    "unknown parent",
    "extra root",
    "no root",
    "date",
    "probability",
    "payoff length",
    "payoff entry",
    "missing matrix",
    "early leaf",
    "matrix",
)


@st.composite
def malformed_trees(draw):
    """A generated tree with a few malformations drawn from MALFORMATIONS,
    some of which leave it valid."""
    m, T, b = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = gen_tree(draw(st.integers(0, 50)), m, T=T, branching=b)
    nodes = [dict(id=n.id, t=n.t, parent=n.parent, p=n.p, X=n.X, G=None) for n in base.nodes]
    shared = base.G
    for kind in draw(st.lists(st.sampled_from(MALFORMATIONS), max_size=4)):
        n = nodes[draw(st.integers(0, len(nodes) - 1))]
        if kind == "duplicate id":  # onto a node with or without children
            nodes[draw(st.integers(0, len(nodes) - 1))]["id"] = n["id"]
        elif kind == "duplicate node":
            nodes.append(dict(n))
        elif kind == "unknown parent":
            n["parent"] = "ghost"
        elif kind == "extra root":
            n["parent"] = None
        elif kind == "no root":
            for other in nodes:
                if other["parent"] is None:
                    other["parent"] = n["id"]
        elif kind == "date":
            n["t"] = draw(st.integers(-2, T + 2) | st.just(10**30))
        elif kind == "probability":
            n["p"] = draw(st.sampled_from([0.0, -0.0, -0.5, float("nan"), 0.3, 2.0, float("inf")]))
        elif kind == "payoff length":
            n["X"] = np.zeros(draw(st.sampled_from([m - 1, m + 1, (1, m)])))
        elif kind == "payoff entry":
            X = np.array(n["X"])
            if X.size:  # a payoff vector an earlier malformation may have emptied
                X.flat[draw(st.integers(0, X.size - 1))] = draw(
                    st.sampled_from([np.nan, np.inf, -np.inf])
                )
            n["X"] = X
        elif kind == "missing matrix":
            shared = None
            n["G"] = K2 if m == 2 else gen_k_matrix(0, m)
        elif kind == "early leaf":
            nodes.append(dict(id=f"{n['id']}x", t=n["t"] + 1, parent=n["id"], p=0.5, X=np.zeros(m)))
        else:
            n["G"] = draw(st.sampled_from([NOT_Z, SINGULAR, K2, SquareMatrix(np.eye(m + 1))]))
    return ScenarioTree(T=T, m=m, nodes=tuple(TreeNode(**n) for n in nodes), G=shared)


class TestValidationOracle:
    """validate is a set of array reductions; it must say what the node-by-node
    loop said, message for message and in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(tree=malformed_trees())
    def test_equals_the_node_by_node_reference(self, tree):
        problems, classes = reference_check(tree, 1e-9)
        assert validate(tree) == list(problems)
        twin = dataclasses.replace(tree)
        got, by_column = tree_module._check(twin, 1e-9)
        by_id = {n.id: by_column[j] for n, j in zip(twin.nodes, twin._index.col.tolist()) if j >= 0}
        assert (got, by_id) == (problems, classes)

    def test_every_malformation_is_reported(self):
        tree = malformed_tree_of_every_kind()
        problems = validate(tree)
        assert problems == list(reference_check(tree, 1e-9)[0])
        for text in (
            "appears 2 times", "exactly one root", "has time 1", "unknown parent",
            "under parent at time", "outside [0, 2]", "probability nan", "probability -0.5",
            "not length 2", "non-finite", "summing to", "no matrix", "expected horizon",
        ):
            assert any(text in p for p in problems), text


def malformed_tree_of_every_kind():
    nodes = (
        node("a", 0, None, 1.0, [0.0, 0.0], G=K2),
        node("b", 1, "a", -0.5, [1.0, 1.0]),
        node("c", 1, "a", float("nan"), [np.inf, 0.0]),
        node("b0", 2, "b", 1.0, [0.0]),
        node("b0", 3, "b", 1.0, [0.0, 0.0]),
        node("d", 1, "ghost", 1.0, [0.0, 0.0]),
        node("e", 1, None, 1.0, [0.0, 0.0]),
    )
    return ScenarioTree(T=2, m=2, nodes=nodes)


def malformed(kind):
    """One small tree per malformation that the accessors must still answer."""
    if kind == "repeated id":  # a second 'b' under 'c', dated after it
        nodes = (
            node("a", 0, None, 1.0, [0.0]),
            node("c", 1, "a", 0.5, [1.0]),
            node("b", 1, "a", 0.5, [2.0]),
            node("b", 2, "c", 1.0, [3.0]),
        )
    elif kind == "repeated id with children":  # by id, 'a' has 9 stopping times
        nodes = (
            node("a", 0, None, 1.0, [0.0]),
            node("b", 1, "a", 0.25, [1.0]),
            node("c", 1, "a", 0.5, [2.0]),
            node("b0", 2, "b", 1.0, [3.0]),
            node("c0", 2, "c", 1.0, [4.0]),
            node("b", 1, "a", 0.25, [5.0]),
        )
    elif kind == "unknown parent":
        nodes = (node("a", 0, None, 1.0, [0.0]), node("b", 1, "a", 1.0, [1.0]),
                 node("c", 1, "ghost", 1.0, [2.0]))
    elif kind == "two roots":
        nodes = (node("a", 0, None, 1.0, [0.0]), node("b", 1, "a", 1.0, [1.0]),
                 node("c", 0, None, 1.0, [2.0]), node("c0", 1, "c", 1.0, [3.0]))
    elif kind == "no root":
        nodes = (node("a", 0, "b", 1.0, [0.0]), node("b", 1, "a", 1.0, [1.0]))
    elif kind == "child not after parent":
        nodes = (node("r", 0, None, 1.0, [0.0]), node("a", 1, "r", 1.0, [1.0]),
                 node("b", 1, "a", 1.0, [2.0]), node("c", 0, "a", 1.0, [3.0]))
    else:  # a date past int64
        nodes = (node("r", 0, None, 1.0, [0.0]), node("a", 10**30, "r", 1.0, [1.0]))
    return ScenarioTree(T=1, m=1, nodes=nodes, G=SquareMatrix(np.array([[1.0]])))


class TestMalformedTrees:
    """On a tree that validate refuses, the accessors, validate and the
    stopping-time count answer as a walk over tree.nodes with its own dicts."""

    @pytest.mark.parametrize(
        "kind",
        ["repeated id", "repeated id with children", "unknown parent", "two roots", "no root",
         "child not after parent", "date past int64"],
    )
    def test_accessors_follow_the_nodes(self, kind):
        tree = malformed(kind)
        first, kids = {}, {}
        for n in tree.nodes:
            first.setdefault(n.id, n)
            kids.setdefault(n.parent, []).append(n)
        for n in tree.nodes:
            assert tree.node(n.id) is first[n.id]
            for key in (n.id, n):
                assert [id(c) for c in tree.children(key)] == [id(c) for c in kids.get(n.id, [])]
                assert tree.is_leaf(key) == (n.id not in kids)
        with pytest.raises(KeyError):
            tree.node("nowhere")
        roots = kids.get(None, [])
        if len(roots) == 1:
            assert tree.root is roots[0]
        else:
            with pytest.raises(ValueError, match=f"^tree has {len(roots)} roots$"):
                tree.root
        problems = validate(tree)
        assert problems and problems == list(reference_check(tree, 1e-9)[0])

        def count(n):
            below = kids.get(n.id, [])
            if any(c.t <= n.t for c in below):
                raise ValueError(f"a child of {n.id!r} is not dated after it")
            return 1 + math.prod(count(c) for c in below) if below else 1

        try:
            if len(roots) != 1 or len(first) < len(tree.nodes):
                raise ValueError("no single root, or a repeated id")
            want = count(roots[0])
        except ValueError:
            with pytest.raises(ValueError):
                stopping_time_count(tree)
        else:
            assert stopping_time_count(tree) == want


class TestValidate:
    def test_well_formed(self):
        assert validate(two_level_tree(m=2, G=K2)) == []

    def test_duplicate_ids(self):
        nodes = (
            node("n0", 0, None, 1.0, [0.0]),
            node("n1", 1, "n0", 1.0, [0.0]),
            node("n1", 1, "n0", 1.0, [0.0]),
        )
        problems = validate(ScenarioTree(T=1, m=1, nodes=nodes))
        assert any("appears 2 times" in p for p in problems)

    def test_root_count_and_time(self):
        no_root = ScenarioTree(
            T=0, m=1, nodes=(node("n0", 0, "ghost", 1.0, [0.0]),)
        )
        assert any("exactly one root" in p for p in validate(no_root))
        late_root = ScenarioTree(T=1, m=1, nodes=(node("n0", 1, None, 1.0, [0.0]),))
        assert any("has time 1" in p for p in validate(late_root))
        two_roots = ScenarioTree(
            T=0, m=1, nodes=(node("a", 0, None, 1.0, [0.0]), node("b", 0, None, 1.0, [0.0]))
        )
        assert any("found 2" in p for p in validate(two_roots))
        for tree, count in ((no_root, 0), (two_roots, 2)):
            with pytest.raises(ValueError, match=f"^tree has {count} roots$"):
                tree.root

    def test_unknown_parent_and_bad_step(self):
        nodes = (
            node("n0", 0, None, 1.0, [0.0]),
            node("n1", 2, "n0", 1.0, [0.0]),
            node("n2", 1, "nope", 1.0, [0.0]),
        )
        problems = validate(ScenarioTree(T=2, m=1, nodes=nodes))
        assert any("unknown parent" in p for p in problems)
        assert any("at time 2 under parent at time 0" in p for p in problems)

    def test_probability_positive(self):
        nodes = (
            node("n0", 0, None, 1.0, [0.0]),
            node("n1", 1, "n0", 0.0, [0.0]),
            node("n2", 1, "n0", 1.0, [0.0]),
        )
        problems = validate(ScenarioTree(T=1, m=1, nodes=nodes))
        assert any("is not positive" in p for p in problems)

    def test_children_mass_must_be_one(self):
        nodes = (
            node("n0", 0, None, 1.0, [0.0]),
            node("n1", 1, "n0", 0.5, [0.0]),
            node("n2", 1, "n0", 0.4, [0.0]),
        )
        problems = validate(ScenarioTree(T=1, m=1, nodes=nodes))
        assert any("summing to" in p for p in problems)

    def test_early_leaf(self):
        nodes = (
            node("n0", 0, None, 1.0, [0.0]),
            node("n1", 1, "n0", 1.0, [0.0]),
        )
        problems = validate(ScenarioTree(T=2, m=1, nodes=nodes))
        assert any("expected horizon 2" in p for p in problems)
        past = nodes + (node("n2", 2, "n1", 1.0, [0.0]),)
        problems = validate(ScenarioTree(T=1, m=1, nodes=past))
        assert "node 'n2' time 2 outside [0, 1]" in problems

    def test_single_node_tree_is_valid(self):
        assert validate(chain_tree([0.0])) == []

    def test_payoff_shape_and_finiteness(self):
        nodes = (node("n0", 0, None, 1.0, [0.0, 1.0]),)
        problems = validate(ScenarioTree(T=0, m=1, nodes=nodes))
        assert any("not length 1" in p for p in problems)
        with_nan = ScenarioTree(
            T=0, m=1, nodes=(node("n0", 0, None, 1.0, [np.nan]),)
        )
        assert any("non-finite" in p for p in validate(with_nan))

    def test_matrix_class_checked(self):
        tree = two_level_tree(m=2, G=NOT_Z)
        problems = validate(tree)
        assert any("not a Z-matrix" in p for p in problems)

    def test_matrix_size_checked(self):
        tree = two_level_tree(m=2, G=SquareMatrix(np.array([[1.0]])))
        problems = validate(tree)
        assert any("has size 1, expected 2" in p for p in problems)

    def test_node_override_checked_too(self):
        nodes = (
            node("n0", 0, None, 1.0, [0.0, 0.0], G=NOT_Z),
            node("n1", 1, "n0", 1.0, [0.0, 0.0]),
        )
        problems = validate(ScenarioTree(T=1, m=2, nodes=nodes, G=K2))
        assert any("'n0'" in p and "not a Z-matrix" in p for p in problems)

    def test_require_valid(self):
        two_level_tree(m=2, G=K2).require_valid()
        with pytest.raises(ValueError, match="invalid tree"):
            two_level_tree(m=2, G=NOT_Z).require_valid()

    def test_missing_matrix_is_a_violation(self):
        problems = validate(two_level_tree(m=2))
        assert problems == [
            f"node {nid!r} has no matrix and no shared default"
            for nid in ("a", "b", "c")
        ]

    def test_require_valid_returns_effective_classes(self):
        override = SquareMatrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        nodes = (
            node("n0", 0, None, 1.0, [0.0, 0.0], G=override),
            node("n1", 1, "n0", 1.0, [0.0, 0.0]),
        )
        classes = ScenarioTree(T=1, m=2, nodes=nodes, G=SINGULAR).require_valid()
        assert classes["n0"].is_K and not classes["n1"].is_K
        assert classes["n1"].is_K0prime

    def test_zero_diagonal_is_a_violation(self):
        # [[0]] is K0' (no proper minors, determinant 0), but no game has it
        tree = chain_tree([0.0, 1.0], G=SquareMatrix(np.zeros((1, 1))))
        assert validate(tree) == [
            "matrix at '<shared>' has a diagonal entry that is not positive"
        ]

    def test_require_valid_uses_the_callers_tolerance(self):
        near = SquareMatrix(np.array([[1.0, -1.0], [-1.0, 0.99999999]]))
        tree = two_level_tree(m=2, G=near)
        with pytest.raises(ValueError, match="almost-P"):
            tree.require_valid()
        assert tree.require_valid(1e-6)["a"].is_K0prime


class TestRootIndex:
    def test_root_is_found_with_the_lookup_tables(self):
        class Unscanned(tuple):
            def __iter__(self):
                raise AssertionError("the nodes were scanned")

        tree = two_level_tree()
        # a read of root scans neither the nodes nor the parent rows
        vars(tree)["_index"] = dataclasses.replace(tree._index, up=None)
        object.__setattr__(tree, "nodes", Unscanned(tree.nodes))
        assert tree.root.id == "a" and tree.root is tree.nodes[tree._index.row["a"]]


class TestVerdictMemo:
    """A tree keeps its verdict at each tolerance; nothing it holds can change
    under that verdict, and a replaced tree works its own out."""

    def test_node_payoffs_and_matrices_are_read_only(self):
        X = np.array([1.0, 2.0])
        G = np.array([[1.0, -0.5], [-0.5, 1.0]])
        tree = two_level_tree(m=2, G=SquareMatrix(G))
        n = node("a", 0, None, 1.0, X, G=SquareMatrix(G))
        X[0], G[0, 0] = 5.0, 5.0  # the caller's arrays were copied
        assert n.X[0] == 1.0 and n.G.entries[0, 0] == 1.0
        for a in (n.X, n.G.entries, tree.G.entries, tree.root.X):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_replaced_matrix_is_validated_afresh(self, monkeypatch):
        stacks = []
        real = tree_module._classify_stack

        def counted(stack, tol):
            stacks.append(stack)
            return real(stack, tol)

        monkeypatch.setattr(tree_module, "_classify_stack", counted)
        tree = two_level_tree(m=2, G=K2)
        assert validate(tree) == [] and tree.require_valid()["a"].is_K
        small = dataclasses.replace(tree, G=SquareMatrix(1e-12 * K2.entries))
        assert small.require_valid()["a"].is_K
        assert [s[0].tolist() for s in stacks] == [
            K2.entries.tolist(),
            (1e-12 * K2.entries).tolist(),
        ]
        assert validate(dataclasses.replace(tree, G=NOT_Z)) != []
        assert validate(tree) == []

    @pytest.mark.parametrize("order", [(1e-9, 1e-6), (1e-6, 1e-9)])
    def test_each_tolerance_has_its_own_verdict(self, order):
        near = SquareMatrix(np.array([[1.0, -1.0], [-1.0, 0.99999999]]))
        tree = two_level_tree(m=2, G=near)
        seen = {tol: validate(tree, tol) for tol in order}
        for tol in order:
            assert seen[tol] == validate(tree, tol) == validate(two_level_tree(m=2, G=near), tol)
        assert seen[1e-6] == [] and any("almost-P" in p for p in seen[1e-9])

    def test_copies_stay_read_only(self):
        tree = two_level_tree(m=2, G=K2)
        tree.require_valid()
        for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            for a in (twin.G.entries, twin.root.X):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
            assert repr(twin.nodes) == repr(tree.nodes) and repr(twin.G) == repr(tree.G)
            assert twin.require_valid()["a"].is_K

    def test_verdict_cannot_be_edited_through_the_results(self):
        tree = two_level_tree(m=2, G=NOT_Z)
        validate(tree).clear()
        assert validate(tree) != []
        classes = two_level_tree(m=2, G=K2).require_valid()
        with pytest.raises(TypeError):
            classes["a"] = None


LAYOUT_ARRAYS = (
    "up", "roots", "t", "p", "sized", "X", "parent", "child", "start", "order", "col"
)


class TestLayoutMemo:
    """A tree's row index and its dates are built once and cannot be written
    to; a replaced or copied tree builds its own."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Each index built, and each index whose dates were built."""
        indexes, dated = [], []
        real = tree_module._Index.dates.func

        class Counted(tree_module._Index):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                indexes.append(self)

            @functools.cached_property
            def dates(self):
                dated.append(self)
                return real(self)

        monkeypatch.setattr(tree_module, "_Index", Counted)
        return indexes, dated

    def test_one_solve_and_one_verify_build_it_once(self, built):
        indexes, dated = built
        tree = gen_tree(0, 3, T=3, branching=2)
        sol = solve_reflected_bsde(tree)
        assert verify_bsde_solution(tree, sol) == []
        assert verify_optimal_equilibrium(tree)
        assert indexes == dated == [tree._index]
        solve_reflected_bsde(dataclasses.replace(tree))
        assert len(indexes) == len(dated) == 2 and indexes[0] is tree._index

    def test_rows_and_edges_follow_node_and_child_order(self):
        tree = two_level_tree(m=2, G=K2)
        tree.require_valid()
        ix = tree._index
        assert ix.X.tolist() == [n.X.tolist() for n in tree.nodes]
        assert ix.parent.tolist() == [0, 0, 1, 1, 2, 2]
        assert ix.child.tolist() == [1, 2, 3, 4, 5, 6]
        assert ix.start.tolist() == [0, 2, 4, 6, 6, 6, 6, 6]
        assert [(e.tolist(), r.tolist()) for e, r in ix.dates] == [
            ([0, 1], [0]),
            ([2, 3, 4, 5], [1, 2]),
        ]

    def test_arrays_are_read_only(self):
        tree = two_level_tree(m=2, G=K2)
        tree.require_valid()
        ix = tree._index
        arrays = [getattr(ix, name) for name in LAYOUT_ARRAYS]
        arrays += [a for date in ix.dates for a in date]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_copies_build_their_own(self):
        tree = two_level_tree(m=2, G=K2)
        tree.require_valid()
        ix = tree._index
        for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert "_index" not in vars(twin)
            assert twin._index is not ix and twin._index.dates is not ix.dates
            for name in LAYOUT_ARRAYS:
                a, b = getattr(twin._index, name), getattr(ix, name)
                assert a.tolist() == b.tolist() and not a.flags.writeable
            for (e, r), (f, s) in zip(twin._index.dates, ix.dates):
                assert (e.tolist(), r.tolist()) == (f.tolist(), s.tolist())
                assert not e.flags.writeable and not r.flags.writeable


class TestValidationMemory:
    def test_memory_is_bounded_by_the_slice(self):
        # 31 distinct matrices of 100 players: classified as one stack, the
        # (n, m, m) temporaries take validation to about 15 MB
        tree = gen_tree(0, 100, T=5, branching=2)
        nodes = tuple(
            n if tree.is_leaf(n) else dataclasses.replace(n, G=gen_k_matrix(i, 100))
            for i, n in enumerate(tree.nodes)
        )
        tree = ScenarioTree(T=tree.T, m=tree.m, nodes=nodes)
        tracemalloc.start()
        try:
            classes = tree.require_valid()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len({id(c) for c in classes.values()}) == 31
        assert all(c.is_K for c in classes.values())
        assert peak < 8e6

    def test_tree_of_no_players_has_no_matrix_to_classify(self):
        tree = ScenarioTree(T=0, m=0, nodes=(node("a", 0, None, 1.0, []),))
        assert validate(tree) == [] and dict(tree.require_valid()) == {}


class TestConditionalExpectation:
    def test_hand_average(self):
        nodes = (
            node("r", 0, None, 1.0, [0.0]),
            node("u", 1, "r", 0.2, [0.0]),
            node("v", 1, "r", 0.3, [0.0]),
            node("w", 1, "r", 0.5, [0.0]),
        )
        tree = ScenarioTree(T=1, m=1, nodes=nodes)
        proc = {"u": [1.0], "v": [2.0], "w": [3.0]}
        assert conditional_expectation(tree, proc, "r") == pytest.approx([2.3])

    def test_terminal_node_raises(self):
        tree = two_level_tree()
        with pytest.raises(TerminalNode):
            conditional_expectation(tree, {}, "b0")

    def test_accepts_adapted_process(self):
        tree = chain_tree([0.0, 5.0])
        proc = AdaptedProcess(values={"n1": np.array([5.0])})
        assert conditional_expectation(tree, proc, "n0") == pytest.approx([5.0])
        assert "n1" in proc and "missing" not in proc
        assert proc["n1"] == pytest.approx([5.0])

    def test_tower_property(self):
        tree = two_level_tree()
        leaves = {"b0": [1.0], "b1": [2.0], "c0": [3.0], "c1": [4.0]}
        mid = {
            "b": conditional_expectation(tree, leaves, "b"),
            "c": conditional_expectation(tree, leaves, "c"),
        }
        nested = conditional_expectation(tree, mid, "a")
        flat = sum(
            tree.node(leaf.parent).p * leaf.p * np.asarray(leaves[leaf.id])
            for leaf in tree.nodes
            if tree.is_leaf(leaf)
        )
        assert nested == pytest.approx([3.075])
        assert nested == pytest.approx(flat)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        seed=st.integers(0, 1000),
    )
    def test_linearity(self, a, b, seed):
        tree = two_level_tree(m=2)
        rng = np.random.default_rng(seed)
        y = {c.id: rng.normal(size=2) for c in tree.children("a")}
        z = {c.id: rng.normal(size=2) for c in tree.children("a")}
        combo = {k: a * y[k] + b * z[k] for k in y}
        lhs = conditional_expectation(tree, combo, "a")
        rhs = a * conditional_expectation(tree, y, "a") + b * conditional_expectation(
            tree, z, "a"
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)
