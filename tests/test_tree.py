import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames import tree as tree_module
from affinegames.cli import gen_tree
from affinegames.matrices import SquareMatrix, gen_k_matrix
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
        assert sorted(n.id for n in tree.nonterminal()) == ["a", "b", "c"]

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
