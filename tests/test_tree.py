import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames.matrices import SquareMatrix
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
