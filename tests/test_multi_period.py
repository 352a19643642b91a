import dataclasses
import itertools
import math
import sys
import time

import numpy as np
import pytest

from affinegames.bsde import solve_reflected_bsde, verify_bsde_solution
from affinegames.cli import BUILTIN_INSTANCES, gen_tree, main
from affinegames.jsonio import dump_json, parse_tree, tree_json
from affinegames.matrices import SquareMatrix, gen_k_matrix
from affinegames import multi_period
from affinegames.multi_period import (
    EnumerationTooLarge,
    _check_budget,
    _joint_table,
    _terminal_anchor,
    HypothesisViolated,
    StoppingProfile,
    ValueProcess,
    backward_induction,
    coalition_value_tree,
    enumerate_stopping_times,
    evaluate_profile,
    naive_equilibrium_search,
    naive_evaluate_profile,
    stopping_time_count,
    verify_optimal_equilibrium,
)
from affinegames.redistribution import dhat_matrix
from affinegames.single_period import GameSpec, payoff, solve_game
from affinegames.tree import (
    AdaptedProcess,
    ScenarioTree,
    TreeNode,
    conditional_expectation,
    validate,
)

K1 = SquareMatrix(np.array([[1.0]]))
K2 = SquareMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
NEG_COLSUM_K = SquareMatrix(np.array([[1.0, -0.1], [-1.2, 1.0]]))


def node(nid, t, parent, p, X, G=None):
    return TreeNode(id=nid, t=t, parent=parent, p=p, X=np.asarray(X, float), G=G)


def chain(xs, G):
    """Deterministic path with one node per date."""
    m = len(np.atleast_1d(xs[0]))
    nodes = [node("n0", 0, None, 1.0, np.atleast_1d(xs[0]))]
    for t, x in enumerate(xs[1:], start=1):
        nodes.append(node(f"n{t}", t, f"n{t - 1}", 1.0, np.atleast_1d(x)))
    return ScenarioTree(T=len(xs) - 1, m=m, nodes=tuple(nodes), G=G)


def never(m):
    return StoppingProfile(tuple(frozenset() for _ in range(m)))


def builtin_tree():
    return parse_tree(BUILTIN_INSTANCES["paper-counterexample"])


def wide_tree():
    """Three players, T = 3, branching 3: past ENUMERATION_BUDGET."""
    return gen_tree(0, 3, T=3, branching=3)


OVER_BUDGET = r"joint stopping profiles exceed budget 1000000$"


def snell(tree):
    """Independent running-maximum recursion for one player."""
    out = {}
    for n in sorted(tree.nodes, key=lambda n: -n.t):
        if tree.is_leaf(n):
            out[n.id] = float(n.X[0])
        else:
            cont = sum(c.p * out[c.id] for c in tree.children(n))
            out[n.id] = max(float(n.X[0]), cont)
    return out


class TestBackwardInduction:
    def test_single_player_chain(self):
        tree = chain([1.0, 3.0, 2.0], K1)
        vp = backward_induction(tree)
        assert vp.U["n2"] == pytest.approx([2.0])
        assert vp.U["n1"] == pytest.approx([3.0])
        assert vp.U["n0"] == pytest.approx([3.0])
        assert vp.tau_star.stops == (frozenset({"n1"}),)

    def test_single_player_matches_running_max(self):
        for seed in range(8):
            tree = gen_tree(seed, 1)
            vp = backward_induction(tree)
            oracle = snell(tree)
            for n in tree.nodes:
                assert vp.U[n.id][0] == pytest.approx(oracle[n.id], abs=1e-12)

    def test_two_player_binding_root(self):
        tree = chain([[5.0, 0.0], [1.0, 1.0]], K2)
        vp = backward_induction(tree)
        assert vp.U["n0"] == pytest.approx([5.0, 0.0])
        assert vp.tau_star.stops == (frozenset({"n0"}), frozenset({"n0"}))

    def test_horizon_zero(self):
        tree = ScenarioTree(T=0, m=2, nodes=(node("r", 0, None, 1.0, [1.0, -1.0]),))
        vp = backward_induction(tree)
        assert vp.U["r"] == pytest.approx([1.0, -1.0])
        assert vp.tau_star.stops == (frozenset(), frozenset())

    def test_builtin_counterexample_values(self):
        vp = backward_induction(builtin_tree())
        assert vp.U["n0"] == pytest.approx([-1.0, -1.0, 2.0])
        assert vp.U["n1"] == pytest.approx([-2.0, -2.0, 4.0])
        assert vp.tau_star.stops == (
            frozenset({"n0", "n1"}),
            frozenset({"n0", "n1"}),
            frozenset({"n1"}),
        )

    def test_values_dominate_exercise_payoffs(self):
        for seed in range(6):
            tree = gen_tree(seed, 2)
            vp = backward_induction(tree)
            for n in tree.nodes:
                assert np.all(vp.U[n.id] >= n.X - 1e-9)

    def test_missing_matrix(self):
        tree = chain([0.0, 1.0], G=None)
        with pytest.raises(ValueError, match="no matrix"):
            backward_induction(tree)

    def test_invalid_tree_rejected(self):
        bad = ScenarioTree(
            T=1, m=1, nodes=(node("r", 0, None, 1.0, [0.0]),), G=K1
        )
        with pytest.raises(ValueError, match="invalid tree"):
            backward_induction(bad)

    def test_scaled_down_matrix_validates_and_solves(self):
        # The validity tests are scale invariant: 1e-12 G is still K.
        tree = gen_tree(0, 3, T=2)
        small = dataclasses.replace(tree, G=SquareMatrix(1e-12 * tree.G.entries))
        assert validate(small) == []
        vp, ref = backward_induction(small), backward_induction(tree)
        for n in tree.nodes:
            assert vp.U[n.id] == pytest.approx(ref.U[n.id], rel=1e-9, abs=1e-9), n.id
        assert verify_optimal_equilibrium(small, vp.tau_star)

    def test_per_node_override_used(self):
        slack = SquareMatrix(np.array([[10.0]]))
        nodes = (
            node("r", 0, None, 1.0, [1.0], G=slack),
            node("a", 1, "r", 1.0, [4.0]),
        )
        tree = ScenarioTree(T=1, m=1, nodes=nodes, G=K1)
        vp = backward_induction(tree)
        assert vp.U["r"] == pytest.approx([4.0])


class TestTauStar:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("per_node", [False, True])
    def test_stops_where_the_node_game_exercises(self, per_node, tol):
        stopped = 0
        for seed in range(4):
            tree = gen_tree(seed, 3, T=3, branching=2)
            if per_node:
                tree = _per_node_dhat(tree, seed)
            values = backward_induction(tree, tol=tol)
            exercised = {}
            for n in tree.nonterminal():
                stay = conditional_expectation(tree, values.U, n)
                game = GameSpec(X=n.X, P=stay, G=tree.effective_G(n))
                solution = solve_game(game, tol=tol)
                assert np.array_equal(solution.V_star, values.U[n.id])
                exercised[n.id] = solution.equilibrium.exercising
            for i, stops in enumerate(values.tau_star.stops):
                assert stops == {k for k, e in exercised.items() if i in e}
                stopped += len(stops)
        assert 0 < stopped < 4 * 3 * 7


class TestEvaluateProfile:
    def test_canonical_profile_reproduces_values_everywhere(self):
        for seed in range(6):
            tree = gen_tree(seed, 2, T=2)
            vp = backward_induction(tree)
            for n in tree.nodes:
                got = evaluate_profile(tree, vp.tau_star, node=n.id, values=vp)
                assert got == pytest.approx(vp.U[n.id], abs=1e-9), (seed, n.id)

    def test_everyone_stops_at_root(self):
        tree = gen_tree(3, 3)
        prof = StoppingProfile(tuple(frozenset({"r"}) for _ in range(3)))
        got = evaluate_profile(tree, prof)
        assert got == pytest.approx(tree.root.X)

    def test_nobody_stops_gives_expected_terminal(self):
        tree = gen_tree(4, 2)
        got = evaluate_profile(tree, never(2))
        expected = np.zeros(2)
        for n in tree.nodes:
            if tree.is_leaf(n):
                path_p = n.p
                walk = n
                while walk.parent is not None:
                    walk = tree.node(walk.parent)
                    path_p *= walk.p
                expected += path_p * n.X
        assert got == pytest.approx(expected)

    def test_unilateral_stop_hand_value(self):
        tree = builtin_tree()
        prof = StoppingProfile((frozenset({"n0"}), frozenset(), frozenset()))
        assert evaluate_profile(tree, prof) == pytest.approx([-1.0, -2.5, 3.5])

    def test_profile_entries_below_first_hit_are_inert(self):
        tree = chain([1.0, 3.0, 2.0], K1)
        first_hit = StoppingProfile((frozenset({"n0"}),))
        full_map = StoppingProfile((frozenset({"n0", "n1"}),))
        a = evaluate_profile(tree, first_hit)
        b = evaluate_profile(tree, full_map)
        assert a == pytest.approx([1.0])
        assert b == pytest.approx(a)

    def test_profile_validation(self):
        tree = chain([1.0, 2.0], K1)
        with pytest.raises(ValueError, match="players"):
            evaluate_profile(tree, never(2))
        with pytest.raises(ValueError, match="unknown nodes"):
            evaluate_profile(tree, StoppingProfile((frozenset({"zz"}),)))

    def test_single_player_naive_equals_standard(self):
        tree = gen_tree(7, 1, T=2)
        for stops in enumerate_stopping_times(tree):
            prof = StoppingProfile((stops,))
            assert naive_evaluate_profile(tree, prof) == pytest.approx(
                evaluate_profile(tree, prof), abs=1e-12
            )

    def test_naive_unilateral_stop_hand_value(self):
        tree = builtin_tree()
        prof = StoppingProfile((frozenset({"n0"}), frozenset(), frozenset()))
        assert naive_evaluate_profile(tree, prof) == pytest.approx([-1.0, 0.5, 0.5])


class TestStoppingTimeEnumeration:
    def test_chain_choices(self):
        tree = chain([1.0, 3.0, 2.0], K1)
        times = enumerate_stopping_times(tree)
        assert stopping_time_count(tree) == 3
        assert set(times) == {
            frozenset(),
            frozenset({"n0"}),
            frozenset({"n1"}),
        }

    def test_binary_counts(self):
        t2 = gen_tree(0, 1, T=2)
        t3 = gen_tree(0, 1, T=3)
        assert stopping_time_count(t2) == 5
        assert stopping_time_count(t3) == 26
        assert len(enumerate_stopping_times(t3)) == 26

    def test_times_are_antichains(self):
        tree = gen_tree(1, 1, T=3)

        def ancestors(nid):
            out = set()
            walk = tree.node(nid)
            while walk.parent is not None:
                out.add(walk.parent)
                walk = tree.node(walk.parent)
            return out

        for stops in enumerate_stopping_times(tree):
            for nid in stops:
                assert not (ancestors(nid) & stops)

    def test_unvalidated_trees(self):
        # a skipped date breaks validation but not the children-first order,
        # so the count follows the parent links; a child dated before its
        # parent is refused, whatever order the nodes are listed in
        skipped = ScenarioTree(
            T=3,
            m=1,
            nodes=(node("r", 0, None, 1.0, [0.0]), node("a", 2, "r", 1.0, [1.0])),
            G=K1,
        )
        assert validate(skipped)
        assert stopping_time_count(skipped) == 2
        assert set(enumerate_stopping_times(skipped)) == {frozenset(), frozenset({"r"})}
        early = (
            node("r", 0, None, 1.0, [0.0]),
            node("a", 2, "r", 1.0, [1.0]),
            node("b", 1, "a", 1.0, [2.0]),
        )
        for nodes in (early, early[::-1]):
            tree = ScenarioTree(T=2, m=1, nodes=nodes, G=K1)
            for count in (stopping_time_count, enumerate_stopping_times):
                with pytest.raises(ValueError, match="child of 'a' is not dated after it"):
                    count(tree)

    def test_budget_guard(self):
        with pytest.raises(EnumerationTooLarge, match=OVER_BUDGET):
            _check_budget(wide_tree())
        with pytest.raises(EnumerationTooLarge, match=OVER_BUDGET):
            verify_optimal_equilibrium(wide_tree(), never(3))


class TestVerifyOptimalEquilibrium:
    def test_canonical_profile_passes(self):
        for seed in range(4):
            tree = gen_tree(seed, 2, T=2)
            vp = backward_induction(tree)
            assert verify_optimal_equilibrium(tree, vp.tau_star)

    def test_premature_stop_fails(self):
        tree = chain([1.0, 3.0, 2.0], K1)
        assert not verify_optimal_equilibrium(
            tree, StoppingProfile((frozenset({"n0"}),))
        )
        vp = backward_induction(tree)
        assert verify_optimal_equilibrium(tree, vp.tau_star)

    def test_two_player_binding_root(self):
        tree = chain([[5.0, 0.0], [1.0, 1.0]], K2)
        vp = backward_induction(tree)
        assert verify_optimal_equilibrium(tree, vp.tau_star)


class TestCoalitionValueTree:
    def test_single_player_is_root_value(self):
        tree = gen_tree(2, 1, T=2, require_nonneg_colsums=True)
        vp = backward_induction(tree)
        assert coalition_value_tree(tree, [0]) == pytest.approx(
            float(vp.U["r"][0]), abs=1e-8
        )

    def test_additivity_against_root_values(self):
        for seed in range(3):
            tree = gen_tree(seed, 2, T=2, require_nonneg_colsums=True)
            vp = backward_induction(tree)
            root_vals = vp.U["r"]
            for A in ([0], [1], [0, 1]):
                got = coalition_value_tree(tree, A)
                assert got == pytest.approx(
                    float(sum(root_vals[i] for i in A)), abs=1e-8
                ), (seed, A)

    def test_negative_column_sum_rejected(self):
        tree = chain([[1.0, 1.0], [0.0, 0.0]], NEG_COLSUM_K)
        with pytest.raises(HypothesisViolated, match="negative column sum"):
            coalition_value_tree(tree, [0])

    def test_coalition_validation(self):
        tree = chain([[1.0, 1.0], [0.0, 0.0]], K2)
        with pytest.raises(ValueError, match="nonempty"):
            coalition_value_tree(tree, [])
        with pytest.raises(ValueError, match="out of range"):
            coalition_value_tree(tree, [5])

    def test_budget_guard(self):
        with pytest.raises(EnumerationTooLarge, match=OVER_BUDGET):
            coalition_value_tree(wide_tree(), [0])

    def test_shifted_value_process_is_reported(self, monkeypatch):
        # the root value plays no part in the joint table, so shifting it
        # leaves the enumerated value and moves only the summed target
        tree = gen_tree(0, 2, T=2, require_nonneg_colsums=True)
        real = multi_period._value_process

        def shifted(tree, classes, tol):
            vp = real(tree, classes, tol)
            U = dict(vp.U.values)
            U[tree.root.id] = U[tree.root.id] + 1.0
            return ValueProcess(U=AdaptedProcess(values=U), tau_star=vp.tau_star)

        monkeypatch.setattr(multi_period, "_value_process", shifted)
        with pytest.raises(HypothesisViolated, match="differs from summed root values"):
            coalition_value_tree(tree, [0, 1])


class TestNaiveEquilibriumSearch:
    def test_builtin_counterexample(self):
        res = naive_equilibrium_search(builtin_tree())
        assert len(res.nash_profiles) == 4
        assert len(res.distinct_nash_payoffs) == 2
        assert res.optimal_profiles == []
        got = sorted(tuple(np.round(v, 9)) for v in res.distinct_nash_payoffs)
        assert got == [(-1.0, 0.5, 0.5), (0.5, -1.0, 0.5)]

    def test_nash_payoffs_align_with_profiles(self):
        res = naive_equilibrium_search(builtin_tree())
        assert len(res.nash_payoffs) == len(res.nash_profiles)
        tree = builtin_tree()
        for prof, val in zip(res.nash_profiles, res.nash_payoffs):
            assert naive_evaluate_profile(tree, prof) == pytest.approx(val)

    def test_single_player_chain_search_is_clean(self):
        tree = chain([1.0, 3.0, 2.0], K1)
        res = naive_equilibrium_search(tree)
        vp = backward_induction(tree)
        assert len(res.distinct_nash_payoffs) == 1
        assert res.distinct_nash_payoffs[0] == pytest.approx(vp.U["n0"])
        assert res.optimal_profiles != []

    def test_budget_guard(self):
        with pytest.raises(EnumerationTooLarge, match=OVER_BUDGET):
            naive_equilibrium_search(wide_tree())


class TestProfileBasics:
    def test_replace_is_functional(self):
        prof = never(3)
        changed = prof.replace(1, frozenset({"r"}))
        assert prof.stops[1] == frozenset()
        assert changed.stops[1] == frozenset({"r"})
        assert changed.stops[0] == frozenset() and changed.stops[2] == frozenset()

    def test_normalizes_ids_to_strings(self):
        prof = StoppingProfile((frozenset({1, "a"}),))
        assert prof.stops[0] == frozenset({"1", "a"})


def loop_joint_table(tree, anchor, n=None, tol=1e-9):
    """Reference _joint_table: one payoff() call per node and exercising set."""
    n = tree.root if n is None else n
    m, kids = tree.m, tree.children(n)
    if not kids:
        return n.X.reshape((1,) * m + (m,))
    subs = [loop_joint_table(tree, anchor, c, tol) for c in kids]
    mix = np.zeros(m)
    for j, (c, sub) in enumerate(zip(kids, subs)):
        axes = [1] * len(kids)
        axes[j] = sub.shape[0]
        mix = mix + c.p * sub.reshape(tuple(axes) * m + (m,))
    rest = math.prod(sub.shape[0] for sub in subs)
    table = np.empty((1 + rest,) * m + (m,))
    table[(slice(1, None),) * m] = mix.reshape((rest,) * m + (m,))
    stay = conditional_expectation(tree, anchor, n)
    game = GameSpec(X=n.X, P=stay, G=tree.effective_G(n))
    for s in itertools.product((0, 1), repeat=m):
        if 0 in s:
            at = tuple(0 if b == 0 else slice(1, None) for b in s)
            table[at] = payoff(game, s, tol=tol).V
    return table


def _per_node_dhat(tree, seed):
    """Own D-hat matrices at the non-terminal nodes: singular (weights summing
    to one) at the root and at random elsewhere, nonsingular otherwise."""
    rng = np.random.default_rng([seed, 31])
    nodes = []
    for n in tree.nodes:
        G = None
        if tree.children(n):
            alpha = rng.uniform(0.5, 1.5, tree.m)
            total = 1.0 if n.parent is None or rng.integers(2) else 0.8
            G = dhat_matrix(alpha * (total / alpha.sum()))
        nodes.append(dataclasses.replace(n, G=G))
    return ScenarioTree(T=tree.T, m=tree.m, nodes=tuple(nodes))


class TestJointTable:
    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (2, 2, 3), (1, 3, 2)])
    def test_entries_equal_profile_evaluation(self, shape, naive):
        m, T, b = shape
        tree = gen_tree(sum(shape), m, T=T, branching=b)
        evaluate = naive_evaluate_profile if naive else evaluate_profile
        anchor = _terminal_anchor(tree) if naive else backward_induction(tree).U.values
        table = _joint_table(tree, anchor, 1e-9)
        choices = enumerate_stopping_times(tree)
        assert table.shape == (len(choices),) * m + (m,)
        for idx in itertools.product(range(len(choices)), repeat=m):
            prof = StoppingProfile(tuple(choices[k] for k in idx))
            assert np.array_equal(table[idx], evaluate(tree, prof)), idx

    @pytest.mark.parametrize(
        "m,per_node",
        [(1, False), (2, False), (2, True), (3, False), (3, True), (4, False), (4, True)],
    )
    def test_equals_one_payoff_call_per_exercising_set(self, m, per_node):
        checked = 0
        for T, b in itertools.product((1, 2, 3), (1, 2, 3)):
            tree = gen_tree(10 * T + b, m, T=T, branching=b)
            if per_node:
                tree = _per_node_dhat(tree, T + b)
            try:
                _check_budget(tree)
            except EnumerationTooLarge:
                continue
            for anchor in (backward_induction(tree).U.values, _terminal_anchor(tree)):
                table = _joint_table(tree, anchor, 1e-9)
                ref = loop_joint_table(tree, anchor)
                assert table.shape == ref.shape, (T, b)
                assert table.tobytes() == ref.tobytes(), (T, b)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("builtin", [False, True])
    @pytest.mark.parametrize(
        "name",
        ["verify_optimal_equilibrium", "coalition_value_tree", "naive_equilibrium_search"],
    )
    def test_one_payoff_table_per_node(self, monkeypatch, name, builtin):
        """The joint table takes each node's exercising sets from one stacked
        one-shot table, never from per-profile payoff() calls."""
        if builtin:
            tree = builtin_tree()
        else:
            tree = gen_tree(0, 3, T=2, require_nonneg_colsums=True)
        if name == "verify_optimal_equilibrium":
            tau_star = backward_induction(tree).tau_star
            call = lambda: verify_optimal_equilibrium(tree, tau_star)
        elif name == "coalition_value_tree":
            call = lambda: coalition_value_tree(tree, [0, 1])
        else:
            call = lambda: naive_equilibrium_search(tree)
        payoffs = _counted(monkeypatch, "affinegames.single_period", "payoff")
        tables = _counted(monkeypatch, "affinegames.single_period", "_payoff_table")
        call()
        assert len(payoffs) == 0
        assert len(tables) == len(tree.nonterminal())


def long_chain(m, length):
    G = SquareMatrix(np.eye(m) - 0.4 / max(1, m - 1) * (1 - np.eye(m)))
    xs = [np.array([float((7 * t + i) % 5) for i in range(m)]) for t in range(length)]
    return chain(xs, G)


class TestDeepTrees:
    def test_two_player_chain_exceeds_budget_cleanly(self, capsys, tmp_path, monkeypatch):
        solved = []
        for module in ("affinegames.cli", "affinegames.multi_period"):
            monkeypatch.setattr(
                f"{module}.backward_induction", lambda tree, tol: solved.append(tree)
            )
        path = tmp_path / "chain.json"
        path.write_text(dump_json(tree_json(long_chain(2, 1201))), encoding="utf-8")
        assert main(["tree-verify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceed budget" in err
        assert solved == []

    def test_one_player_chain_verifies(self):
        tree = long_chain(1, 1201)
        assert stopping_time_count(tree) == 1201
        assert verify_optimal_equilibrium(tree, backward_induction(tree).tau_star)

    def test_budget_counts_every_table(self):
        # 1001 stopping times at the root, 1001^2 < 10^6 joint profiles there,
        # but the tables below add up to about 3.3e8 entries
        tree = long_chain(2, 1000)
        started = time.perf_counter()
        with pytest.raises(EnumerationTooLarge, match="exceed budget"):
            verify_optimal_equilibrium(tree, never(2))
        assert time.perf_counter() - started < 0.5


class TestManyPlayers:
    def test_backward_induction_matches_the_reflected_equation(self):
        tree = gen_tree(3, 50, T=2, branching=2)
        vp = backward_induction(tree)
        Z = solve_reflected_bsde(tree).Z
        scale = max(1.0, max(float(np.max(np.abs(n.X))) for n in tree.nodes))
        for n in tree.nodes:
            assert float(np.max(np.abs(vp.U[n.id] - Z[n.id]))) <= 1e-9 * scale, n.id


@pytest.fixture
def classified(monkeypatch):
    """The stacks passed to _classify_stack, which every classification goes
    through (the public classify passes a one-row stack)."""
    return _counted(monkeypatch, "affinegames.matrices", "_classify_stack")


def _rows(stacks):
    """The matrices of the recorded stacks, as bytes."""
    return [a.tobytes() for stack in stacks for a in stack]


def _counted(monkeypatch, module_name, attr):
    """Record the first argument of each call to module.attr through every
    module binding of it."""
    calls = []
    real = getattr(sys.modules[module_name], attr)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "affinegames" and getattr(module, attr, None) is real:
            monkeypatch.setattr(module, attr, counted)
    return calls


def _measured_call(name, tree):
    """The named call on tree, its other inputs computed beforehand on a
    replaced copy, which starts with no verdict, so tree has not been
    validated when the call is made."""
    prep = dataclasses.replace(tree)
    if name == "verify_bsde_solution":
        solution = solve_reflected_bsde(prep)
        return lambda: verify_bsde_solution(tree, solution)
    if name in ("verify_optimal_equilibrium", "evaluate_profile"):
        tau_star = backward_induction(prep).tau_star
        call = verify_optimal_equilibrium if name == "verify_optimal_equilibrium" else evaluate_profile
        return lambda: call(tree, tau_star)
    if name == "coalition_value_tree":
        return lambda: coalition_value_tree(tree, [0, 1])
    call = backward_induction if name == "backward_induction" else solve_reflected_bsde
    return lambda: call(tree)


def _per_node_matrices(tree):
    """Own matrices at the non-terminal nodes, two of them equal in content."""
    first, second = (gen_k_matrix(s, tree.m, require_nonneg_colsums=True) for s in (1, 2))
    own = {"r": first, "r0": second, "r1": SquareMatrix(second.entries.copy())}
    nodes = tuple(dataclasses.replace(n, G=own.get(n.id)) for n in tree.nodes)
    return ScenarioTree(T=tree.T, m=tree.m, nodes=nodes)


def _reflected_and_backward(tree):
    """backward_induction, solve_reflected_bsde and verify_bsde_solution on tree."""
    backward_induction(tree)
    assert verify_bsde_solution(tree, solve_reflected_bsde(tree)) == []


class TestClassifyOncePerCall:
    """Each entry point validates its tree, classifying the distinct matrices
    together in one stack; the tree keeps that verdict, so the other entry
    points on it classify nothing more."""

    @pytest.mark.parametrize(
        "name", ["backward_induction", "solve_reflected_bsde", "verify_bsde_solution"]
    )
    def test_shared_matrix_on_a_deep_tree(self, classified, name):
        tree = gen_tree(0, 3, T=4, branching=2)
        call = _measured_call(name, tree)
        classified.clear()
        call()
        assert _rows(classified) == [tree.G.entries.tobytes()]
        _reflected_and_backward(tree)
        assert len(classified) == 1

    @pytest.mark.parametrize("per_node", [False, True])
    @pytest.mark.parametrize(
        "name",
        [
            "backward_induction",
            "solve_reflected_bsde",
            "verify_bsde_solution",
            "verify_optimal_equilibrium",
            "coalition_value_tree",
            "evaluate_profile",
        ],
    )
    def test_each_distinct_matrix_once(self, classified, name, per_node):
        tree = gen_tree(0, 3, T=2, branching=2, require_nonneg_colsums=True)
        if per_node:
            tree = _per_node_matrices(tree)
        call = _measured_call(name, tree)
        classified.clear()
        call()
        distinct = {tree.effective_G(n).entries.tobytes() for n in tree.nonterminal()}
        assert len(classified) == 1
        assert sorted(_rows(classified)) == sorted(distinct)
        assert len(distinct) == (2 if per_node else 1)
        _reflected_and_backward(tree)
        assert len(classified) == 1

    def test_tree_verify_does_its_work_once(self, classified, monkeypatch, tmp_path):
        values = _counted(monkeypatch, "affinegames.multi_period", "_value_process")
        path = tmp_path / "tree.json"
        path.write_text(dump_json(tree_json(gen_tree(0, 3, T=2))), encoding="utf-8")
        assert main(["tree-verify", "--input", str(path)]) == 0
        assert len(_rows(classified)) == 1
        assert len(values) == 1
