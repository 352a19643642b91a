import copy
import dataclasses
import gc
import itertools
import math
import pickle
import sys
import time
import tracemalloc

import numpy as np
import pytest

from affinegames.bsde import solve_reflected_bsde, verify_bsde_solution
from affinegames.cli import BUILTIN_INSTANCES, gen_tree, main
from affinegames.jsonio import dump_json, parse_tree, tree_json
from affinegames.matrices import DEFAULT_TOL, SquareMatrix, gen_k_matrix
from affinegames.normal_form import floor_mask, nash_mask
from affinegames import multi_period
from affinegames import tree as tree_module
from affinegames.multi_period import (
    EnumerationTooLarge,
    _check_budget,
    _check_profile,
    _joint_table,
    _profile_index,
    _profile_value,
    _terminal_anchor,
    HypothesisViolated,
    StoppingProfile,
    backward_induction,
    coalition_value_tree,
    evaluate_profile,
    naive_equilibrium_search,
    stopping_time_count,
    verify_optimal_equilibrium,
)
from affinegames.redistribution import dhat_matrix
from affinegames.single_period import GameSpec, _solve_classified, payoff, solve_game
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


def inner_nodes(tree):
    """The nodes with children, in node order."""
    return [n for n in tree.nodes if not tree.is_leaf(n)]


def enumerate_stopping_times(tree):
    """Every adapted single-player stopping time, as its first-stop antichain,
    in the joint table's axis order. The empty set is the never-stop-early
    time (exercise at the horizon). Reads only tree.nodes: latest date first,
    a node's children are the nodes that name it as parent, and a child dated
    no later than its parent has no choices yet."""
    kids, choices = {}, {}
    for n in tree.nodes:
        kids.setdefault(n.parent, []).append(n)
    for n in sorted(tree.nodes, key=lambda n: -n.t):
        below = kids.get(n.id, [])
        if any(c.id not in choices for c in below):
            raise ValueError(f"invalid tree: a child of {n.id!r} is not dated after it")
        per_child = [choices.pop(c.id) for c in below]
        if not per_child:
            choices[n.id] = [frozenset()]
            continue
        combos = itertools.product(*per_child)
        choices[n.id] = [frozenset({n.id})] + [frozenset().union(*c) for c in combos]
    (root,) = kids[None]
    return choices[root.id]


def naive_evaluate_profile(tree, profile, node=None, tol=DEFAULT_TOL):
    """Pathwise profile payoff with non-exercisers anchored to expected terminal
    payoffs: the oracle for the naive rule's joint table."""
    tree.require_valid(tol)
    _check_profile(tree, profile)
    return _profile_value(tree, _terminal_anchor(tree), profile, node, tol)


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
            for n in inner_nodes(tree):
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
                got = evaluate_profile(tree, vp.tau_star, node=n.id)
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

    @pytest.mark.parametrize("naive", [False, True])
    def test_one_payoff_call_per_reached_stop_node(self, monkeypatch, naive):
        # From r0, player 0 first stops at r00 and player 1 at r01. The
        # entries at r000 and r010 lie below those first hits, and r1 lies
        # outside r0's subtree: none of them is reached.
        tree = gen_tree(0, 2, T=4)
        stops = (frozenset({"r00", "r000", "r1"}), frozenset({"r01", "r010", "r1"}))
        evaluate = naive_evaluate_profile if naive else evaluate_profile
        games = _counted(monkeypatch, "affinegames.single_period", "payoff")
        evaluate(tree, StoppingProfile(stops), node="r0")
        assert sorted(game.X.tobytes() for game in games) == sorted(
            tree.node(i).X.tobytes() for i in ("r00", "r01")
        )


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


def first_stops(tree, stops):
    """The non-leaf nodes where a stop set fires, as enumerate_stopping_times
    lists the stopping time: no leaf, nothing below a first hit."""
    walk, first = [tree.root], set()
    while walk:
        n = walk.pop()
        if tree.children(n) and n.id in stops:
            first.add(n.id)
        else:
            walk.extend(tree.children(n))
    return frozenset(first)


class TestProfileIndex:
    def test_matches_the_enumeration_order(self):
        rng = np.random.default_rng(19)
        checked = 0
        for m, T, b in itertools.product((1, 2, 3), range(5), (1, 2, 3)):
            tree = gen_tree(100 * m + 10 * T + b, m, T=T, branching=b)
            if stopping_time_count(tree) > 1000:
                continue
            position = {c: k for k, c in enumerate(enumerate_stopping_times(tree))}
            ids = [n.id for n in tree.nodes]
            for _ in range(20):
                # any subset of the nodes: leaves and nodes below a first hit
                # included, which never fire
                stops = tuple(
                    frozenset(i for i in ids if rng.random() < rng.random())
                    for _ in range(m)
                )
                want = tuple(position[first_stops(tree, s)] for s in stops)
                assert _profile_index(tree, StoppingProfile(stops)) == want, (m, T, b)
            counts = multi_period._subtree_counts(tree)
            for choice in position:
                assert _profile_index(tree, StoppingProfile((choice,) * m)) == (
                    position[choice],
                ) * m
                assert multi_period._stopping_time(tree, counts, position[choice]) == choice
            checked += 1
        assert checked >= 30

    def test_one_player_tree_verifies_in_bounded_memory(self):
        # 458,330 stopping times: the profile is located without listing them
        tree = gen_tree(0, 1, T=5)
        assert stopping_time_count(tree) == 458330
        tau_star = backward_induction(tree).tau_star
        tracemalloc.start()
        try:
            assert verify_optimal_equilibrium(tree, tau_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestVerifyOptimalEquilibrium:
    def test_canonical_profile_passes(self):
        for seed in range(4):
            tree = gen_tree(seed, 2, T=2)
            vp = backward_induction(tree)
            assert verify_optimal_equilibrium(tree, vp.tau_star)
            assert verify_optimal_equilibrium(tree)

    def test_default_profile_is_tau_star(self):
        tree = chain([1.0, 3.0, 2.0], K1)
        early = StoppingProfile((frozenset({"n0"}),))
        assert backward_induction(tree).tau_star != early
        assert verify_optimal_equilibrium(tree) and not verify_optimal_equilibrium(tree, early)

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

    def test_root_only_tree(self):
        """T = 0: no node has children, so the joint table is the root's X and
        the stacked one-shot kernel gets an empty stack."""
        tree = ScenarioTree(T=0, m=2, nodes=(node("r", 0, None, 1.0, [1.0, -1.0]),), G=K2)
        assert verify_optimal_equilibrium(tree)
        res = naive_equilibrium_search(tree)
        assert [p.stops for p in res.nash_profiles] == [(frozenset(), frozenset())]
        assert res.distinct_nash_payoffs[0] == pytest.approx([1.0, -1.0])
        assert coalition_value_tree(tree, [0, 1]) == pytest.approx(0.0)


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
        real = multi_period._value_rows

        def shifted(tree, classes, tol):
            U, tau_star = real(tree, classes, tol)
            U = U.copy()
            U[tree._index.row[tree.root.id]] += 1.0
            return U, tau_star

        monkeypatch.setattr(multi_period, "_value_rows", shifted)
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

    def test_profiles_follow_the_listing(self):
        found = 0
        for seed, (m, T, b) in enumerate(((2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 2, 3), (2, 3, 2))):
            tree = gen_tree(seed, m, T=T, branching=b)
            table, tau = multi_period._tree_normal_form(tree, None, 1e-9)
            choices = enumerate_stopping_times(tree)

            def listed(mask):
                cells = np.argwhere(mask)
                return [StoppingProfile(tuple(choices[k] for k in idx)) for idx in cells]

            res = naive_equilibrium_search(tree)
            nash = nash_mask(table, tau)
            assert res.nash_profiles == listed(nash), (m, T, b)
            assert res.optimal_profiles == listed(nash & floor_mask(table, tau)), (m, T, b)
            found += len(res.nash_profiles)
        assert found >= 20

    def test_one_player_search_in_bounded_memory(self):
        # 458,330 stopping times: the Nash cells are read back without listing them
        tree = gen_tree(0, 1, T=5)
        tracemalloc.start()
        try:
            res = naive_equilibrium_search(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert len(res.distinct_nash_payoffs) == 1
        assert res.distinct_nash_payoffs[0] == pytest.approx(backward_induction(tree).U["r"])


class TestProfileBasics:
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
        anchor = _terminal_anchor(tree) if naive else tree._index.rows(backward_induction(tree).U)
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
            for anchor in (tree._index.rows(backward_induction(tree).U), _terminal_anchor(tree)):
                table = _joint_table(tree, anchor, 1e-9)
                ref = loop_joint_table(tree, tree._index.process(anchor))
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
        """The joint table takes every node's exercising sets from one call of
        the stacked one-shot kernel, holding every non-leaf node's row, never
        from per-profile payoff() calls."""
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
        tables = _counted(monkeypatch, "affinegames.single_period", "_payoff_tables")
        call()
        assert len(payoffs) == 0
        assert len(tables) == 1
        assert sorted(map(tuple, tables[0].tolist())) == sorted(
            tuple(n.X.tolist()) for n in inner_nodes(tree)
        )


class TestOneChildSumRule:
    @pytest.mark.parametrize(
        "name",
        [
            "backward_induction",
            "evaluate_profile",
            "naive_evaluate_profile",
            "verify_optimal_equilibrium",
            "coalition_value_tree",
            "naive_equilibrium_search",
            "solve_reflected_bsde",
        ],
    )
    def test_no_per_node_conditional_expectation(self, monkeypatch, name):
        """Every sum over children inside the package is a child sum of the tree's
        layout; conditional_expectation is only the public per-node form."""
        tree = gen_tree(0, 3, T=2, require_nonneg_colsums=True)
        prof = StoppingProfile((frozenset({"r0"}), frozenset(), frozenset({"r1"})))
        call = {
            "backward_induction": lambda: backward_induction(tree),
            "evaluate_profile": lambda: evaluate_profile(tree, prof),
            "naive_evaluate_profile": lambda: naive_evaluate_profile(tree, prof),
            "verify_optimal_equilibrium": lambda: verify_optimal_equilibrium(tree),
            "coalition_value_tree": lambda: coalition_value_tree(tree, [0, 1]),
            "naive_equilibrium_search": lambda: naive_equilibrium_search(tree),
            "solve_reflected_bsde": lambda: solve_reflected_bsde(tree),
        }[name]
        per_node = _counted(monkeypatch, "affinegames.tree", "conditional_expectation")
        call()
        assert per_node == []


def long_chain(m, length):
    G = SquareMatrix(np.eye(m) - 0.4 / max(1, m - 1) * (1 - np.eye(m)))
    xs = [np.array([float((7 * t + i) % 5) for i in range(m)]) for t in range(length)]
    return chain(xs, G)


def _solving(monkeypatch):
    """The calls that solve or tabulate a tree: each records its tree."""
    return [
        _counted(monkeypatch, "affinegames.multi_period", attr)
        for attr in ("_value_rows", "_joint_table", "_terminal_anchor")
    ]


class TestDeepTrees:
    def test_two_player_chain_exceeds_budget_cleanly(self, capsys, tmp_path, monkeypatch):
        solved = []
        for module in ("affinegames.cli", "affinegames.multi_period"):
            monkeypatch.setattr(
                f"{module}.backward_induction", lambda tree, tol: solved.append(tree)
            )
        work = _solving(monkeypatch)
        path = tmp_path / "chain.json"
        path.write_text(dump_json(tree_json(long_chain(2, 1201))), encoding="utf-8")
        assert main(["tree-verify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceed budget" in err
        assert solved == []
        assert [len(calls) for calls in work] == [0, 0, 0]

    @pytest.mark.parametrize(
        "name",
        [
            "tree-verify",
            "verify_optimal_equilibrium",
            "coalition_value_tree",
            "naive_equilibrium_search",
        ],
    )
    def test_refusal_comes_before_any_solve(self, capsys, tmp_path, monkeypatch, name):
        tree = wide_tree()
        work = _solving(monkeypatch)
        if name == "tree-verify":
            path = tmp_path / "wide.json"
            path.write_text(dump_json(tree_json(tree)), encoding="utf-8")
            assert main(["tree-verify", "--input", str(path)]) == 1
            assert "exceed budget" in capsys.readouterr().err
        else:
            call = {
                "verify_optimal_equilibrium": lambda: verify_optimal_equilibrium(tree, never(3)),
                "coalition_value_tree": lambda: coalition_value_tree(tree, [0]),
                "naive_equilibrium_search": lambda: naive_equilibrium_search(tree),
            }[name]
            with pytest.raises(EnumerationTooLarge, match=OVER_BUDGET):
                call()
        assert [len(calls) for calls in work] == [0, 0, 0]

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
        distinct = {tree.effective_G(n).entries.tobytes() for n in inner_nodes(tree)}
        assert len(classified) == 1
        assert sorted(_rows(classified)) == sorted(distinct)
        assert len(distinct) == (2 if per_node else 1)
        _reflected_and_backward(tree)
        assert len(classified) == 1

    def test_tree_verify_does_its_work_once(self, classified, monkeypatch, tmp_path):
        # one solve of the value process is one kernel call per date
        solves = _counted(monkeypatch, "affinegames.lcp", "_chandrasekaran_stack")
        path = tmp_path / "tree.json"
        path.write_text(dump_json(tree_json(gen_tree(0, 3, T=2))), encoding="utf-8")
        assert main(["tree-verify", "--input", str(path)]) == 0
        assert len(_rows(classified)) == 1
        assert len(solves) == 2


def _tree_verdicts(tree, tol=1e-9):
    """Every verdict read from the value process or a joint table, as
    comparable values."""
    vp = backward_induction(tree, tol=tol)
    naive = naive_equilibrium_search(tree, tol=tol)
    return (
        sorted((k, v.tobytes()) for k, v in vp.U.values.items()),
        vp.tau_star,
        evaluate_profile(tree, vp.tau_star, tol=tol).tobytes(),
        evaluate_profile(tree, never(tree.m), node=tree.root.id, tol=tol).tobytes(),
        verify_optimal_equilibrium(tree, tol=tol),
        verify_optimal_equilibrium(tree, never(tree.m), tol=tol),
        coalition_value_tree(tree, range(max(1, tree.m // 2)), tol=tol),
        naive.nash_profiles,
        [v.tobytes() for v in naive.nash_payoffs],
        [v.tobytes() for v in naive.distinct_nash_payoffs],
        naive.optimal_profiles,
    )


class TestSolveOncePerTolerance:
    """A tree solves its value process once per tolerance and builds one joint
    table per tolerance and anchor, and keeps them read-only; a replaced or
    copied tree solves its own."""

    def test_one_value_process_and_one_table_per_anchor(self, monkeypatch):
        # Backward induction solves a date's nodes in one kernel call, so one
        # solve of the value process is one kernel call per date.
        tree = gen_tree(0, 3, T=2, require_nonneg_colsums=True)
        solves = _counted(monkeypatch, "affinegames.lcp", "_chandrasekaran_stack")
        tables = _counted(monkeypatch, "affinegames.multi_period", "_joint_table")
        dates = tree.T
        _tree_verdicts(tree)
        naive_evaluate_profile(tree, never(3))
        assert (len(solves), len(tables)) == (dates, 2)
        _tree_verdicts(tree)
        assert (len(solves), len(tables)) == (dates, 2)
        _tree_verdicts(tree, tol=1e-8)
        assert (len(solves), len(tables)) == (2 * dates, 4)
        twin = dataclasses.replace(tree)
        _tree_verdicts(twin)
        assert (len(solves), len(tables)) == (3 * dates, 6)
        assert tables[-1] is twin

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_tree(0, 3, T=2, require_nonneg_colsums=True),
            lambda: _per_node_dhat(gen_tree(1, 3, T=2), 1),
            builtin_tree,
            lambda: chain([1.0, 3.0, 2.0], K1),
        ],
    )
    def test_warm_verdicts_equal_cold_ones(self, make):
        tree = make()
        cold = _tree_verdicts(make())
        assert _tree_verdicts(tree) == cold
        assert _tree_verdicts(tree) == cold

    def test_verifiers_read_the_kept_rows(self, monkeypatch):
        """tau_star and the root's values come from the kept rows; only
        backward_induction maps them by node id."""
        tree = gen_tree(0, 2, T=2, require_nonneg_colsums=True)
        built = []
        real = AdaptedProcess.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(AdaptedProcess, "__init__", counted)
        assert verify_optimal_equilibrium(tree)
        assert coalition_value_tree(tree, [0, 1]) is not None
        assert built == []
        backward_induction(tree)
        assert len(built) == 1

    def test_arrays_are_read_only(self):
        tree = gen_tree(0, 2, T=2, require_nonneg_colsums=True)
        vp = backward_induction(tree)
        root = tree.root.id
        classes = tree.require_valid()
        tables = [multi_period._tree_normal_form(tree, c, 1e-9)[0] for c in (classes, None)]
        for a in (vp.U[root], tree._values[1e-9][0], *tables):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
        kept = vp.U[root].copy()
        vp.U.values[root] = kept + 1.0  # the caller's mapping is its own
        assert np.array_equal(backward_induction(tree).U[root], kept)
        assert evaluate_profile(tree, never(2)).flags.writeable

    def test_copies_stay_read_only(self):
        tree = gen_tree(0, 2, T=2, require_nonneg_colsums=True)
        verdicts = _tree_verdicts(tree)
        for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert twin._values == {} and twin._tables == {}
            assert _tree_verdicts(twin) == verdicts
            for a in (twin._values[1e-9][0], *(t for t, _ in twin._tables.values())):
                assert not a.flags.writeable
            assert not backward_induction(twin).U[twin.root.id].flags.writeable

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: verify_optimal_equilibrium(t, never(3)),
            lambda t: coalition_value_tree(t, [0]),
            naive_equilibrium_search,
        ],
    )
    def test_budget_refusal_stores_nothing(self, call):
        tree = wide_tree()
        with pytest.raises(EnumerationTooLarge, match=OVER_BUDGET):
            call(tree)
        assert tree._values == {} and tree._tables == {}

    def test_dropping_the_tree_frees_its_table(self):
        tree = gen_tree(0, 3, T=3, require_nonneg_colsums=True)
        table_bytes = 26**3 * 3 * 8  # 26 stopping times a player at the root
        gc.collect()
        tracemalloc.start()
        try:
            before = _array_bytes()
            verify_optimal_equilibrium(tree)
            held = _array_bytes() - before
            del tree
            gc.collect()
            left = _array_bytes() - before
        finally:
            tracemalloc.stop()
        assert held >= table_bytes
        assert left < table_bytes // 10

    def test_dropping_the_tree_frees_both_tables(self):
        """Both verifiers on a per-node tree (a singular D-hat root, so each
        one-shot stack spans distinct matrices) keep the two joint tables;
        once the tree is deleted, not even one one-shot stack's worth is left."""
        tree = _per_node_dhat(gen_tree(0, 3, T=3), 1)
        table_bytes = 26**3 * 3 * 8  # 26 stopping times a player at the root
        stack_bytes = len(inner_nodes(tree)) * 2**3 * 3 * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = _array_bytes()
            verify_optimal_equilibrium(tree)
            naive_equilibrium_search(tree)
            held = _array_bytes() - before
            del tree
            gc.collect()
            left = _array_bytes() - before
        finally:
            tracemalloc.stop()
        assert held >= 2 * table_bytes
        assert left < stack_bytes // 10

    @pytest.mark.parametrize(
        "stops, dates",
        [
            ((frozenset({"r"}), frozenset({"r"})), [0]),
            ((frozenset({"r0", "r1"}), frozenset()), [0, 1]),
        ],
    )
    def test_profile_sums_over_reached_dates_only(self, monkeypatch, stops, dates):
        """One child sum of the anchor and one of the profile's values per
        reached date, over that date's edges alone."""
        tree = gen_tree(0, 2, T=4)
        backward_induction(tree)
        ix = tree._index
        summed = []
        real = tree_module._Index.child_sum

        def counted(self, values, edges=slice(None)):
            summed.append(len(self.parent[edges]))
            return real(self, values, edges)

        monkeypatch.setattr(tree_module._Index, "child_sum", counted)
        evaluate_profile(tree, StoppingProfile(stops))
        per_date = [len(ix.dates[t][0]) for t in dates]
        assert sorted(summed) == sorted(2 * per_date)


def _array_bytes():
    """The bytes of numpy array data that tracemalloc sees allocated."""
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([arrays]).traces)


def per_node_value_rows(tree, tol=DEFAULT_TOL):
    """Backward induction one node at a time: each non-terminal node's
    one-shot game on the child sum of the next date's values, solved by
    _solve_classified. The reference the stacked kernel is held to."""
    classes = tree.require_valid(tol)
    ix = tree._index
    U = ix.X.copy()
    stops = [set() for _ in range(tree.m)]
    for edges, rows in reversed(ix.dates):
        stay = ix.child_sum(U, edges)
        for i in rows.tolist():
            n = tree.nodes[i]
            game = GameSpec(X=n.X, P=stay[i], G=tree.effective_G(n))
            solution = _solve_classified(game, classes[n.id], tol)
            U[i] = solution.V_star
            for k in solution.equilibrium.exercising:
                stops[k].add(n.id)
    return U, StoppingProfile(tuple(frozenset(s) for s in stops))


def _mixed_per_node(tree, seed):
    """Own matrices at the non-terminal nodes, as in the per-node benchmark
    trees: a K-matrix, a nonsingular D-hat (weights summing to 0.8) or a
    singular one (weights summing to 1), drawn at random."""
    rng = np.random.default_rng([seed, 37])
    nodes = []
    for n in tree.nodes:
        G = None
        if tree.children(n):
            choice = int(rng.integers(3))
            if choice == 0:
                G = gen_k_matrix(int(rng.integers(2**31)), tree.m)
            else:
                alpha = rng.uniform(0.5, 1.5, tree.m)
                G = dhat_matrix(alpha * ((0.8 if choice == 1 else 1.0) / alpha.sum()))
        nodes.append(dataclasses.replace(n, G=G))
    return ScenarioTree(T=tree.T, m=tree.m, nodes=tuple(nodes))


def _equivalence_corpus():
    """Shared K-matrix trees at m = 1..10 and T = 1..6, per-node trees with K,
    D-hat and singular D-hat nodes, and the builtin counterexample."""
    for m in range(1, 11):
        for T in range(1, 7):
            yield f"shared m={m} T={T}", gen_tree(10 * m + T, m, T=T, branching=2 + (m + T) % 2 * (T < 4))
    for seed in range(24):
        m, T = 2 + seed % 7, 1 + seed % 4
        base = gen_tree(seed, m, T=T, branching=2 + seed % 2)
        yield f"mixed seed={seed}", _mixed_per_node(base, seed)
        yield f"dhat seed={seed}", _per_node_dhat(base, seed)
    yield "builtin", builtin_tree()


class TestStackedBackwardInduction:
    """Backward induction solves each date's nonsingular nodes as one stack
    through the Chandrasekaran kernel; singular P0' nodes keep the one-shot
    certificate path."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-7])
    def test_bit_identical_to_the_per_node_reference(self, tol):
        count = 0
        for label, tree in _equivalence_corpus():
            vp = backward_induction(tree, tol=tol)
            U, tau_star = per_node_value_rows(dataclasses.replace(tree), tol)
            assert tree._index.rows(vp.U).tobytes() == U.tobytes(), label
            assert vp.tau_star == tau_star, label
            count += 1
        assert count == 60 + 48 + 1

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_slices_take_their_width_from_stack_width(self, monkeypatch, width):
        tree = _mixed_per_node(gen_tree(5, 4, T=3, branching=2), 5)
        classes = tree.require_valid()
        kernel = []
        real = multi_period._chandrasekaran_stack

        def counted(q, M, tol):
            kernel.append(q)
            return real(q, M, tol)

        monkeypatch.setattr(multi_period, "_chandrasekaran_stack", counted)
        monkeypatch.setattr(multi_period, "_stack_width", lambda k: width)
        vp = backward_induction(dataclasses.replace(tree))
        per_date = [
            sum(classes[tree.nodes[i].id].is_K for i in rows.tolist())
            for _, rows in tree._index.dates
        ]
        assert [len(q) for q in kernel] == [
            min(width, k - start) for k in reversed(per_date) for start in range(0, k, width)
        ]
        monkeypatch.undo()
        assert tree._index.rows(vp.U).tobytes() == tree._index.rows(backward_induction(tree).U).tobytes()

    def test_no_game_is_built_for_a_nonsingular_node(self, monkeypatch):
        games = []

        def counted(*args, **kwargs):
            games.append(kwargs["X"].tobytes())
            return GameSpec(*args, **kwargs)

        monkeypatch.setattr(multi_period, "GameSpec", counted)
        backward_induction(gen_tree(2, 5, T=4))
        assert games == []
        tree = _mixed_per_node(gen_tree(4, 3, T=3), 4)
        classes = tree.require_valid()
        backward_induction(tree)
        singular = [n for n in inner_nodes(tree) if not classes[n.id].is_P]
        assert singular and len(singular) < len(inner_nodes(tree))
        assert sorted(games) == sorted(n.X.tobytes() for n in singular)

    @pytest.mark.parametrize("by", [0.5, 1e-3])
    def test_a_perturbed_solve_names_its_node(self, monkeypatch, by):
        from affinegames import lcp

        tree = gen_tree(7, 3, T=2)
        tree.require_valid()
        real = np.linalg.solve

        def perturbed(a, b):
            x = real(a, b)
            x[..., 0, :] += by
            return x

        monkeypatch.setattr(lcp.np.linalg, "solve", perturbed)
        with pytest.raises(ArithmeticError, match=r"at node '(r|r0|r1)' is left unsolved"):
            backward_induction(tree)
        assert tree._values == {}
