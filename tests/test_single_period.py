import copy
import dataclasses
import gc
import itertools
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames import lcp, matrices, single_period
from affinegames.errors import DimensionTooLarge
from affinegames.lcp import LcpProblem, solve_enum
from affinegames.cli import gen_game
from affinegames.matrices import ENUM_CAP, SquareMatrix, gen_k_matrix, gen_p_matrix
from affinegames.normal_form import distinct_payoffs, group_value, wuc_holds
from affinegames.redistribution import dhat_matrix
from affinegames.single_period import (
    ColumnSumNegative,
    GameSpec,
    NotCovered,
    NotSymmetricPD,
    SingularSubmatrix,
    StrategyProfile,
    coalition_value,
    dummy_extension,
    enumerate_nash,
    equilibrium_report,
    is_optimal_equilibrium,
    payoff,
    projection_sol,
    sol,
    solve_game,
    value,
    wuc_check,
)


def game(X, P, rows, frozen=()):
    return GameSpec(
        X=np.asarray(X, dtype=float),
        P=np.asarray(P, dtype=float),
        G=SquareMatrix(rows),
        non_exercising=frozenset(frozen),
    )


def hand_game():
    # X = (2, 0), P = (0, 3): player 1 wants out, player 2 wants to stay.
    return game([2.0, 0.0], [0.0, 3.0], [[1.0, -0.5], [-0.5, 1.0]])


def singular_game():
    return game([1.0, 1.0], [0.0, 0.0], [[1.0, -1.0], [-1.0, 1.0]])


def over_cap_game(m):
    """A fully exercisable P game one player past an enumeration cap."""
    return GameSpec(X=np.zeros(m), P=np.ones(m), G=gen_p_matrix(0, m))


def random_k_game(seed, m, nonneg=False):
    rng = np.random.default_rng([seed, 5])
    return GameSpec(
        X=rng.uniform(-5.0, 5.0, m),
        P=rng.uniform(-5.0, 5.0, m),
        G=gen_k_matrix(seed, m, require_nonneg_colsums=nonneg),
    )


class TestGameSpecValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            game([1.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])

    def test_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            game([1.0, 1.0], [0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_frozen_player_diagonal_exempt(self):
        spec = game([1.0, 1.0], [0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]], frozen=[0])
        assert spec.exercisable == (1,)

    def test_frozen_index_out_of_range(self):
        with pytest.raises(ValueError):
            game([1.0, 1.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], frozen=[2])

    def test_profile_entries(self):
        with pytest.raises(ValueError):
            StrategyProfile((0, 2))


class TestPayoff:
    def test_nobody_exercises(self):
        out = payoff(hand_game(), (1, 1))
        assert out.V == pytest.approx([0.0, 3.0])
        assert out.a == pytest.approx([0.0, 0.0])

    def test_hand_profiles(self):
        spec = hand_game()
        assert payoff(spec, (0, 1)).V == pytest.approx([2.0, 2.0])
        assert payoff(spec, (1, 0)).V == pytest.approx([1.5, 0.0])
        assert payoff(spec, (0, 0)).V == pytest.approx([2.0, 0.0])

    def test_exercisers_always_get_x(self):
        for seed in range(12):
            m = 2 + seed % 4
            spec = random_k_game(seed, m)
            for s in itertools.product((0, 1), repeat=m):
                out = payoff(spec, s)
                for i in range(m):
                    if s[i] == 0:
                        assert out.V[i] == pytest.approx(spec.X[i])

    def test_adjustment_lies_in_exercised_columns(self):
        spec = random_k_game(3, 4)
        out = payoff(spec, (0, 1, 0, 1))
        assert out.a[1] == 0.0 and out.a[3] == 0.0
        recon = spec.P + spec.G.entries @ out.a
        assert out.V == pytest.approx(recon)

    def test_all_exercise_singular_matrix(self):
        out = payoff(singular_game(), (0, 0))
        assert out.V == pytest.approx([1.0, 1.0])
        assert out.a is None

    def test_singular_proper_submatrix_raises(self):
        spec = game(
            [1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0],
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        )
        with pytest.raises(SingularSubmatrix):
            payoff(spec, (0, 0, 1))

    def test_frozen_player_cannot_exercise(self):
        spec = game([1.0, 1.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], frozen=[0])
        with pytest.raises(ValueError):
            payoff(spec, (0, 1))

    def test_profile_length_checked(self):
        with pytest.raises(ValueError):
            payoff(hand_game(), (0, 1, 1))


class TestNashAndSol:
    def test_hand_game(self):
        spec = hand_game()
        nash = enumerate_nash(spec)
        assert [p.s for p in nash] == [(0, 1)]
        assert sol(spec) == pytest.approx([2.0, 2.0])
        assert solve_game(spec).equilibrium.s == (0, 1)

    def test_singular_unsolvable_game(self):
        spec = singular_game()
        assert sol(spec) == pytest.approx([1.0, 1.0])
        assert solve_game(spec).equilibrium.s == (0, 0)
        assert any(p.s == (0, 0) for p in enumerate_nash(spec))

    def test_not_covered(self):
        with pytest.raises(NotCovered):
            sol(game([1.0, 1.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]))

    def test_frozen_players_not_covered(self):
        spec = game([1.0, 1.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], frozen=[0])
        with pytest.raises(NotCovered):
            sol(spec)

    def test_all_nash_payoffs_equal_sol(self):
        for seed in range(20):
            m = 2 + seed % 4
            spec = random_k_game(seed, m)
            want = sol(spec)
            nash = enumerate_nash(spec)
            assert nash, seed
            for p in nash:
                assert payoff(spec, p).V == pytest.approx(want, abs=1e-9), seed

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 8),
        kind=st.sampled_from(["p", "k"]),
        scale=st.sampled_from([1e-12, 1e-6, 1e6, 1e8]),
    )
    def test_sol_does_not_depend_on_the_scale_of_g(self, seed, m, kind, scale):
        # V = P + G_.E (G_EE)^-1 (X - P)_E is unchanged when G becomes sG, s > 0
        spec = gen_game(seed, m, kind)
        big = GameSpec(X=spec.X, P=spec.P, G=SquareMatrix(scale * spec.G.entries))
        want = sol(spec)
        tau = 1e-9 * max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(equilibrium_report(spec).nash_payoff - want))) <= tau
        for got in (sol(big), solve_game(big).V_star):
            assert float(np.max(np.abs(got - want))) <= tau

    def test_sol_solves_the_lcp(self):
        spec = hand_game()
        lcp_sol = solve_enum(LcpProblem(q=spec.P - spec.X, M=spec.G))
        assert sol(spec) == pytest.approx(spec.X + lcp_sol.w)

    def test_enumeration_cap(self):
        msg = r"Nash enumeration enumerates 2\^21 profiles; cap is 20"
        with pytest.raises(DimensionTooLarge, match=msg):
            enumerate_nash(over_cap_game(21))


class TestOptimalityAndWuc:
    def test_hand_game_equilibrium_is_optimal(self):
        spec = hand_game()
        assert is_optimal_equilibrium(spec, (0, 1))
        assert not is_optimal_equilibrium(spec, (1, 1))

    def test_wuc_holds_for_k_games(self):
        for seed in range(12):
            spec = random_k_game(seed, 2 + seed % 3)
            assert wuc_check(spec), seed

    def test_wuc_fails_with_positive_offdiagonal(self):
        spec = game([1.0, 1.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        assert not wuc_check(spec)

    def test_every_nash_optimal_for_k_games(self):
        for seed in range(12):
            spec = random_k_game(seed, 2 + seed % 3)
            for p in enumerate_nash(spec):
                assert is_optimal_equilibrium(spec, p), seed

    def test_wuc_indifference_must_leave_payoffs_unchanged(self):
        # player 1 gains nothing by exercising against a staying player 2,
        # but the switch moves player 2's payoff from 1 to 5
        table = np.array([[[1.0, 0.0], [1.0, 1.0]], [[1.0, 5.0], [1.0, 1.0]]])
        assert not wuc_holds(table, 1e-9)
        table[1, 0, 1] = 0.0
        assert wuc_holds(table, 1e-9)

    def test_caps(self):
        msg = r"competitiveness check enumerates 2\^13 profiles; cap is 12"
        with pytest.raises(DimensionTooLarge, match=msg):
            wuc_check(over_cap_game(13))
        msg = r"optimality check enumerates 2\^21 profiles; cap is 20"
        with pytest.raises(DimensionTooLarge, match=msg):
            is_optimal_equilibrium(over_cap_game(21), (1,) * 21)


class TestValueAndCoalitions:
    def test_value_equals_sol_for_k_games(self):
        for seed in range(12):
            spec = random_k_game(seed, 2 + seed % 3)
            v = value(spec)
            assert v is not None
            assert v == pytest.approx(sol(spec), abs=1e-9), seed

    def test_hand_coalition_values(self):
        spec = hand_game()
        assert coalition_value(spec, [0, 1]) == pytest.approx(4.0)
        assert coalition_value(spec, [0]) == pytest.approx(2.0)
        assert coalition_value(spec, [1]) == pytest.approx(2.0)

    def test_singular_game_coalitions(self):
        spec = singular_game()
        assert coalition_value(spec, [0, 1]) == pytest.approx(2.0)
        assert coalition_value(spec, [0]) == pytest.approx(1.0)

    def test_additivity_for_nonneg_colsum_k_games(self):
        for seed in range(8):
            m = 2 + seed % 3
            spec = random_k_game(seed, m, nonneg=True)
            v_star = sol(spec)
            for r in range(1, m + 1):
                for A in itertools.combinations(range(m), r):
                    got = coalition_value(spec, A)
                    assert got == pytest.approx(
                        float(sum(v_star[i] for i in A)), abs=1e-8
                    ), (seed, A)

    def test_coalition_argument_validation(self):
        spec = hand_game()
        with pytest.raises(ValueError):
            coalition_value(spec, [])
        with pytest.raises(ValueError):
            coalition_value(spec, [5])
        msg = r"coalition value enumerates 2\^13 profiles; cap is 12"
        with pytest.raises(DimensionTooLarge, match=msg):
            coalition_value(over_cap_game(13), [0])

    def test_value_cap(self):
        msg = r"value computation enumerates 2\^13 profiles; cap is 12"
        with pytest.raises(DimensionTooLarge, match=msg):
            value(over_cap_game(13))

    def test_coalition_without_value(self):
        # players 1 and 2 together are not guaranteed what they can be held to
        assert coalition_value(gen_game(25, 3, "p"), [0, 1]) is None

    def test_every_one_shot_game_has_player_values(self):
        # an exerciser's row of the table is the constant X_i, so each player's
        # sup-inf and inf-sup are both max(X_i, min stay payoff) whatever the
        # matrix class; none of these seeds draws a singular principal submatrix
        for seed in range(20):
            m = 2 + seed % 3
            rng = np.random.default_rng([seed, 5])
            rows = rng.uniform(-1.0, 1.0, (m, m))
            np.fill_diagonal(rows, rng.uniform(0.5, 1.5, m))
            spec = game(rng.uniform(-5.0, 5.0, m), rng.uniform(-5.0, 5.0, m), rows)
            v = value(spec)
            assert v.dtype == float, seed
            for i in range(m):
                stays = [
                    payoff(spec, s).V[i]
                    for s in itertools.product((0, 1), repeat=m)
                    if s[i] == 1
                ]
                assert v[i] == pytest.approx(max(spec.X[i], min(stays)), abs=1e-12), (seed, i)


class TestDummyExtension:
    def test_hand_extension_shape(self):
        ext = dummy_extension(hand_game())
        assert ext.m == 3
        assert ext.non_exercising == frozenset({0})
        assert ext.X == pytest.approx([-2.0, 2.0, 0.0])
        assert ext.P == pytest.approx([-3.0, 0.0, 3.0])
        assert ext.G.entries[:, 0] == pytest.approx([0.0, 0.0, 0.0])
        assert ext.G.entries[0, 1:] == pytest.approx([-0.5, -0.5])

    def test_zero_sum_at_every_profile(self):
        for seed in range(8):
            m = 2 + seed % 3
            spec = random_k_game(seed, m, nonneg=True)
            ext = dummy_extension(spec)
            for s in itertools.product((0, 1), repeat=m):
                out = payoff(ext, (1,) + s)
                assert float(np.sum(out.V)) == pytest.approx(0.0, abs=1e-9)
                base = payoff(spec, s)
                assert out.V[1:] == pytest.approx(base.V)

    def test_negative_column_sum_rejected(self):
        spec = game([1.0, 1.0], [0.0, 0.0], [[1.0, -2.0], [0.0, 1.0]])
        with pytest.raises(ColumnSumNegative):
            dummy_extension(spec)

    def test_extension_nash_matches_base(self):
        spec = hand_game()
        ext = dummy_extension(spec)
        base_nash = [p.s for p in enumerate_nash(spec)]
        ext_nash = [p.s for p in enumerate_nash(ext)]
        assert ext_nash == [(1,) + s for s in base_nash]


class TestProjectionSol:
    def test_hand_game(self):
        assert projection_sol(hand_game()) == pytest.approx([2.0, 2.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricPD):
            projection_sol(game([1.0, 1.0], [0.0, 0.0], [[1.0, -0.5], [-0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSymmetricPD):
            projection_sol(game([1.0, 1.0], [0.0, 0.0], [[1.0, -2.0], [-2.0, 1.0]]))

    def test_matches_sol_on_random_spd_games(self):
        # generated P-matrices, and D-hat with sum(alpha) < 1, whose payoff map
        # is a projection in the norm of D = D-hat^{-1}
        for seed in range(15):
            m = 2 + seed % 4
            rng = np.random.default_rng([seed, 9])
            X, P = rng.uniform(-5.0, 5.0, m), rng.uniform(-5.0, 5.0, m)
            alpha = rng.uniform(0.5, 1.5, m)
            alpha *= rng.uniform(0.3, 0.95) / alpha.sum()
            for G in (gen_p_matrix(seed, m), dhat_matrix(alpha)):
                spec = GameSpec(X=X, P=P, G=G)
                assert projection_sol(spec) == pytest.approx(sol(spec), abs=1e-7), seed


def test_equilibrium_report_hand_game():
    rep = equilibrium_report(hand_game())
    assert [p.s for p in rep.nash_profiles] == [(0, 1)]
    assert rep.nash_payoff == pytest.approx([2.0, 2.0])
    assert [p.s for p in rep.optimal_profiles] == [(0, 1)]
    assert rep.value == pytest.approx([2.0, 2.0])
    assert rep.wuc is True


class TestNormalFormRules:
    """One margin tau for a table; summed payoffs of a group are judged at
    tau times the group size."""

    def test_group_value_scales_with_group_size(self):
        tau = 1e-9
        gap = 1.5 * tau
        parity = np.indices((2, 2, 2)).sum(axis=0) % 2
        table = np.zeros((2, 2, 2, 3))
        table[..., 0] = gap * parity  # sup-inf 0, inf-sup gap, alone or with player 2
        assert group_value(table, [0], tau) is None
        assert group_value(table, [0, 1], tau) == 0.0

    def test_distinct_payoffs_is_one_exactly_when_all_near_the_first(self):
        tau = 1e-9
        table = np.array([[0.0], [0.6 * tau], [1.2 * tau]])
        mask = np.ones(3, dtype=bool)
        kept = distinct_payoffs(table, mask, tau)
        assert float(next(kept)[0]) == 0.0  # yielded before the scan goes on
        assert [float(v[0]) for v in kept] == [1.2 * tau]
        mask[2] = False
        assert len(list(distinct_payoffs(table, mask, tau))) == 1
        assert list(distinct_payoffs(table, np.zeros(3, dtype=bool), tau)) == []


def counting(monkeypatch, modules, name):
    """Wrap one function at each listed module binding; returns the call log."""
    calls = []
    original = getattr(modules[0], name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapped)
    return calls


class TestWorkDoneOnce:
    @pytest.mark.parametrize("make", [hand_game, singular_game])
    def test_sol_classifies_once(self, monkeypatch, make):
        calls = counting(monkeypatch, [single_period, lcp], "classify")
        sol(make())
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec", [hand_game(), dummy_extension(hand_game()), random_k_game(4, 4)]
    )
    def test_equilibrium_report_builds_one_table(self, monkeypatch, spec):
        """One one-row call of the stacked kernel, which solves every proper,
        nonempty exercising set once: the empty set's payoff is P, and when
        everyone exercises it is X."""
        tables = counting(monkeypatch, [single_period], "_payoff_tables")
        rows = counting(monkeypatch, [single_period], "_coefficients")
        equilibrium_report(spec)
        assert [len(X) for X, *_ in tables] == [1]
        f = len(spec.exercisable)
        assert sum(len(sets) for _, _, _, sets, _ in rows) == 2**f - 1 - (f == spec.m)


def loop_report(spec, tol=1e-9):
    """Profile-by-profile reference for equilibrium_report, one payoff() a profile."""
    free = spec.exercisable
    table = {}
    for bits in itertools.product((0, 1), repeat=len(free)):
        s = [1] * spec.m
        for i, b in zip(free, bits):
            s[i] = b
        table[tuple(s)] = payoff(spec, s).V
    tau = tol * max(1.0, max(float(np.max(np.abs(v))) for v in table.values()))

    def flip(s, i, b):
        return tuple(b if j == i else x for j, x in enumerate(s))

    def nash(s):
        return all(table[flip(s, i, 1 - s[i])][i] <= table[s][i] + tau for i in free)

    def floor(s):
        return all(
            table[t][k] >= table[s][k] - tau
            for k in free
            for t in table
            if t[k] == s[k]
        )

    def wuc():
        for k in free:
            for t0 in (t for t in table if t[k] == 0):
                v0, v1 = table[t0], table[flip(t0, k, 1)]
                others = [l for l in range(spec.m) if l != k]
                diff = v0[k] - v1[k]
                if diff > tau and any(v0[l] > v1[l] + tau for l in others):
                    return False
                if diff < -tau and any(v1[l] > v0[l] + tau for l in others):
                    return False
                if abs(diff) <= tau and any(abs(v0[l] - v1[l]) > tau for l in others):
                    return False
        return True

    def value():
        out = []
        for k in range(spec.m):
            rest = [i for i in range(spec.m) if i != k]
            rows, cols = {}, {}
            for t, v in table.items():
                rows.setdefault(t[k], []).append(v[k])
                cols.setdefault(tuple(t[i] for i in rest), []).append(v[k])
            lo = max(min(r) for r in rows.values())
            hi = min(max(c) for c in cols.values())
            if abs(hi - lo) > tau:
                return None
            out.append(lo)
        return out

    ne = [s for s in table if nash(s)]
    return ne, [s for s in ne if floor(s)], value(), wuc()


@pytest.mark.parametrize("seed", range(16))
def test_equilibrium_report_matches_profile_loops(seed):
    """The array engine against plain loops over profiles, exactly.

    K games, P games, dummy extensions (a frozen player) and games with
    positive off-diagonal entries, which have several Nash profiles.
    """
    m = 2 + seed % 3
    rng = np.random.default_rng([seed, 77])
    X, P = rng.uniform(-5, 5, m), rng.uniform(-5, 5, m)
    if seed % 4 == 0:
        spec = random_k_game(seed, m)
    elif seed % 4 == 1:
        spec = game(X, P, gen_p_matrix(seed, m).entries)
    elif seed % 4 == 2:
        spec = dummy_extension(random_k_game(seed, m, nonneg=True))
    else:
        spec = game(X, P, np.eye(m) + rng.uniform(0.5, 2.0, (m, m)) * (1 - np.eye(m)))
    nash, optimal, val, wuc = loop_report(spec)
    rep = equilibrium_report(spec)
    assert [p.s for p in rep.nash_profiles] == nash
    assert [p.s for p in rep.optimal_profiles] == optimal
    assert (rep.value is None) == (val is None)
    if val is not None:
        assert rep.value.tolist() == val
    assert rep.wuc is wuc


def loop_payoff(spec, s, tol=1e-9):
    """Reference payoff(): one determinant test and one solve a profile."""
    E = [i for i, b in enumerate(s) if b == 0]
    Ga, m = spec.G.entries, spec.m

    def singular(sub):
        scale = np.prod(np.max(np.abs(sub), axis=1))
        return abs(float(np.linalg.det(sub))) <= tol * scale

    if not E:
        return spec.P.copy(), np.zeros(m)
    if len(E) == m:
        if singular(Ga):
            return spec.X.copy(), None
        return spec.X.copy(), np.linalg.solve(Ga, spec.X - spec.P)
    sub = Ga[np.ix_(E, E)]
    if singular(sub):
        raise SingularSubmatrix(f"G restricted to exercising set {E} is singular")
    a = np.zeros(m)
    a[E] = np.linalg.solve(sub, (spec.X - spec.P)[E])
    V = spec.P + Ga @ a
    V[E] = spec.X[E]
    return V, a


def one_table(spec, tol=1e-9):
    """The game's payoff table as the one-row case of the stacked kernel."""
    X, P, G = spec.X[None], spec.P[None], spec.G.entries[None]
    return single_period._payoff_tables(X, P, G, tol, spec.non_exercising)[0]


def stacked_tables(specs, tol=1e-9):
    """The stacked kernel on games of one size and one frozen set."""
    stack = [np.stack(a) for a in zip(*((g.X, g.P, g.G.entries) for g in specs))]
    return single_period._payoff_tables(*stack, tol, specs[0].non_exercising)


def singular_at(m, S):
    """A game whose G is singular on the block of S, of two or three players,
    and on no smaller set: on S, 1 on the diagonal and 2 off it, but the last
    row of the block is the sum of its others."""
    G = np.eye(m)
    for i in S[:-1]:
        G[i, S] = 2.0
        G[i, i] = 1.0
    G[S[-1], S] = G[S[:-1]][:, S].sum(axis=0)
    return game(np.arange(m, dtype=float), np.zeros(m), G)


def oracle_game(seed, m, kind):
    rng = np.random.default_rng([seed, m, 41])
    X, P = rng.uniform(-5, 5, m), rng.uniform(-5, 5, m)
    if kind == "k":
        return random_k_game(seed, m)
    if kind == "p":
        return game(X, P, gen_p_matrix(seed, m).entries)
    if kind == "dummy":
        return dummy_extension(random_k_game(seed, m - 1, nonneg=True))
    return game(X, P, np.eye(m) + rng.uniform(0.5, 2.0, (m, m)) * (1 - np.eye(m)))


class TestBatchedPayoffs:
    """payoff() and the stacked table against the per-profile formula, bit for bit."""

    @pytest.mark.parametrize("kind", ["k", "p", "dummy", "positive"])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_every_profile_matches_the_loop(self, kind, m):
        for seed in range(3):
            spec = oracle_game(seed, m, kind)
            table = one_table(spec)
            for s in itertools.product((0, 1), repeat=m):
                if any(s[i] == 0 for i in spec.non_exercising):
                    continue
                V, a = loop_payoff(spec, s)
                out = payoff(spec, s)
                assert np.array_equal(out.V, V) and np.array_equal(out.a, a)
                at = tuple(0 if i in spec.non_exercising else b for i, b in enumerate(s))
                assert np.array_equal(table[at], V)

    def test_everyone_exercising_on_singular_g(self):
        spec = game([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 2.0 * np.eye(3) - 2.0 / 3.0)
        V, a = loop_payoff(spec, (0, 0, 0))
        out = payoff(spec, (0, 0, 0))
        assert a is None and out.a is None
        assert np.array_equal(out.V, V) and np.array_equal(out.V, spec.X)

    def test_singular_exercised_block_raises_in_payoff_and_table(self):
        spec = game([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(SingularSubmatrix, match=r"set \[0, 1\] is singular"):
            payoff(spec, (0, 0, 1))
        with pytest.raises(SingularSubmatrix, match=r"set \[0, 1\] is singular"):
            enumerate_nash(spec)

    def test_mixed_stack_equals_each_games_one_row_table(self):
        """K, P, positive off-diagonal and singular D-hat games in one stack:
        every game's table is its one-row table, bit for bit, and the
        singular game's all-exercise cell is X."""
        m = 4
        rng = np.random.default_rng(3)
        G = dhat_matrix([0.1, 0.2, 0.3, 0.4]).entries
        dhat = game(rng.uniform(-5, 5, m), rng.uniform(-5, 5, m), G)
        specs = [oracle_game(0, m, "k"), dhat, oracle_game(1, m, "p")]
        specs += [oracle_game(2, m, "positive")] + [oracle_game(s, m, "k") for s in range(3, 6)]
        tables = stacked_tables(specs)
        assert tables.shape == (len(specs),) + (2,) * m + (m,)
        for spec, table in zip(specs, tables):
            assert table.tobytes() == one_table(spec).tobytes()
            for s in itertools.product((0, 1), repeat=m):
                assert table[s].tobytes() == loop_payoff(spec, s)[0].tobytes()
        assert payoff(dhat, (0,) * m).a is None
        assert tables[1][(0,) * m].tobytes() == dhat.X.tobytes()

    def test_stack_of_dummy_extensions(self):
        """Games whose player 0 cannot exercise: that axis has size 1."""
        specs = [dummy_extension(random_k_game(seed, 3, nonneg=True)) for seed in range(4)]
        tables = stacked_tables(specs)
        assert tables.shape == (4, 1, 2, 2, 2, 4)
        for spec, table in zip(specs, tables):
            assert table.tobytes() == one_table(spec).tobytes()
            for s in itertools.product((0, 1), repeat=3):
                assert table[(0,) + s].tobytes() == loop_payoff(spec, (1,) + s)[0].tobytes()

    def test_a_stack_names_the_first_games_smallest_singular_set(self):
        """Game 1 is singular on [0, 1, 2] and game 3 on [0, 1], a smaller set
        that a walk by size meets first; the stack names game 1's, as a loop
        over the games would."""
        first, later = singular_at(4, [0, 1, 2]), singular_at(4, [0, 1])
        for spec, S in ((first, r"\[0, 1, 2\]"), (later, r"\[0, 1\]")):
            with pytest.raises(SingularSubmatrix, match=f"set {S} is singular"):
                one_table(spec)
        specs = [random_k_game(0, 4), first, random_k_game(1, 4), later]
        with pytest.raises(SingularSubmatrix, match=r"set \[0, 1, 2\] is singular"):
            stacked_tables(specs)
        with pytest.raises(SingularSubmatrix, match=r"set \[0, 1\] is singular"):
            stacked_tables(specs[2:] + specs[:2])

    def test_every_lapack_call_stays_within_the_stack_bound(self, monkeypatch):
        """Unbounded, the walk makes one call of each kind per proper size,
        for every game at once. A 40-entry bound still holds the six games'
        1-by-1 blocks in one call (36 entries), but cuts one game's 20 blocks
        of size 3 into calls of four, and writes the payoffs a cell at a time;
        the tables do not change."""
        m = 6
        specs = [oracle_game(seed, m, kind) for seed in range(3) for kind in ("k", "p")]
        expected = stacked_tables(specs).tobytes()
        stacks = []
        for name in ("slogdet", "solve"):
            real = getattr(np.linalg, name)

            def recorded(a, *rest, real=real, name=name):
                stacks.append((name, a.shape))
                return real(a, *rest)

            monkeypatch.setattr(np.linalg, name, recorded)
        assert stacked_tables(specs).tobytes() == expected
        assert [shape[:-2] for _, shape in stacks[::2]] == [
            (len(specs), math.comb(m, k)) for k in range(1, m)
        ]
        stacks.clear()
        monkeypatch.setattr(matrices, "_STACK_ENTRIES", 40)
        assert stacked_tables(specs).tobytes() == expected
        assert {name for name, _ in stacks} == {"slogdet", "solve"}
        assert max(math.prod(shape) for _, shape in stacks) <= 40
        shapes = [shape for _, shape in stacks]
        assert (6, 6, 1, 1) in shapes and (1, 4, 3, 3) in shapes

    def test_the_walk_never_holds_a_second_table(self):
        """The payoffs overwrite the coefficients a slice at a time, so
        building an 8 MB table (m = 16) peaks below two tables' bytes."""
        spec = random_k_game(0, 16)
        gc.collect()
        tracemalloc.start()
        try:
            table = one_table(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 2**16 * 16 * 8
        assert peak < 2 * table.nbytes


def _tables_built(monkeypatch):
    """The calls of the stacked payoff-table kernel, one entry a call: its
    number of games and its tolerance."""
    built = []
    real = single_period._payoff_tables

    def counted(X, P, G, tol, frozen=frozenset()):
        built.append((len(X), tol))
        return real(X, P, G, tol, frozen)

    for module in list(sys.modules.values()):
        if getattr(module, "_payoff_tables", None) is real:
            monkeypatch.setattr(module, "_payoff_tables", counted)
    return built


def _all_verdicts(spec, tol=1e-9):
    """Every verdict read from the payoff table, as comparable values."""
    rep = equilibrium_report(spec, tol=tol)
    canonical = StrategyProfile(tuple(1 for _ in range(spec.m)))
    return (
        [p.s for p in rep.nash_profiles],
        None if rep.nash_payoff is None else rep.nash_payoff.tobytes(),
        [p.s for p in rep.optimal_profiles],
        None if rep.value is None else rep.value.tobytes(),
        rep.wuc,
        coalition_value(spec, range(max(1, spec.m // 2)), tol=tol),
        None if (v := value(spec, tol=tol)) is None else v.tobytes(),
        wuc_check(spec, tol=tol),
        [p.s for p in enumerate_nash(spec, tol=tol)],
        is_optimal_equilibrium(spec, canonical, tol=tol),
    )


class TestNormalFormMemo:
    """A game builds its payoff table once per tolerance and keeps it,
    read-only; a replaced or copied game builds its own."""

    def test_one_table_across_every_verdict(self, monkeypatch):
        built = _tables_built(monkeypatch)
        spec = gen_game(0, 5)
        _all_verdicts(spec)
        assert built == [(1, 1e-9)]
        _all_verdicts(spec, tol=1e-6)
        assert built == [(1, 1e-9), (1, 1e-6)]
        twin = dataclasses.replace(spec)
        coalition_value(twin, [0, 1])
        assert built[2:] == [(1, 1e-9)] and list(twin._tables) == [1e-9]
        _all_verdicts(spec)
        _all_verdicts(twin)
        assert len(built) == 3

    @pytest.mark.parametrize(
        "spec",
        [gen_game(3, 4), gen_game(4, 6, kind="k"), dummy_extension(hand_game()), singular_game()],
    )
    def test_warm_verdicts_equal_cold_ones(self, spec):
        cold = _all_verdicts(dataclasses.replace(spec))
        assert _all_verdicts(spec) == cold
        assert _all_verdicts(spec) == cold
        if not spec.non_exercising:
            assert sol(spec).tobytes() == sol(dataclasses.replace(spec)).tobytes()

    def test_arrays_are_read_only(self):
        X, P = np.array([2.0, 0.0]), np.array([0.0, 3.0])
        spec = GameSpec(X=X, P=P, G=hand_game().G)
        X[0], P[0] = 9.0, 9.0  # the caller's arrays were copied
        assert spec.X.tolist() == [2.0, 0.0] and spec.P.tolist() == [0.0, 3.0]
        table, _ = single_period._normal_form(spec, ENUM_CAP, "test", 1e-9)
        for a in (spec.X, spec.P, table):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert equilibrium_report(spec).nash_payoff.flags.writeable

    def test_copies_stay_read_only(self):
        spec = gen_game(1, 4)
        verdicts = _all_verdicts(spec)
        for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin._tables == {}
            for a in (twin.X, twin.P, twin.G.entries):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
            assert _all_verdicts(twin) == verdicts
            table, _ = twin._tables[1e-9]
            assert not table.flags.writeable

    def test_refusals_store_nothing(self):
        spec = over_cap_game(13)
        for check in (value, wuc_check, lambda s: coalition_value(s, [0])):
            with pytest.raises(DimensionTooLarge, match="cap is 12"):
                check(spec)
        assert spec._tables == {}
        bad = game([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(SingularSubmatrix):
            enumerate_nash(bad)
        assert bad._tables == {}

    def test_dropping_the_game_frees_its_table(self):
        spec = gen_game(2, 12)
        table_bytes = 2**12 * 12 * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = _array_bytes()
            coalition_value(spec, [0, 1])
            held = _array_bytes() - before
            del spec
            gc.collect()
            left = _array_bytes() - before
        finally:
            tracemalloc.stop()
        assert held >= table_bytes
        assert left < table_bytes // 10


def _array_bytes():
    """The bytes of numpy array data that tracemalloc sees allocated."""
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([arrays]).traces)
