import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames.matrices import classify
from affinegames.redistribution import (
    InvalidAlpha,
    WeightSingular,
    check_alpha,
    d_inner_product,
    d_matrix,
    dhat_det,
    dhat_matrix,
    exercise_weight,
    grg_game,
    grg_payoff,
)
from affinegames.single_period import payoff, sol

ALPHA_HAND = [0.25, 0.25]


def random_alpha(seed, m, total):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, m)
    return a * (total / a.sum())


class TestAlphaValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [0.0, 0.5],
            [-0.1, 0.5],
            [0.6, 0.6],
            [np.nan, 0.1],
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(InvalidAlpha):
            check_alpha(bad)

    def test_sum_exactly_one_accepted(self):
        assert check_alpha([0.5, 0.5]) == pytest.approx([0.5, 0.5])


class TestDhat:
    def test_hand_matrix(self):
        got = dhat_matrix(ALPHA_HAND)
        assert got.entries == pytest.approx(
            np.array([[3 / 16, -1 / 16], [-1 / 16, 3 / 16]])
        )

    def test_hand_determinant(self):
        assert dhat_det(ALPHA_HAND) == pytest.approx(1 / 32)
        got = dhat_matrix(ALPHA_HAND)
        assert float(np.linalg.det(got.entries)) == pytest.approx(1 / 32)

    def test_class_depends_on_total_mass(self):
        partial = classify(dhat_matrix(random_alpha(1, 3, 0.8)))
        assert partial.is_K
        full = classify(dhat_matrix(random_alpha(1, 3, 1.0)))
        assert full.is_K0prime and not full.is_P

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 6))
    def test_determinant_closed_form(self, seed, m):
        alpha = random_alpha(seed, m, 0.9)
        numeric = float(np.linalg.det(dhat_matrix(alpha).entries))
        assert numeric == pytest.approx(dhat_det(alpha), rel=1e-9, abs=1e-300)


class TestDMatrix:
    def test_inverts_dhat(self):
        for seed in range(10):
            m = 1 + seed % 4
            alpha = random_alpha(seed, m, 0.7)
            prod = d_matrix(alpha).entries @ dhat_matrix(alpha).entries
            assert prod == pytest.approx(np.eye(m), abs=1e-10)

    def test_singular_total_rejected(self):
        with pytest.raises(WeightSingular):
            d_matrix([0.5, 0.5])

    def test_inner_product_hand_value(self):
        # e1^T D e1 = 1/alpha_1 + 1/(1 - sum) = 4 + 2
        assert d_inner_product([1, 0], [1, 0], ALPHA_HAND) == pytest.approx(6.0)

    def test_inner_product_matches_matrix(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            m = 1 + seed % 4
            alpha = random_alpha(seed, m, 0.6)
            x = rng.uniform(-2.0, 2.0, m)
            y = rng.uniform(-2.0, 2.0, m)
            direct = float(x @ d_matrix(alpha).entries @ y)
            assert d_inner_product(x, y, alpha) == pytest.approx(direct, abs=1e-9)

    def test_inner_product_singular_total(self):
        with pytest.raises(WeightSingular):
            d_inner_product([1.0, 0.0], [1.0, 0.0], [0.5, 0.5])


class TestExerciseWeight:
    def test_hand_value(self):
        assert exercise_weight(ALPHA_HAND, [0], 1) == pytest.approx(1 / 3)

    def test_empty_set_gives_alpha(self):
        assert exercise_weight(ALPHA_HAND, [], 0) == pytest.approx(0.25)

    def test_member_rejected(self):
        with pytest.raises(ValueError):
            exercise_weight(ALPHA_HAND, [0], 0)


class TestGrgPayoff:
    def test_hand_profile(self):
        got = grg_payoff([2.0, 0.0], [0.0, 3.0], ALPHA_HAND, (0, 1))
        assert got == pytest.approx([2.0, 7 / 3])

    def test_nobody_exercises(self):
        got = grg_payoff([2.0, 0.0], [0.0, 3.0], ALPHA_HAND, (1, 1))
        assert got == pytest.approx([0.0, 3.0])

    def test_everyone_exercises(self):
        got = grg_payoff([2.0, 0.0], [0.0, 3.0], ALPHA_HAND, (0, 0))
        assert got == pytest.approx([2.0, 0.0])

    def test_matches_matrix_game_on_all_profiles(self):
        rng = np.random.default_rng(23)
        for seed in range(12):
            m = 1 + seed % 5
            alpha = random_alpha(seed, m, float(rng.uniform(0.3, 0.95)))
            X = rng.uniform(-5.0, 5.0, m)
            P = rng.uniform(-5.0, 5.0, m)
            spec = grg_game(X, P, alpha)
            for s in itertools.product((0, 1), repeat=m):
                closed = grg_payoff(X, P, alpha, s)
                generic = payoff(spec, s).V
                assert closed == pytest.approx(generic, abs=1e-10), (seed, s)

    def test_matches_per_player_weights_bit_for_bit(self):
        # each staying player's share, w_k(E) times the surplus, one at a time
        rng = np.random.default_rng(31)
        for seed in range(40):
            m = 1 + seed % 6
            alpha = random_alpha(seed, m, (0.3, 0.9, 1.0)[seed % 3])
            X = rng.uniform(-5.0, 5.0, m)
            P = rng.uniform(-5.0, 5.0, m)
            for s in itertools.product((0, 1), repeat=m):
                E = [i for i in range(m) if s[i] == 0]
                want = P.copy()
                surplus = float(np.sum((X - P)[E]))
                for k in range(m):
                    if s[k] == 0:
                        want[k] = X[k]
                    elif E:
                        want[k] = P[k] - exercise_weight(alpha, E, k) * surplus
                got = grg_payoff(X, P, alpha, s)
                assert got.tobytes() == want.tobytes(), (seed, s)

    def test_full_weight_mass_refused_only_when_someone_stays(self):
        alpha = [1.0 - 5e-10, 1.2e-9]
        with pytest.raises(WeightSingular, match=r"exercise set \[0\] absorbs the full"):
            grg_payoff([1.0, 2.0], [0.0, 0.0], alpha, (0, 1))
        assert grg_payoff([1.0, 2.0], [0.0, 0.0], alpha, (0, 0)).tolist() == [1.0, 2.0]

    def test_payoff_lengths_must_match_alpha(self):
        for X, P in (([1.0], [0.0, 0.0]), ([1.0, 0.0], [0.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="X and P must match alpha in length"):
                grg_payoff(X, P, ALPHA_HAND, (0, 1))
            with pytest.raises(ValueError, match="X and P must match alpha in length"):
                grg_game(X, P, ALPHA_HAND)

    def test_full_mass_alpha_still_evaluates(self):
        # sum(alpha) = 1 keeps every proper exercise set well defined
        got = grg_payoff([1.0, 1.0], [0.0, 0.0], [0.5, 0.5], (0, 1))
        assert got == pytest.approx([1.0, -1.0])

    def test_equilibrium_payoff_of_hand_instance(self):
        spec = grg_game([2.0, 0.0], [0.0, 3.0], ALPHA_HAND)
        assert sol(spec) == pytest.approx([2.0, 7 / 3])
