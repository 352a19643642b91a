import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames.matrices import DEFAULT_TOL, classify
from affinegames.redistribution import (
    InvalidAlpha,
    WeightSingular,
    check_alpha,
    dhat_det,
    dhat_matrix,
    grg_game,
    grg_payoff,
)
from affinegames.single_period import payoff, sol

ALPHA_HAND = [0.25, 0.25]


def random_alpha(seed, m, total):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, m)
    return a * (total / a.sum())


def exercise_weight(alpha, E, k, tol=DEFAULT_TOL):
    """Share w_k(E) of the exercised surplus charged to player k: the
    per-player oracle for grg_payoff.

    Defined for k outside E; the charge divides by 1 - sum(alpha_E).
    """
    a = check_alpha(alpha, tol)
    idx = sorted(set(int(i) for i in E))
    if any(i < 0 or i >= a.size for i in idx):
        raise ValueError("exercise set indices out of range")
    if not 0 <= k < a.size:
        raise ValueError("player index out of range")
    if k in idx:
        raise ValueError("weights apply to players outside the exercise set")
    rest = 1.0 - float(np.sum(a[idx])) if idx else 1.0
    if rest <= tol:
        raise WeightSingular(f"exercise set {idx} absorbs the full weight mass")
    return float(a[k]) / rest


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
        # the closed form of D = Dhat^{-1} that the module docstring states
        for seed in range(10):
            m = 1 + seed % 4
            alpha = random_alpha(seed, m, 0.7)
            D = np.diag(1.0 / alpha) + np.ones((m, m)) / (1.0 - alpha.sum())
            prod = D @ dhat_matrix(alpha).entries
            assert prod == pytest.approx(np.eye(m), abs=1e-10)


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
