"""End-to-end acceptance checks.

Each test exercises one headline guarantee over seeded random families
and prints a single [PASS]/[FAIL] line with the observed worst case, so
the whole gate can be read off the terminal in eleven lines.
"""

import itertools
import time

import numpy as np
import pytest

from affinegames.bsde import solve_reflected_bsde, verify_bsde_solution
from affinegames.cli import BUILTIN_INSTANCES, gen_game, gen_tree
from affinegames.jsonio import parse_tree
from affinegames.lcp import LcpProblem, solvability_p0prime
from affinegames.matrices import (
    classify,
    gen_k_matrix,
    gen_p_matrix,
    positive_left_null,
    schur_reduce,
)
from affinegames.multi_period import (
    backward_induction,
    evaluate_profile,
    naive_equilibrium_search,
    verify_optimal_equilibrium,
)
from affinegames.redistribution import dhat_det, dhat_matrix, grg_game, grg_payoff
from affinegames.single_period import (
    GameSpec,
    StrategyProfile,
    coalition_value,
    enumerate_nash,
    is_optimal_equilibrium,
    payoff,
    projection_sol,
    sol,
    value,
    wuc_check,
)


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _alpha(seed, m, total):
    rng = np.random.default_rng([seed, 40503])
    a = rng.uniform(0.1, 1.0, m)
    return a * (total / a.sum())


def _snell(tree):
    out = {}
    for n in sorted(tree.nodes, key=lambda n: -n.t):
        if tree.is_leaf(n):
            out[n.id] = float(n.X[0])
        else:
            cont = sum(c.p * out[c.id] for c in tree.children(n))
            out[n.id] = max(float(n.X[0]), cont)
    return out


def test_c01_unique_payoff_across_all_equilibria(capsys):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(500):
        m = 2 + seed % 5
        spec = gen_game(seed, m, kind="p")
        target = sol(spec)
        profiles = enumerate_nash(spec)
        assert profiles, f"game {seed} has no equilibrium"
        for s in profiles:
            V = payoff(spec, s).V
            worst = max(worst, float(np.max(np.abs(V - target))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        capsys,
        "C1 unique equilibrium payoff (500 P-matrix games, m=2..6)",
        ok,
        f"max |V - sol| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_k_matrix_games_are_competitive_and_optimal(capsys):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        m = 1 + seed % 5
        spec = gen_game(seed, m, kind="k")
        assert wuc_check(spec), f"game {seed} is not weakly competitive"
        target = sol(spec)
        for s in enumerate_nash(spec):
            assert is_optimal_equilibrium(spec, s), f"game {seed}, profile {s.s}"
        val = value(spec)
        assert val is not None, f"game {seed} has no value"
        worst = max(worst, float(np.max(np.abs(val - target))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(
        capsys,
        "C2 K-matrix games: competitive, optimal, value = sol (200 games)",
        ok,
        f"max |value - sol| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_projection_characterization_on_spd_games(capsys):
    worst = 0.0
    for seed in range(200):
        m = 1 + seed % 6
        rng = np.random.default_rng([seed, 52051])
        spec = GameSpec(
            X=rng.uniform(-5.0, 5.0, m),
            P=rng.uniform(-5.0, 5.0, m),
            G=gen_p_matrix(seed, m),
        )
        diff = float(np.max(np.abs(projection_sol(spec) - sol(spec))))
        worst = max(worst, diff)
    ok = worst <= 1e-7
    _report(
        capsys,
        "C3 projected payoff equals sol (200 symmetric positive definite games)",
        ok,
        f"max |projection - sol| = {worst:.2e}",
    )


def test_c04_pivoting_preserves_the_k_class(capsys):
    checked = 0
    for seed in range(500):
        m = 2 + seed % 4
        M = gen_k_matrix(seed, m)
        for k in range(m):
            reduced = schur_reduce(M, k)
            assert classify(reduced).is_K, f"seed {seed}, pivot {k}"
            checked += 1
    _report(
        capsys,
        "C4 single pivots keep K-matrices in class (500 matrices)",
        True,
        f"{checked} reductions checked",
    )


def test_c05_singular_dichotomy_follows_the_certificate(capsys):
    mats = []
    for seed in range(40):
        m = 2 + seed % 4
        mats.append(dhat_matrix(_alpha(seed, m, 1.0)))
    mats.append(
        parse_tree(BUILTIN_INSTANCES["paper-counterexample"]).G
    )
    solvable_seen = 0
    unsolvable_seen = 0
    case = 0
    for M in mats:
        v = positive_left_null(M)
        assert v is not None, "missing certificate on a singular family member"
        rng = np.random.default_rng([case, 62683])
        for _ in range(5):
            q = rng.uniform(-3.0, 3.0, M.m)
            while abs(float(v.v @ q)) <= 1e-6:
                q = rng.uniform(-3.0, 3.0, M.m)
            outcome = solvability_p0prime(LcpProblem(q=q, M=M))
            if float(v.v @ q) > 0:
                assert outcome.solvable, f"case {case}: positive pairing, no solution"
                solvable_seen += 1
            else:
                assert not outcome.solvable, f"case {case}: negative pairing, solved"
                unsolvable_seen += 1
                X = rng.uniform(-3.0, 3.0, M.m)
                spec = GameSpec(X=X, P=X + q, G=M)
                base = payoff(spec, StrategyProfile((0,) * M.m)).V
                assert base == pytest.approx(X), "all-exercise payoff is not X"
                tau = 1e-9 * max(1.0, float(np.max(np.abs(X))))
                for k in range(M.m):
                    s = tuple(1 if i == k else 0 for i in range(M.m))
                    V = payoff(spec, StrategyProfile(s)).V
                    assert V[k] <= X[k] + tau, f"case {case}: player {k} deviates"
            case += 1
    ok = solvable_seen > 0 and unsolvable_seen > 0
    _report(
        capsys,
        "C5 singular almost-P dichotomy matches the certificate sign",
        ok,
        f"{solvable_seen} solvable, {unsolvable_seen} unsolvable with all-exercise Nash",
    )


def test_c06_coalition_values_are_additive(capsys):
    worst = 0.0
    for seed in range(100):
        if seed % 2 == 0:
            m = 1 + (seed // 2) % 4
            G = gen_k_matrix(seed, m, require_nonneg_colsums=True)
        else:
            m = 2 + (seed // 2) % 3
            G = dhat_matrix(_alpha(seed, m, 1.0))
        rng = np.random.default_rng([seed, 15733])
        spec = GameSpec(
            X=rng.uniform(-5.0, 5.0, m), P=rng.uniform(-5.0, 5.0, m), G=G
        )
        target = sol(spec)
        for r in range(1, m + 1):
            for A in itertools.combinations(range(m), r):
                got = coalition_value(spec, A)
                assert got is not None, f"game {seed}, coalition {A}"
                diff = abs(got - float(sum(target[i] for i in A)))
                worst = max(worst, diff)
    ok = worst <= 1e-8
    _report(
        capsys,
        "C6 coalition values sum the equilibrium payoffs (100 games, all coalitions)",
        ok,
        f"max additivity gap = {worst:.2e}",
    )


def test_c07_closed_form_redistribution_payoffs(capsys):
    worst = 0.0
    worst_det = 0.0
    for seed in range(200):
        m = 1 + seed % 5
        alpha = _alpha(seed, m, min(0.95, 0.2 + (seed % 16) * 0.05))
        rng = np.random.default_rng([seed, 76493])
        X = rng.uniform(-5.0, 5.0, m)
        P = rng.uniform(-5.0, 5.0, m)
        spec = grg_game(X, P, alpha)
        for s in itertools.product((0, 1), repeat=m):
            closed = grg_payoff(X, P, alpha, s)
            generic = payoff(spec, StrategyProfile(s)).V
            worst = max(worst, float(np.max(np.abs(closed - generic))))
        det = float(np.linalg.det(spec.G.entries))
        ref = dhat_det(alpha)
        worst_det = max(worst_det, abs(det - ref) / max(abs(ref), 1e-300))
    ok = worst <= 1e-10 and worst_det <= 1e-9
    _report(
        capsys,
        "C7 closed-form redistribution payoffs match the matrix game (200 triples)",
        ok,
        f"max payoff gap = {worst:.2e}, max det rel err = {worst_det:.2e}",
    )


def test_c08_canonical_stopping_profile_is_an_optimal_equilibrium(capsys):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        m = 1 + seed % 3
        T = 2 + seed % 2
        tree = gen_tree(seed, m, T=T)
        vp = backward_induction(tree)
        got = evaluate_profile(tree, vp.tau_star)
        worst = max(worst, float(np.max(np.abs(got - vp.U[tree.root.id]))))
        assert verify_optimal_equilibrium(tree, vp.tau_star), f"tree {seed}"
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(
        capsys,
        "C8 canonical stopping profile: value attained, no profitable deviation "
        "(50 trees)",
        ok,
        f"max |payoff - U(root)| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c09_reflected_backward_equation_matches_the_value_process(capsys):
    worst = 0.0
    for seed in range(50):
        m = 1 + seed % 3
        T = 2 + seed % 2
        tree = gen_tree(seed, m, T=T)
        vp = backward_induction(tree)
        zsol = solve_reflected_bsde(tree)
        for n in tree.nodes:
            worst = max(
                worst, float(np.max(np.abs(zsol.Z[n.id] - vp.U[n.id])))
            )
        problems = verify_bsde_solution(tree, zsol)
        assert problems == [], f"tree {seed}: {problems}"
    ok = worst <= 1e-9
    _report(
        capsys,
        "C9 reflected backward equation reproduces the value process (50 trees)",
        ok,
        f"max |Z - U| = {worst:.2e}",
    )


def test_c10_naive_payoff_rule_breaks_equilibrium_uniqueness(capsys):
    started = time.perf_counter()
    tree = parse_tree(BUILTIN_INSTANCES["paper-counterexample"])
    found = naive_equilibrium_search(tree)
    elapsed = time.perf_counter() - started
    ok = (
        len(found.distinct_nash_payoffs) == 2
        and len(found.optimal_profiles) == 0
        and elapsed < 1.0
    )
    _report(
        capsys,
        "C10 builtin counterexample: two equilibrium payoffs, none optimal",
        ok,
        f"{len(found.distinct_nash_payoffs)} distinct payoffs, "
        f"{len(found.optimal_profiles)} optimal, {elapsed * 1000:.0f}ms",
    )


def test_c11_single_player_values_match_the_running_maximum(capsys):
    worst = 0.0
    for seed in range(30):
        tree = gen_tree(seed, 1, T=3)
        vp = backward_induction(tree)
        oracle = _snell(tree)
        for n in tree.nodes:
            worst = max(worst, abs(float(vp.U[n.id][0]) - oracle[n.id]))
    ok = worst <= 1e-12
    _report(
        capsys,
        "C11 single-player trees reduce to the running-maximum recursion (30 trees)",
        ok,
        f"max |U - oracle| = {worst:.2e}",
    )
