import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinegames import lcp as lcp_module
from affinegames.lcp import (
    CertificateUnavailable,
    CycleLimit,
    LcpProblem,
    LcpSolution,
    _is_spd,
    project_quadratic,
    solvability_p0prime,
    solve_chandrasekaran,
    solve_enum,
    solve_lemke,
)
from affinegames.matrices import SquareMatrix, gen_k_matrix, gen_p_matrix, scaled_tol
from affinegames.redistribution import dhat_matrix


def lcp(q, rows):
    return LcpProblem(q=np.asarray(q, dtype=float), M=SquareMatrix(rows))


HAND = lcp([-2.0, 3.0], [[1.0, -0.5], [-0.5, 1.0]])
SINGULAR = [[1.0, -1.0], [-1.0, 1.0]]


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        lcp([1.0, 2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        lcp([np.inf, 0.0], [[1.0, 0.0], [0.0, 1.0]])


class TestSolveEnum:
    def test_hand_instance(self):
        sol = solve_enum(HAND)
        assert sol.z == pytest.approx([2.0, 0.0])
        assert sol.w == pytest.approx([0.0, 2.0])
        assert sol.support == (0,)

    def test_nonnegative_q_is_trivial(self):
        sol = solve_enum(lcp([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]))
        assert sol.z == pytest.approx([0.0, 0.0])
        assert sol.w == pytest.approx([1.0, 2.0])
        assert sol.support == ()

    def test_singular_solvable(self):
        sol = solve_enum(lcp([1.0, -1.0], SINGULAR))
        assert sol.z == pytest.approx([0.0, 1.0])
        assert sol.w == pytest.approx([0.0, 0.0])

    def test_no_solution(self):
        assert solve_enum(lcp([-1.0, -1.0], [[-1.0, 0.0], [0.0, -1.0]])) is None

    def test_cap(self):
        from affinegames.errors import DimensionTooLarge

        big = lcp([-1.0] + [1.0] * 20, np.eye(21))
        with pytest.raises(DimensionTooLarge, match="cap is 20"):
            solve_enum(big)


def loop_enum(problem, tol=1e-9):
    """Reference solve_enum: one determinant test and one solve a support."""
    q, Ma, m = problem.q, problem.M.entries, problem.m
    tau = scaled_tol(tol, q, Ma)
    if float(np.min(q)) >= -tau:
        return np.zeros(m), q.copy()
    for k in range(1, m + 1):
        for idx in map(list, itertools.combinations(range(m), k)):
            sub = Ma[np.ix_(idx, idx)]
            scale = np.prod(np.max(np.abs(sub), axis=1))
            if abs(float(np.linalg.det(sub))) <= tol * scale:
                continue
            z_s = np.linalg.solve(sub, -q[idx])
            if float(np.min(z_s)) < -tau:
                continue
            z = np.zeros(m)
            z[idx] = z_s
            w = q + Ma @ z
            off = np.setdiff1d(np.arange(m), idx)
            if off.size and float(np.min(w[off])) < -tau:
                continue
            return np.where(z < 0.0, 0.0, z), np.where(w < 0.0, 0.0, w)
    return None


def oracle_problem(seed, m, kind):
    """P, K and positive off-diagonal matrices; a negated P-matrix, which has
    no solution for q < 0; and a matrix whose block on {0, 1} is singular."""
    rng = np.random.default_rng([seed, m, 23])
    q = rng.uniform(-5.0, 5.0, m)
    if kind == "p":
        return LcpProblem(q=q, M=gen_p_matrix(seed, m))
    if kind == "k":
        return LcpProblem(q=q, M=gen_k_matrix(seed, m))
    if kind == "none":
        return LcpProblem(q=-np.abs(q) - 0.1, M=SquareMatrix(-gen_p_matrix(seed, m).entries))
    a = np.eye(m) + rng.uniform(0.5, 2.0, (m, m)) * (1 - np.eye(m))
    if kind == "singular" and m > 1:
        a[1], a[:, 1] = a[0], a[:, 0]
    return LcpProblem(q=q, M=SquareMatrix(a))


class TestBatchedEnumeration:
    """The stacked solve_enum against the loop over supports, bit for bit."""

    @pytest.mark.parametrize("kind", ["p", "k", "positive", "none", "singular"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_same_support_z_and_w(self, kind, m):
        for seed in range(4):
            problem = oracle_problem(seed, m, kind)
            ref, got = loop_enum(problem), solve_enum(problem)
            assert (got is None) == (ref is None) == (kind == "none"), (kind, m, seed)
            if ref is not None:
                z, w = ref
                assert got.support == tuple(int(i) for i in np.flatnonzero(z > 0.0))
                assert np.array_equal(got.z, z) and np.array_equal(got.w, w)

    def test_unsolvable_walk_keeps_its_memory_bounded(self):
        problem = LcpProblem(q=-np.ones(17), M=SquareMatrix(-gen_p_matrix(0, 17).entries))
        tracemalloc.start()
        try:
            assert solve_enum(problem) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def z_problem(seed, m, kind):
    """A seeded LCP on a K-matrix, a D-hat with weights summing to 0.9 (K),
    or a D-hat with weights summing to 1 (singular K0')."""
    rng = np.random.default_rng([seed, m, 11])
    q = rng.uniform(-5.0, 5.0, m)
    if kind == "k":
        return LcpProblem(q=q, M=gen_k_matrix(seed, m))
    w = rng.uniform(0.5, 1.5, m)
    return LcpProblem(q=q, M=dhat_matrix((0.9 if kind == "dhat-0.9" else 1.0) * w / w.sum()))


class TestSolveChandrasekaran:
    def test_hand_instance(self):
        sol = solve_chandrasekaran(HAND)
        assert sol.z == pytest.approx([2.0, 0.0])
        assert sol.w == pytest.approx([0.0, 2.0])
        assert sol.support == (0,)

    def test_nonnegative_q_is_trivial(self):
        sol = solve_chandrasekaran(lcp([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]))
        assert sol.support == () and sol.w == pytest.approx([1.0, 2.0])

    def test_singular_branches(self):
        sol = solve_chandrasekaran(lcp([-1.0, 1.0], SINGULAR))
        assert sol.z == pytest.approx([1.0, 0.0]) and sol.w == pytest.approx([0.0, 0.0])
        # no solution: the support would have to be all of a singular matrix
        assert solve_chandrasekaran(lcp([-1.0, -1.0], SINGULAR)) is None

    def test_negative_iterate_gives_none(self):
        assert solve_chandrasekaran(lcp([-1.0, -1.0], [[-1.0, 0.0], [0.0, -1.0]])) is None

    def test_large_k_matrix(self):
        problem = z_problem(0, 200, "k")
        sol, ref = solve_chandrasekaran(problem), solve_lemke(problem)
        tau = scaled_tol(1e-9, problem.q, problem.M.entries)
        assert float(np.min(sol.z)) >= 0.0 and float(np.min(sol.w)) >= 0.0
        assert abs(float(sol.z @ sol.w)) <= tau
        assert float(np.max(np.abs(sol.z - ref.z))) <= tau
        assert float(np.max(np.abs(sol.w - ref.w))) <= tau

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 10),
        kind=st.sampled_from(["k", "dhat-0.9", "dhat"]),
    )
    def test_agrees_with_enumeration(self, seed, m, kind):
        problem = z_problem(seed, m, kind)
        a, b = solve_chandrasekaran(problem), solve_enum(problem)
        if kind == "dhat":  # singular: either may miss a boundary solution
            if a is None or b is None:
                return
        assert a is not None and b is not None
        tau = scaled_tol(1e-9, problem.q, problem.M.entries)
        assert float(np.max(np.abs(a.w - b.w))) <= tau
        if kind != "dhat":  # z is unique only for a nonsingular matrix
            assert float(np.max(np.abs(a.z - b.z))) <= tau
        if a.support == b.support:
            assert np.array_equal(a.z, b.z) and np.array_equal(a.w, b.w)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 10),
        kind=st.sampled_from(["k", "dhat-0.9"]),
    )
    def test_agrees_with_lemke(self, seed, m, kind):
        problem = z_problem(seed, m, kind)
        a, b = solve_chandrasekaran(problem), solve_lemke(problem)
        tau = scaled_tol(1e-9, problem.q, problem.M.entries)
        assert float(np.max(np.abs(a.z - b.z))) <= tau
        assert float(np.max(np.abs(a.w - b.w))) <= tau


def _perturbed_solve(real, by):
    """np.linalg.solve whose answer is off by `by` in its first entry."""

    def solve(a, b):
        x = real(a, b)
        x[..., 0, :] += by
        return x

    return solve


class TestChandrasekaranStack:
    """The stacked kernel: each row is solved as solve_chandrasekaran, its
    one-row case, solves it alone, and every answer is checked."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 8),
        kinds=st.lists(st.sampled_from(["k", "dhat-0.9", "dhat"]), min_size=1, max_size=12),
    )
    def test_each_row_is_its_one_row_case(self, seed, m, kinds):
        problems = [z_problem(seed + j, m, kind) for j, kind in enumerate(kinds)]
        q = np.stack([p.q for p in problems])
        M = np.stack([p.M.entries for p in problems])
        z, w, solved = lcp_module._chandrasekaran_stack(q, M, 1e-9)
        for row, problem in enumerate(problems):
            alone = solve_chandrasekaran(problem)
            assert bool(solved[row]) is (alone is not None)
            if alone is not None:
                assert z[row].tobytes() == alone.z.tobytes()
                assert w[row].tobytes() == alone.w.tobytes()

    def test_one_row_case_is_solve_chandrasekaran(self):
        problem = z_problem(3, 6, "k")
        z, w, solved = lcp_module._chandrasekaran_stack(problem.q[None], problem.M.entries[None], 1e-9)
        sol = solve_chandrasekaran(problem)
        assert solved.tolist() == [True]
        assert (z[0].tobytes(), w[0].tobytes()) == (sol.z.tobytes(), sol.w.tobytes())
        assert sol.support == tuple(np.flatnonzero(z[0] > 0.0).tolist())

    @pytest.mark.parametrize("by", [0.5, -0.5, 1e-3])
    def test_a_perturbed_solve_is_refused(self, monkeypatch, by):
        problems = [z_problem(seed, 4, "k") for seed in range(20)]
        moved = [bool(solve_chandrasekaran(p).support) for p in problems]
        assert any(moved)
        monkeypatch.setattr(lcp_module.np.linalg, "solve", _perturbed_solve(np.linalg.solve, by))
        # a problem solved at the empty support makes no solve to perturb
        assert [solve_chandrasekaran(p) is None for p in problems] == moved

    def test_a_negative_w_on_the_support_is_refused(self, monkeypatch):
        # z^T w = 2e-10 stays within tau * sum|z| = 2e-9 here, so only the
        # test w >= -tau refuses the answer (w = (1e-5, -1e-5))
        real = np.linalg.solve

        def tilted(a, b):
            x = real(a, b)
            x[..., :, 0] += [1e-5, -1e-5]
            return x

        problem = lcp([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]])
        assert solve_chandrasekaran(problem).support == (0, 1)
        monkeypatch.setattr(lcp_module.np.linalg, "solve", tilted)
        assert solve_chandrasekaran(problem) is None

    def test_complementarity_is_checked_per_unit_of_z(self):
        # 1e-12 times a K-matrix: z is about 1e12, and what rounding leaves in
        # w on the support makes z^T w far above tau, but not tau * sum|z|
        problem = z_problem(0, 3, "k")
        small = LcpProblem(q=problem.q, M=SquareMatrix(1e-12 * problem.M.entries))
        sol = solve_chandrasekaran(small)
        assert sol is not None and sol.support == solve_chandrasekaran(problem).support
        assert float(np.max(sol.z)) > 1e11


class TestSolveLemke:
    def test_hand_instance(self):
        sol = solve_lemke(HAND)
        assert sol.z == pytest.approx([2.0, 0.0])
        assert sol.w == pytest.approx([0.0, 2.0])

    def test_nonnegative_q_short_circuits(self):
        sol = solve_lemke(lcp([0.5, 0.0], [[1.0, 0.0], [0.0, 1.0]]))
        assert sol.z == pytest.approx([0.0, 0.0])

    def test_ray_termination(self):
        assert solve_lemke(lcp([-1.0, -1.0], [[-1.0, 0.0], [0.0, -1.0]])) is None

    def test_pivot_budget(self, monkeypatch):
        # this instance needs five complementary pivots
        M = gen_p_matrix(13, 4)
        q = np.random.default_rng([13, 4, 5]).uniform(-5.0, 5.0, 4)
        problem = LcpProblem(q=q, M=M)
        monkeypatch.setattr(lcp_module, "_pivot_budget", lambda m: 2)
        with pytest.raises(CycleLimit):
            solve_lemke(problem)
        monkeypatch.setattr(lcp_module, "_pivot_budget", lambda m: 5)
        assert solve_lemke(problem) is not None

    def test_agrees_with_enumeration_on_p_matrices(self):
        rng = np.random.default_rng(42)
        for seed in range(60):
            m = 2 + seed % 5
            M = gen_p_matrix(seed, m) if seed % 2 else gen_k_matrix(seed, m)
            q = rng.uniform(-5.0, 5.0, m)
            problem = LcpProblem(q=q, M=M)
            a = solve_enum(problem)
            b = solve_lemke(problem)
            assert a is not None and b is not None, seed
            assert a.z == pytest.approx(b.z, abs=1e-8), seed
            assert a.w == pytest.approx(b.w, abs=1e-8), seed

    def test_solution_satisfies_complementarity(self):
        rng = np.random.default_rng(7)
        for seed in range(30):
            m = 2 + seed % 6
            problem = LcpProblem(q=rng.uniform(-3.0, 3.0, m), M=gen_k_matrix(seed, m))
            sol = solve_lemke(problem)
            assert sol is not None
            assert float(np.min(sol.z)) >= 0.0
            assert float(np.min(sol.w)) >= 0.0
            assert abs(float(sol.z @ sol.w)) < 1e-8
            residual = sol.w - problem.q - problem.M.entries @ sol.z
            assert float(np.max(np.abs(residual))) < 1e-8


class TestSolvabilityDichotomy:
    def test_nonsingular_is_always_solvable(self):
        out = solvability_p0prime(HAND)
        assert out.solvable and out.certificate is None
        assert out.solution.z == pytest.approx([2.0, 0.0])

    def test_singular_solvable_branch(self):
        out = solvability_p0prime(lcp([1.0, -1.0], SINGULAR))
        assert out.solvable
        assert out.certificate is not None  # v^T q = 0 sits on the boundary
        assert out.solution.w == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_singular_unsolvable_branch(self):
        out = solvability_p0prime(lcp([-1.0, -1.0], SINGULAR))
        assert not out.solvable
        assert out.solution is None
        assert out.certificate.v == pytest.approx([1.0, 1.0])

    def test_boundary_with_opposite_sign_pattern(self):
        out = solvability_p0prime(lcp([-1.0, 1.0], SINGULAR))
        assert out.solvable
        assert out.solution.z == pytest.approx([1.0, 0.0])

    def test_rejects_outside_class(self):
        with pytest.raises(ValueError):
            solvability_p0prime(lcp([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]))

    def test_branch_matches_certificate_sign(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            m = 2 + trial % 3
            alpha = rng.uniform(0.1, 1.0, m)
            alpha = alpha / alpha.sum()  # sum exactly one: singular instance
            dhat = SquareMatrix(np.diag(alpha) - np.outer(alpha, alpha))
            q = rng.uniform(-2.0, 2.0, m)
            vq = float(np.ones(m) @ (q / 1.0))  # v is all ones up to scale
            if abs(vq) < 1e-6:
                continue
            out = solvability_p0prime(LcpProblem(q=q, M=dhat))
            assert out.solvable == (vq > 0), trial


    def test_z_matrices_beyond_the_enumeration_cap(self):
        out = solvability_p0prime(z_problem(1, 40, "k"))
        assert out.solvable and out.certificate is None
        problem = z_problem(1, 40, "dhat")
        out = solvability_p0prime(problem)
        assert out.certificate is not None
        assert out.solvable == (float(np.sum(problem.q)) > 0)


def test_certificate_unavailable_error_exists():
    assert issubclass(CertificateUnavailable, Exception)


class TestProjectQuadratic:
    def test_identity_clamps(self):
        x = project_quadratic(np.eye(2), np.array([-1.0, 2.0]), np.zeros(2))
        assert x == pytest.approx([0.0, 2.0])

    def test_interior_returns_target(self):
        x = project_quadratic(np.eye(3), np.ones(3), np.zeros(3))
        assert x == pytest.approx([1.0, 1.0, 1.0])

    def test_hand_game_projection(self):
        G = np.array([[1.0, -0.5], [-0.5, 1.0]])
        x = project_quadratic(
            np.linalg.inv(G), np.array([0.0, 3.0]), np.array([2.0, 0.0])
        )
        assert x == pytest.approx([2.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 6))
    def test_kkt_conditions(self, seed, m):
        rng = np.random.default_rng(seed)
        Q = gen_p_matrix(seed, m).entries
        v = rng.uniform(-3.0, 3.0, m)
        lower = rng.uniform(-3.0, 3.0, m)
        x = project_quadratic(Q, v, lower)
        grad = Q @ (x - v)
        assert float(np.min(x - lower)) >= -1e-8
        for i in range(m):
            if x[i] > lower[i] + 1e-7:
                assert abs(grad[i]) < 1e-6, (i, grad)
            else:
                assert grad[i] > -1e-6, (i, grad)


# verify_projection_characterization's variational check: how many points it
# samples in the orthant, and from which seed.
PROJECTION_SAMPLES = 32
PROJECTION_SEED = 0


def verify_projection_characterization(
    problem: LcpProblem,
    sol: LcpSolution,
    tol: float = 1e-7,
) -> bool:
    """Check a solution against the projection identities.

    (b) z is the Euclidean projection of z - w onto the nonnegative orthant;
    (c) w^T (y - z) >= 0 for y = 0 and PROJECTION_SAMPLES seeded y >= 0; and
    for symmetric positive definite M, z and w are the Q-norm projections of
    -M^{-1} q and q onto the orthant (Q = M and Q = M^{-1} respectively),
    recomputed here with the active-set minimizer as an independent oracle.
    """
    q, Ma = problem.q, problem.M.entries
    z, w = sol.z, sol.w
    tau = scaled_tol(tol, z, w)

    if float(np.max(np.abs(z - np.maximum(z - w, 0.0)))) > tau:
        return False

    rng = np.random.default_rng(PROJECTION_SEED)
    high = 1.0 + 2.0 * float(np.max(np.abs(z)))
    ys = rng.uniform(0.0, high, size=(PROJECTION_SAMPLES, len(z)))
    ys = np.vstack([ys, np.zeros(len(z))])
    vi_tau = tol * max(1.0, float(np.max(np.abs(w))) * max(1.0, float(np.max(ys))))
    if float(np.min(ys @ w - float(w @ z))) < -vi_tau:
        return False

    if _is_spd(Ma, tol):
        z_hat = project_quadratic(Ma, -np.linalg.solve(Ma, q), np.zeros(len(z)), tol=tol)
        if float(np.max(np.abs(z_hat - z))) > tau:
            return False
        w_hat = project_quadratic(np.linalg.inv(Ma), q, np.zeros(len(z)), tol=tol)
        if float(np.max(np.abs(w_hat - w))) > tau:
            return False
    return True


class TestVerifyProjection:
    def test_accepts_true_solutions(self):
        for seed in range(20):
            m = 2 + seed % 4
            rng = np.random.default_rng(seed)
            problem = LcpProblem(q=rng.uniform(-4.0, 4.0, m), M=gen_p_matrix(seed, m))
            sol = solve_enum(problem)
            assert verify_projection_characterization(problem, sol)

    def test_rejects_tampered_solutions(self):
        sol = solve_enum(HAND)
        bad = type(sol)(z=sol.z + 0.5, w=sol.w, support=sol.support)
        assert not verify_projection_characterization(HAND, bad)

    def test_rejects_variational_violation(self):
        # w_2 = -5e-5 is within the projection check's tolerance, scaled by
        # z_1 = 1000, but the sampled points y >= 0 drive w^T (y - z) below 0
        problem = lcp([-1000.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        z, w = np.array([1000.0, 0.0]), np.array([0.0, -5e-5])
        assert float(np.max(np.abs(z - np.maximum(z - w, 0.0)))) <= scaled_tol(1e-7, z, w)
        bad = LcpSolution(z=z, w=w, support=(0,))
        assert not verify_projection_characterization(problem, bad)

    def test_rejects_wrong_projections(self):
        # both tampered solutions are complementary and nonnegative, so only
        # the Q-norm projections of an SPD matrix can tell them apart
        problem = lcp([-1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        good = LcpSolution(z=np.array([1.0, 0.0]), w=np.array([0.0, 1.0]), support=(0,))
        assert verify_projection_characterization(problem, good)
        wrong_z = LcpSolution(z=np.array([2.0, 0.0]), w=good.w, support=(0,))
        assert not verify_projection_characterization(problem, wrong_z)
        wrong_w = LcpSolution(z=good.z, w=np.array([0.0, 2.0]), support=(0,))
        assert not verify_projection_characterization(problem, wrong_w)
