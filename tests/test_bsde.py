import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from affinegames import bsde, lcp
from affinegames.bsde import (
    BsdeSolution,
    NotKMatrix,
    solve_reflected_bsde,
    verify_bsde_solution,
)
from affinegames.cli import BUILTIN_INSTANCES, gen_tree
from affinegames.jsonio import parse_tree
from affinegames.lcp import LcpProblem, solve_lemke
from affinegames.matrices import DEFAULT_TOL, SquareMatrix, gen_k_matrix, scaled_tol
from affinegames.multi_period import backward_induction
from affinegames.redistribution import dhat_matrix
from affinegames.tree import (
    AdaptedProcess,
    ScenarioTree,
    TreeNode,
    conditional_expectation,
)

K1 = SquareMatrix(np.array([[1.0]]))


def node(nid, t, parent, p, X):
    return TreeNode(id=nid, t=t, parent=parent, p=p, X=np.asarray(X, float))


def chain(xs, G):
    m = len(np.atleast_1d(xs[0]))
    nodes = [node("n0", 0, None, 1.0, np.atleast_1d(xs[0]))]
    for t, x in enumerate(xs[1:], start=1):
        nodes.append(node(f"n{t}", t, f"n{t - 1}", 1.0, np.atleast_1d(x)))
    return ScenarioTree(T=len(xs) - 1, m=m, nodes=tuple(nodes), G=G)


def inner_nodes(tree):
    """The nodes with children, in node order."""
    return [n for n in tree.nodes if not tree.is_leaf(n)]


def edited(sol, Z=None, K=None, J=None):
    """Copy of a solution with some process values replaced."""

    def patch(proc, changes):
        vals = {k: np.array(v, dtype=float) for k, v in proc.values.items()}
        for k, v in (changes or {}).items():
            if v is None:
                del vals[k]
            else:
                vals[k] = np.asarray(v, dtype=float)
        return AdaptedProcess(values=vals)

    return BsdeSolution(
        Z=patch(sol.Z, Z),
        K=patch(sol.K, K),
        J=patch(sol.J, J),
        delta_K=dict(sol.delta_K),
    )


def lemke_sweep(tree, tol=DEFAULT_TOL):
    """Reference Z: one Lemke solve per node, latest date first. Reads only
    tree.nodes; the expected next Z adds p times each child's Z from 0, in
    child order."""
    kids, Z = {}, {}
    for n in tree.nodes:
        kids.setdefault(n.parent, []).append(n)
    for n in sorted(tree.nodes, key=lambda n: -n.t):
        if n.id not in kids:
            Z[n.id] = n.X.copy()
            continue
        p = np.zeros(tree.m)
        for c in kids[n.id]:
            p = p + c.p * Z[c.id]
        G = tree.G if n.G is None else n.G
        sol = solve_lemke(LcpProblem(q=p - n.X, M=G), tol=tol)
        assert sol is not None, n.id
        Z[n.id] = n.X + sol.w
    return Z


def alpha(rng, m, total):
    a = rng.uniform(0.5, 1.5, m)
    return a * (total / a.sum())


def own_matrices(tree, seed, which):
    """The tree with its own K or D-hat matrix at the non-terminal nodes that
    which(node index among them) selects; the rest keep the shared matrix."""
    rng = np.random.default_rng([seed, 31])
    inner = {n.id for n in inner_nodes(tree)}
    nodes, k = [], 0
    for n in tree.nodes:
        if n.id in inner:
            if which(k):
                if rng.integers(2):
                    G = gen_k_matrix(int(rng.integers(2**31)), tree.m)
                else:
                    G = dhat_matrix(alpha(rng, tree.m, rng.uniform(0.6, 0.95)))
                n = dataclasses.replace(n, G=G)
            k += 1
        nodes.append(n)
    return dataclasses.replace(tree, nodes=tuple(nodes))


def matrix_layouts(seed, m, T, branching):
    """Shared K, a matrix per node, and dates mixing own and shared matrices."""
    tree = gen_tree(seed, m, T=T, branching=branching)
    return {
        "shared": tree,
        "pernode": dataclasses.replace(own_matrices(tree, seed, lambda k: True), G=None),
        "mixed": own_matrices(tree, seed, lambda k: k % 2 == 1),
    }


# m = 1..10, T = 0..4 and branching 1..3, each value on several trees
SHAPES = [(1 + i % 10, i % 5, 1 + i % 3) for i in range(30)]


class TestSolve:
    def test_single_player_chain_hand_values(self):
        sol = solve_reflected_bsde(chain([1.0, 3.0, 2.0], K1))
        assert sol.Z["n0"] == pytest.approx([3.0])
        assert sol.Z["n1"] == pytest.approx([3.0])
        assert sol.Z["n2"] == pytest.approx([2.0])
        assert sol.K["n0"] == pytest.approx([0.0])
        assert sol.K["n1"] == pytest.approx([0.0])
        assert sol.K["n2"] == pytest.approx([1.0])
        assert sol.J["n2"] == pytest.approx([1.0])
        assert sol.delta_K["n1"] == pytest.approx([1.0])
        assert sol.delta_K["n0"] == pytest.approx([0.0])

    def test_horizon_zero(self):
        tree = ScenarioTree(T=0, m=2, nodes=(node("r", 0, None, 1.0, [1.0, -2.0]),))
        sol = solve_reflected_bsde(tree)
        assert sol.Z["r"] == pytest.approx([1.0, -2.0])
        assert sol.K["r"] == pytest.approx([0.0, 0.0])
        assert sol.delta_K == {}
        assert verify_bsde_solution(tree, sol) == []

    def test_matches_value_process(self):
        for seed in range(10):
            m = 1 + seed % 3
            tree = gen_tree(seed, m)
            sol = solve_reflected_bsde(tree)
            vp = backward_induction(tree)
            for n in tree.nodes:
                assert sol.Z[n.id] == pytest.approx(
                    vp.U[n.id], abs=1e-9
                ), (seed, n.id)

    def test_nodewise_complementarity(self):
        tree = gen_tree(5, 3)
        sol = solve_reflected_bsde(tree)
        for n in inner_nodes(tree):
            dK = sol.delta_K[n.id]
            gap = sol.Z[n.id] - n.X
            cont = sum(c.p * sol.Z[c.id] for c in tree.children(n))
            assert np.all(dK >= 0)
            assert np.all(gap >= -1e-12)
            assert float(dK @ gap) == pytest.approx(0.0, abs=1e-9)
            recon = cont + tree.effective_G(n).entries @ dK
            assert sol.Z[n.id] == pytest.approx(recon, abs=1e-9)

    @pytest.mark.parametrize("layout", ["shared", "pernode", "mixed"])
    def test_matches_lemke_sweep_and_value_process(self, layout):
        for seed, (m, T, b) in enumerate(SHAPES):
            tree = matrix_layouts(seed, m, T, b)[layout]
            if layout == "mixed" and T >= 2 and b >= 2:
                dates = {n.t for n in tree.nodes if n.G is not None}
                assert any(
                    {n.G is None for n in inner_nodes(tree) if n.t == t} == {True, False}
                    for t in dates
                )
            sol = solve_reflected_bsde(tree)
            ref = lemke_sweep(tree)
            U = backward_induction(tree).U
            tau = scaled_tol(DEFAULT_TOL, *ref.values())
            for n in tree.nodes:
                assert np.max(np.abs(sol.Z[n.id] - ref[n.id])) <= tau, (seed, n.id)
                assert np.max(np.abs(sol.Z[n.id] - U[n.id])) <= tau, (seed, n.id)
            assert verify_bsde_solution(tree, sol) == []

    def test_nearly_singular_dhat_at_200_players(self):
        # weights summing to 0.999999 make cond(G) about 1e6, where Howard
        # and Lemke may differ in z well above the tolerance; the answer is
        # judged by its residual, not by agreement with Lemke
        m = 200
        G = dhat_matrix(alpha(np.random.default_rng(0), m, 0.999999))
        assert np.linalg.cond(G.entries) > 1e6
        tree = dataclasses.replace(gen_tree(0, m, T=2, branching=2), G=G)
        sol = solve_reflected_bsde(tree)
        for n in inner_nodes(tree):
            q = conditional_expectation(tree, sol.Z, n) - n.X
            z = sol.delta_K[n.id]
            residual = np.max(np.abs(np.minimum(z, q + G.entries @ z)))
            assert residual <= scaled_tol(DEFAULT_TOL, q, G.entries), n.id
        assert verify_bsde_solution(tree, sol) == []

    def test_never_pivots(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("solve_lemke called")

        monkeypatch.setattr(lcp, "solve_lemke", boom)
        monkeypatch.setattr(bsde, "solve_lemke", boom, raising=False)
        for seed in range(3):
            tree = matrix_layouts(seed, 4, 3, 2)["mixed"]
            assert verify_bsde_solution(tree, solve_reflected_bsde(tree)) == []

    def test_memory_is_bounded_by_the_slice(self):
        # 32 non-terminal nodes of 100 players at the last date: stacked at
        # once, the (nodes, m, m) arrays alone pass 7 MB
        tree = gen_tree(0, 100, T=6, branching=2)
        solve_reflected_bsde(tree)
        tracemalloc.start()
        try:
            solve_reflected_bsde(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_unsolved_problem_names_its_node(self, monkeypatch):
        # with no solve allowed to move z from 0, a problem with a negative q
        # is left unsolved; the error names its node
        monkeypatch.setattr(bsde.np.linalg, "solve", lambda A, b: np.zeros_like(b))
        with pytest.raises(ArithmeticError, match="at node 'n1'"):
            solve_reflected_bsde(chain([1.0, 3.0, 2.0], K1))

    def test_singular_matrix_rejected(self):
        tree = parse_tree(BUILTIN_INSTANCES["paper-counterexample"])
        with pytest.raises(NotKMatrix):
            solve_reflected_bsde(tree)

    def test_missing_matrix(self):
        with pytest.raises(ValueError, match="no matrix"):
            solve_reflected_bsde(chain([0.0, 1.0], G=None))


class TestOneChildSumRule:
    """Where no reflection acts, Z at a node is the sum over its children,
    added as conditional_expectation adds them, to the last bit."""

    def test_unreflected_z_is_the_conditional_expectation(self):
        # three children a node, so a pairwise or reordered sum would differ
        for seed in range(5):
            base = gen_tree(seed, 8, T=2, branching=3)
            rng = np.random.default_rng([seed, 3])
            nodes = tuple(
                dataclasses.replace(
                    n, X=rng.uniform(1.0, 5.0, 8) if base.is_leaf(n) else np.zeros(8)
                )
                for n in base.nodes
            )
            tree = dataclasses.replace(base, nodes=nodes)
            sol = solve_reflected_bsde(tree)
            assert verify_bsde_solution(tree, sol) == []
            for n in inner_nodes(tree):
                assert not sol.delta_K[n.id].any(), (seed, n.id)
                expected = conditional_expectation(tree, sol.Z, n)
                assert sol.Z[n.id].tobytes() == expected.tobytes(), (seed, n.id)


class TestVerify:
    def make(self, seed=3, m=2):
        tree = gen_tree(seed, m)
        return tree, solve_reflected_bsde(tree)

    def test_accepts_solver_output(self):
        for seed in range(5):
            tree, sol = self.make(seed=seed, m=1 + seed % 3)
            assert verify_bsde_solution(tree, sol) == []

    def test_missing_and_misshapen_entries(self):
        tree, sol = self.make()
        gone = edited(sol, Z={"r0": None})
        assert any("missing at node 'r0'" in p for p in verify_bsde_solution(tree, gone))
        short = edited(sol, K={"r1": [1.0]})
        assert any(
            "not length 2" in p for p in verify_bsde_solution(tree, short)
        )

    def test_floor_violation(self):
        tree, sol = self.make()
        leaf = next(n for n in tree.nodes if tree.is_leaf(n))
        bad = edited(sol, Z={leaf.id: leaf.X - 1.0})
        problems = verify_bsde_solution(tree, bad)
        assert any("below the payoff floor" in p for p in problems)
        assert any("differs from the terminal payoff" in p for p in problems)

    def test_nonzero_root_ledger(self):
        tree, sol = self.make()
        problems = verify_bsde_solution(tree, edited(sol, K={"r": [1.0, 0.0]}))
        assert any("K at root" in p for p in problems)

    def test_nonzero_root_j(self):
        # one shift at every node keeps each J increment equal to G dK
        tree, sol = self.make()
        shifted = {k: v + 1.0 for k, v in sol.J.values.items()}
        problems = verify_bsde_solution(tree, edited(sol, J=shifted))
        assert problems == ["J at root 'r' is not zero"]

    def test_decreasing_reflection(self):
        chain_tree = chain([1.0, 3.0, 2.0], K1)
        sol = solve_reflected_bsde(chain_tree)
        bad = edited(sol, K={"n2": [-1.0]})
        problems = verify_bsde_solution(chain_tree, bad)
        assert any("K decreases on edge 'n1' -> 'n2'" in p for p in problems)

    def test_mismatched_j_increment(self):
        chain_tree = chain([1.0, 3.0, 2.0], K1)
        sol = solve_reflected_bsde(chain_tree)
        bad = edited(sol, K={"n2": [2.0]})
        problems = verify_bsde_solution(chain_tree, bad)
        assert any("is not G dK" in p for p in problems)

    def test_reflection_off_the_floor(self):
        chain_tree = chain([1.0, 3.0, 2.0], K1)
        sol = solve_reflected_bsde(chain_tree)
        # push reflection onto the n0 -> n1 edge although Z(n0) = 3 > 1 = X(n0);
        # keep J consistent so only the misplaced reflection and the broken
        # recursion can fire
        bad = edited(sol, K={"n1": [0.5], "n2": [1.5]}, J={"n1": [0.5], "n2": [1.5]})
        problems = verify_bsde_solution(chain_tree, bad)
        assert any("reflection acts at node 'n0'" in p for p in problems)
        assert any("backward recursion fails" in p for p in problems)

    def test_broken_recursion(self):
        chain_tree = chain([1.0, 3.0, 2.0], K1)
        sol = solve_reflected_bsde(chain_tree)
        bad = edited(sol, Z={"n0": [4.0]})
        problems = verify_bsde_solution(chain_tree, bad)
        assert any("backward recursion fails on edge 'n0' -> 'n1'" in p for p in problems)


def verify_per_edge(tree, sol, tol=DEFAULT_TOL):
    """Reference verifier: one node and one edge at a time."""
    tree.require_valid(tol)
    out = []
    for proc, name in ((sol.Z, "Z"), (sol.K, "K"), (sol.J, "J")):
        for n in tree.nodes:
            if n.id not in proc:
                out.append(f"{name} missing at node {n.id!r}")
            elif np.asarray(proc[n.id]).shape != (tree.m,):
                out.append(f"{name} at node {n.id!r} is not length {tree.m}")
    if out:
        return out
    tau = scaled_tol(
        tol, *(a for n in tree.nodes for a in (sol.Z[n.id], n.X, sol.K[n.id]))
    )
    root = tree.root
    if float(np.max(np.abs(sol.K[root.id]))) > tau:
        out.append(f"K at root {root.id!r} is not zero")
    if float(np.max(np.abs(sol.J[root.id]))) > tau:
        out.append(f"J at root {root.id!r} is not zero")
    for n in tree.nodes:
        if tree.is_leaf(n):
            if float(np.max(np.abs(sol.Z[n.id] - n.X))) > tau:
                out.append(f"Z at leaf {n.id!r} differs from the terminal payoff")
        if float(np.min(sol.Z[n.id] - n.X)) < -tau:
            out.append(f"Z at node {n.id!r} falls below the payoff floor")
    for n in inner_nodes(tree):
        G = tree.effective_G(n)
        expected = conditional_expectation(tree, sol.Z, n)
        binding = sol.Z[n.id] - n.X > tau
        for c in tree.children(n):
            dK = sol.K[c.id] - sol.K[n.id]
            if float(np.min(dK)) < -tau:
                out.append(f"K decreases on edge {n.id!r} -> {c.id!r}")
            dJ = sol.J[c.id] - sol.J[n.id]
            if float(np.max(np.abs(dJ - G.entries @ dK))) > tau:
                out.append(f"J increment on edge {n.id!r} -> {c.id!r} is not G dK")
            if float(np.max(np.abs(sol.Z[n.id] - dJ - expected))) > tau:
                out.append(f"backward recursion fails on edge {n.id!r} -> {c.id!r}")
            if float(np.sum(dK[binding])) > tau:
                out.append(f"reflection acts at node {n.id!r} where Z is off the floor")
    return out


def _shift_root_k(tree, sol, rng):
    return {"K": {tree.root.id: sol.K[tree.root.id] + 1e-3}}


def _shift_all_j(tree, sol, rng):
    return {"J": {k: v + 1e-3 for k, v in sol.J.values.items()}}


def _raise_leaf(tree, sol, rng):
    leaf = rng.choice([n for n in tree.nodes if tree.is_leaf(n)])
    return {"Z": {leaf.id: leaf.X + 1e-3}}


def _sink_below_floor(tree, sol, rng):
    n = rng.choice(tree.nodes)
    return {"Z": {n.id: n.X - 1e-3}}


def _lower_k(tree, sol, rng):
    n = rng.choice([n for n in tree.nodes if n.parent is not None])
    return {"K": {n.id: sol.K[n.id] - 1e-3}}


def _shift_j(tree, sol, rng):
    n = rng.choice([n for n in tree.nodes if n.parent is not None])
    return {"J": {n.id: sol.J[n.id] + 1e-3}}


def _raise_inner_z(tree, sol, rng):
    n = rng.choice(inner_nodes(tree))
    return {"Z": {n.id: sol.Z[n.id] + 1e-3}}


def _reflect_off_floor(tree, sol, rng):
    # reflect every player on one edge, keeping J consistent with G dK
    n = rng.choice(inner_nodes(tree))
    c = rng.choice(tree.children(n))
    step = np.full(tree.m, 1e-3)
    G = tree.effective_G(n).entries
    return {"K": {c.id: sol.K[c.id] + step}, "J": {c.id: sol.J[c.id] + G @ step}}


PERTURBATIONS = (
    _shift_root_k,
    _shift_all_j,
    _raise_leaf,
    _sink_below_floor,
    _lower_k,
    _shift_j,
    _raise_inner_z,
    _reflect_off_floor,
)
MESSAGES = (
    "K at root",
    "J at root",
    "differs from the terminal payoff",
    "below the payoff floor",
    "K decreases",
    "is not G dK",
    "backward recursion fails",
    "reflection acts",
)


class TestVerifyAgainstPerEdge:
    def trees(self):
        yield chain([1.0, 3.0, 2.0], K1)
        for seed, (m, T, b) in enumerate([(2, 2, 2), (3, 3, 2), (1, 2, 3), (4, 2, 3)]):
            yield from matrix_layouts(seed, m, T, b).values()

    def test_messages_and_order_match(self):
        seen = set()
        for k, tree in enumerate(self.trees()):
            sol = solve_reflected_bsde(tree)
            assert verify_bsde_solution(tree, sol) == verify_per_edge(tree, sol) == []
            rng = np.random.default_rng(k)
            subsets = [(p,) for p in PERTURBATIONS] + [PERTURBATIONS]
            subsets += [
                tuple(itertools.compress(PERTURBATIONS, rng.integers(2, size=8)))
                for _ in range(6)
            ]
            for subset in subsets:
                changes = {"Z": {}, "K": {}, "J": {}}
                for perturb in subset:
                    for name, values in perturb(tree, sol, rng).items():
                        changes[name].update(values)
                bad = edited(sol, **changes)
                got = verify_bsde_solution(tree, bad)
                assert got == verify_per_edge(tree, bad), (k, subset)
                seen.update(msg for msg in MESSAGES if any(msg in g for g in got))
        assert seen == set(MESSAGES)

    def test_missing_and_misshapen_match(self):
        tree = gen_tree(3, 2)
        sol = solve_reflected_bsde(tree)
        bad = edited(sol, Z={"r0": None}, K={"r1": [1.0]}, J={"r": None})
        assert verify_bsde_solution(tree, bad) == verify_per_edge(tree, bad)
