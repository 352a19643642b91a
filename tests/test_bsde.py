import numpy as np
import pytest

from affinegames.bsde import (
    BsdeSolution,
    NotKMatrix,
    solve_reflected_bsde,
    verify_bsde_solution,
)
from affinegames.cli import BUILTIN_INSTANCES, gen_tree
from affinegames.jsonio import parse_tree
from affinegames.matrices import SquareMatrix
from affinegames.multi_period import backward_induction
from affinegames.tree import AdaptedProcess, ScenarioTree, TreeNode

K1 = SquareMatrix(np.array([[1.0]]))


def node(nid, t, parent, p, X):
    return TreeNode(id=nid, t=t, parent=parent, p=p, X=np.asarray(X, float))


def chain(xs, G):
    m = len(np.atleast_1d(xs[0]))
    nodes = [node("n0", 0, None, 1.0, np.atleast_1d(xs[0]))]
    for t, x in enumerate(xs[1:], start=1):
        nodes.append(node(f"n{t}", t, f"n{t - 1}", 1.0, np.atleast_1d(x)))
    return ScenarioTree(T=len(xs) - 1, m=m, nodes=tuple(nodes), G=G)


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
        for n in tree.nonterminal():
            dK = sol.delta_K[n.id]
            gap = sol.Z[n.id] - n.X
            cont = sum(c.p * sol.Z[c.id] for c in tree.children(n))
            assert np.all(dK >= 0)
            assert np.all(gap >= -1e-12)
            assert float(dK @ gap) == pytest.approx(0.0, abs=1e-9)
            recon = cont + tree.effective_G(n).entries @ dK
            assert sol.Z[n.id] == pytest.approx(recon, abs=1e-9)

    def test_singular_matrix_rejected(self):
        tree = parse_tree(BUILTIN_INSTANCES["paper-counterexample"])
        with pytest.raises(NotKMatrix):
            solve_reflected_bsde(tree)

    def test_missing_matrix(self):
        with pytest.raises(ValueError, match="no matrix"):
            solve_reflected_bsde(chain([0.0, 1.0], G=None))


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
