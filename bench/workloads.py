"""The benchmark's workloads: seeded inputs, the pipeline each instance runs
through the package, and the correctness gate every answer must pass.

Every workload is a stream of rounds. A round holds a fixed recipe of
instance shapes (one tree per player count, say) in a seeded order, and
each instance's numbers come from its own seed derived from the workload
seed, the round and the slot. Rounds therefore carry the same mix of
sizes for every seed, which keeps medians comparable across seeds.

Each gate compares two independent paths through the package, or checks
an answer against its defining conditions from outside the package.
``self_test`` shows for every gate that it passes a real answer and
rejects a deliberately perturbed one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from affinegames import bsde, jsonio, multi_period, single_period
from affinegames.cli import BUILTIN_INSTANCES, gen_game, gen_tree
from affinegames.matrices import DEFAULT_TOL, gen_k_matrix
from affinegames.multi_period import StoppingProfile

TOL = DEFAULT_TOL
TREE_T = 4
TREE_BRANCHING = 2
TREE_M = (6, 7, 8, 9, 10)
# Nine instances a round, so the median and the 75th percentile fall inside
# a size class rather than on the boundary between two.
GAMES = ((8, "p"), (9, "p"), (9, "k"), (10, "p"), (10, "k"))
# (m, T, branching, run the naive search). The naive search costs 0.8-3 s at
# (4, 2, 3), depending on how many Nash profiles the tree has; that spread
# would swamp the workload's figures, so it runs on the smaller shapes only.
SMALL_TREES = ((4, 2, 2, True), (3, 2, 3, True), (4, 2, 3, False))


@dataclass(frozen=True)
class Instance:
    kind: str  # "tree", "game", "small-tree" or "counterexample"
    m: int
    label: str
    data: Any  # a JSON document for trees, GameSpec or ScenarioTree otherwise
    singular: bool = False  # a tree with a singular node matrix
    naive: bool = False  # also run the naive equilibrium search


@dataclass(frozen=True)
class Workload:
    """A named round recipe; BENCHMARK.json records why each workload exists."""

    name: str
    recipe: Tuple[Any, ...]  # one entry per instance of a round
    make: Callable[[Any, int], Instance]  # (recipe entry, instance seed) -> instance

    def round(self, seed: int, index: int) -> List[Instance]:
        """Round ``index`` of the stream for ``seed``, in its seeded order."""
        order = np.random.default_rng([seed, index]).permutation(len(self.recipe))
        return [
            self.make(self.recipe[slot], _instance_seed(seed, index, int(slot)))
            for slot in order
        ]


def _instance_seed(seed: int, index: int, slot: int) -> int:
    return int(np.random.default_rng([seed, index, slot, 1]).integers(2**31))


# ----------------------------------------------------------------- inputs


def _shared_tree(m: int, seed: int) -> Instance:
    tree = gen_tree(seed, m, T=TREE_T, branching=TREE_BRANCHING)
    return Instance("tree", m, f"shared m={m}", jsonio.tree_json(tree))


def _alpha(rng: np.random.Generator, m: int, total: float) -> List[float]:
    a = rng.uniform(0.5, 1.5, m)
    return [float(x) for x in a * (total / a.sum())]


def _pernode_tree(entry: Tuple[int, bool], seed: int) -> Instance:
    """Same shape as the shared trees; each non-terminal node has its own matrix.

    Node matrices are K-matrices from gen_k_matrix or proportional weights
    {"alpha": ...} that the parser expands into D-hat. Nonsingular trees
    draw from those two; singular trees add weights summing to one (a
    singular P0' matrix), always at the root and at random elsewhere.
    """
    m, singular = entry
    tree = gen_tree(seed, m, T=TREE_T, branching=TREE_BRANCHING)
    doc = jsonio.tree_json(tree)
    del doc["G"]
    rng = np.random.default_rng([seed, 31])
    parents = {n["parent"] for n in doc["nodes"]}
    for n in doc["nodes"]:
        if n["id"] not in parents:
            continue
        choice = rng.integers(3 if singular else 2)
        if singular and n["parent"] is None:
            choice = 2
        if choice == 0:
            k = gen_k_matrix(int(rng.integers(2**31)), m)
            n["G"] = jsonio.matrix_json(k)
        elif choice == 1:
            n["G"] = {"alpha": _alpha(rng, m, float(rng.uniform(0.6, 0.95)))}
        else:
            n["G"] = {"alpha": _alpha(rng, m, 1.0)}
    kind = "singular" if singular else "nonsingular"
    return Instance("tree", m, f"pernode m={m} {kind}", doc, singular=singular)


def _enum_instance(entry: Tuple[Any, ...], seed: int) -> Instance:
    if entry[0] == "game":
        _, m, kind = entry
        return Instance("game", m, f"game m={m} {kind}", gen_game(seed, m, kind=kind))
    if entry[0] == "small-tree":
        _, m, T, b, naive = entry
        tree = gen_tree(seed, m, T=T, branching=b, require_nonneg_colsums=True)
        return Instance("small-tree", m, f"tree m={m} T={T} b={b}", tree, naive=naive)
    tree = jsonio.parse_tree(BUILTIN_INSTANCES["paper-counterexample"])
    return Instance("counterexample", tree.m, "paper-counterexample", tree, naive=True)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tree-shared", TREE_M, _shared_tree),
        # The m=6 and m=10 trees carry singular weights: two in five. Cost
        # then doubles from m=6 to m=9, so the median tree is always m=8.
        Workload("tree-pernode", tuple((m, m in (6, 10)) for m in TREE_M), _pernode_tree),
        Workload(
            "enum-verify",
            tuple(("game",) + game for game in GAMES)
            + tuple(("small-tree",) + shape for shape in SMALL_TREES)
            + (("counterexample",),),
            _enum_instance,
        ),
    )
}


# --------------------------------------------------------------- pipelines


@dataclass(frozen=True)
class TreeAnswer:
    tree: Any
    U: Dict[str, np.ndarray]
    solution: Optional[Any]  # the BsdeSolution, when the reflected equation ran
    violations: List[str]
    report: str


@dataclass(frozen=True)
class GameAnswer:
    nash_payoff: Optional[np.ndarray]
    v_star: np.ndarray
    coalition: Optional[float]


@dataclass(frozen=True)
class SmallTreeAnswer:
    optimal: bool
    coalition: Optional[float]
    naive: Optional[Any]


def _coalition(m: int) -> List[int]:
    return list(range(max(1, m // 2)))


def _tau_json(stops) -> Dict[str, List[str]]:
    return {str(i + 1): sorted(s) for i, s in enumerate(stops)}


def solve_tree(inst: Instance) -> TreeAnswer:
    """The tree-solve and bsde commands' path, from JSON text to JSON text.

    The reflected equation runs only when every node matrix is nonsingular.
    """
    text = jsonio.dump_json(inst.data)
    tree = jsonio.parse_tree(jsonio.load_json(text))
    vp = multi_period.backward_induction(tree, tol=TOL)
    U = vp.U.values
    result: Dict[str, Any] = {"U": U, "tau_star": _tau_json(vp.tau_star.stops)}
    solution = None
    violations: List[str] = []
    if not inst.singular:
        solution = bsde.solve_reflected_bsde(tree, tol=TOL)
        violations = bsde.verify_bsde_solution(tree, solution, tol=TOL)
        result.update(Z=solution.Z.values, K=solution.K.values, J=solution.J.values)
    report = jsonio.dump_json({"input": jsonio.tree_json(tree), "result": result})
    return TreeAnswer(tree, U, solution, violations, report)


def solve_game(inst: Instance) -> GameAnswer:
    spec = inst.data
    rep = single_period.equilibrium_report(spec, tol=TOL)
    coalition = single_period.coalition_value(spec, _coalition(spec.m), tol=TOL)
    v_star = single_period.sol(spec, tol=TOL)
    return GameAnswer(rep.nash_payoff, v_star, coalition)


def solve_small_tree(inst: Instance) -> SmallTreeAnswer:
    tree = inst.data
    vp = multi_period.backward_induction(tree, tol=TOL)
    optimal = multi_period.verify_optimal_equilibrium(tree, vp.tau_star, tol=TOL)
    coalition = multi_period.coalition_value_tree(tree, _coalition(tree.m), tol=TOL)
    naive = multi_period.naive_equilibrium_search(tree, tol=TOL) if inst.naive else None
    return SmallTreeAnswer(optimal, coalition, naive)


SOLVERS = {
    "tree": solve_tree,
    "game": solve_game,
    "small-tree": solve_small_tree,
    "counterexample": solve_small_tree,
}


# ------------------------------------------------------------------- gates


def _tau(*arrays: Any) -> float:
    peak = max((float(np.max(np.abs(a))) for a in arrays), default=0.0)
    return TOL * max(1.0, peak)


def _complementarity_problems(tree: Any, U: Dict[str, np.ndarray]) -> List[str]:
    """U against the one-shot equilibrium conditions at every node, from outside.

    With cont the expected next-period U and w = U - X, the node's payoff
    must be X + w for the complementarity problem with data (cont - X, G):
    w >= 0, and U = cont + G z for some z >= 0 supported where w = 0. When
    every player binds and G is singular, the unsolvable branch is checked
    with the all-ones left null vector of a zero-column-sum matrix.
    """
    out: List[str] = []
    for n in tree.nodes:
        V = U[n.id]
        if tree.is_leaf(n):
            if np.max(np.abs(V - n.X)) > _tau(V, n.X):
                out.append(f"U at leaf {n.id!r} is not the terminal payoff")
            continue
        G = tree.effective_G(n).entries
        cont = sum(c.p * U[c.id] for c in tree.children(n))
        tau = _tau(V, n.X, cont)
        w = V - n.X
        if np.min(w) < -tau:
            out.append(f"U at {n.id!r} falls below the exercise payoff")
            continue
        E = [i for i in range(tree.m) if w[i] <= tau]
        F = [i for i in range(tree.m) if w[i] > tau]
        if not E:
            if np.max(np.abs(V - cont)) > tau:
                out.append(f"U at {n.id!r} is not the continuation value")
            continue
        G_EE = G[np.ix_(E, E)]
        if len(E) == tree.m and abs(np.linalg.det(G_EE)) <= TOL * np.prod(
            np.max(np.abs(G_EE), axis=1)
        ):
            ones = np.ones(tree.m)
            if np.max(np.abs(ones @ G)) > _tau(G) or ones @ (cont - n.X) > tau:
                out.append(f"U at {n.id!r}: everyone exercises without a certificate")
            continue
        z = np.linalg.solve(G_EE, (n.X - cont)[E])
        if np.min(z) < -1e-7 * max(1.0, float(np.max(np.abs(z)))):
            out.append(f"U at {n.id!r} needs a negative reflection")
        if F and np.max(np.abs(V[F] - cont[F] - G[np.ix_(F, E)] @ z)) > tau:
            out.append(f"U at {n.id!r} off the binding set is not cont + G z")
    return out


def tree_gate(ans: TreeAnswer) -> List[str]:
    if ans.solution is None:
        return _complementarity_problems(ans.tree, ans.U)
    out = list(ans.violations)
    for node_id, u in ans.U.items():
        z = ans.solution.Z[node_id]
        if np.max(np.abs(u - z)) > _tau(u, z):
            out.append(f"U and Z differ at node {node_id!r}")
    return out


def game_gate(ans: GameAnswer) -> List[str]:
    if ans.nash_payoff is None:
        return ["enumeration found no unique Nash payoff"]
    if np.max(np.abs(ans.nash_payoff - ans.v_star)) > _tau(ans.nash_payoff, ans.v_star):
        return ["enumerated Nash payoff differs from sol()"]
    return []


def small_tree_gate(ans: SmallTreeAnswer) -> List[str]:
    return [] if ans.optimal else ["tau_star is not an optimal equilibrium"]


def counterexample_gate(ans: SmallTreeAnswer) -> List[str]:
    out = small_tree_gate(ans)
    if len(ans.naive.distinct_nash_payoffs) != 2:
        out.append(
            f"naive rule gives {len(ans.naive.distinct_nash_payoffs)} Nash payoffs, not 2"
        )
    if ans.naive.optimal_profiles:
        out.append("naive rule has an optimal profile")
    return out


GATES = {
    "tree": tree_gate,
    "game": game_gate,
    "small-tree": small_tree_gate,
    "counterexample": counterexample_gate,
}


def run_instance(inst: Instance) -> List[str]:
    """Solve one instance and return its gate's problems (empty when correct)."""
    return GATES[inst.kind](SOLVERS[inst.kind](inst))


# --------------------------------------------------------------- self-test


def _shift(values: Dict[str, np.ndarray], node_id: str, by: float) -> Dict[str, np.ndarray]:
    out = dict(values)
    out[node_id] = values[node_id] + by
    return out


def _perturbed(inst: Instance, ans: Any) -> List[Tuple[str, Any]]:
    """Wrong answers the instance's gate must reject, each with a name."""
    if inst.kind == "tree":
        root = ans.tree.root.id
        if ans.solution is None:
            return [("U shifted at the root", dataclasses.replace(ans, U=_shift(ans.U, root, 1e-3)))]
        Z = ans.solution.Z
        bad = dataclasses.replace(
            ans.solution, Z=dataclasses.replace(Z, values=_shift(Z.values, root, 1e-3))
        )
        return [
            ("Z shifted at the root", dataclasses.replace(ans, solution=bad)),
            (
                "verify_bsde_solution on a shifted Z",
                dataclasses.replace(
                    ans, violations=bsde.verify_bsde_solution(ans.tree, bad, tol=TOL)
                ),
            ),
        ]
    if inst.kind == "game":
        return [
            ("sol() shifted", dataclasses.replace(ans, v_star=ans.v_star + 1e-3)),
            ("no unique Nash payoff", dataclasses.replace(ans, nash_payoff=None)),
        ]
    # Everyone stopping at the root pays X there; when the value differs from
    # X, uniqueness of the one-shot Nash payoff makes that profile no
    # equilibrium, so the exhaustive verifier must turn it down.
    tree = inst.data
    root = tree.root
    everyone_stops = StoppingProfile(tuple(frozenset({root.id}) for _ in range(tree.m)))
    wrong = [
        (
            "everyone stops at the root",
            dataclasses.replace(
                ans,
                optimal=multi_period.verify_optimal_equilibrium(tree, everyone_stops, tol=TOL),
            ),
        )
    ]
    if inst.kind == "counterexample":
        naive = ans.naive
        wrong += [
            (
                "one naive Nash payoff",
                dataclasses.replace(
                    ans,
                    naive=dataclasses.replace(
                        naive, distinct_nash_payoffs=naive.distinct_nash_payoffs[:1]
                    ),
                ),
            ),
            (
                "an optimal naive profile",
                dataclasses.replace(
                    ans,
                    naive=dataclasses.replace(
                        naive, optimal_profiles=naive.nash_profiles[:1]
                    ),
                ),
            ),
        ]
    return wrong


def _root_binds_everywhere(inst: Instance) -> bool:
    tree = inst.data
    U = multi_period.backward_induction(tree, tol=TOL).U[tree.root.id]
    return bool(np.max(np.abs(U - tree.root.X)) <= _tau(U, tree.root.X))


def self_test(instances: List[Instance]) -> Dict[str, Any]:
    """Run each gate on one real and several perturbed answers.

    Uses the smallest instance of every (kind, singular) pair present;
    small trees whose value equals the exercise payoff at the root are
    skipped because their perturbation would be an equilibrium too.
    """
    picked: Dict[Tuple[str, bool], Instance] = {}
    for inst in sorted(instances, key=lambda i: i.m):
        key = (inst.kind, inst.singular)
        if key in picked:
            continue
        if inst.kind == "small-tree" and _root_binds_everywhere(inst):
            continue
        picked[key] = inst
    results = []
    for inst in picked.values():
        ans = SOLVERS[inst.kind](inst)
        gate = GATES[inst.kind]
        results.append({"instance": inst.label, "answer": "real", "passes": not gate(ans)})
        for name, wrong in _perturbed(inst, ans):
            results.append(
                {"instance": inst.label, "answer": name, "passes": not gate(wrong)}
            )
    ok = bool(results) and all(r["passes"] == (r["answer"] == "real") for r in results)
    return {"ok": ok, "checks": results}
