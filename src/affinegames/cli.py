"""Command-line front end.

Every subcommand reads one JSON instance (inline, from a file, or a
builtin name), runs the corresponding solver or verifier, and writes one
JSON report to stdout (or --output). Reports carry the normalized input
echo, the tolerance, and the seed, and are byte-identical across runs
for identical arguments; wall-clock timing goes to stderr so it cannot
perturb the output. Exit codes: 0 on success (absence of a solution is
data, not failure), 1 on domain and arithmetic errors and on running out of
memory, 2 on malformed input.

Player numbering in all CLI-facing JSON is 1-based.
"""

from __future__ import annotations

import argparse
import copy
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

import numpy as np

from .bsde import solve_reflected_bsde, verify_bsde_solution
from .errors import DomainError
from .jsonio import (
    InputFormatError,
    dump_json,
    game_json,
    load_json,
    matrix_json,
    parse_game,
    parse_lcp,
    parse_matrix,
    parse_tree,
    parse_vector,
    tree_json,
    vector_json,
)
from .lcp import LcpProblem, solve_enum, solve_lemke
from .matrices import DEFAULT_TOL, classify, gen_k_matrix, gen_p_matrix
from .multi_period import backward_induction, naive_equilibrium_search, verify_optimal_equilibrium
from .redistribution import dhat_det, grg_game
from .single_period import (
    GameSolution,
    GameSpec,
    coalition_value,
    dummy_extension,
    equilibrium_report,
    solve_game,
    wuc_check,
)
from .tree import ScenarioTree, TreeNode, validate

__all__ = ["main", "BUILTIN_INSTANCES", "gen_game", "gen_tree"]

ENUM_SOLVER_CUTOFF = 12

# Floats one gen recipe may allocate (its matrix entries and, for a tree, m
# payoffs a node); a larger recipe is refused before anything is built.
GEN_MAX_FLOATS = 1 << 20

BUILTIN_INSTANCES: Dict[str, Any] = {
    # Three players on a deterministic three-date chain; the matrix is the
    # singular Z-matrix with positive proper minors whose naive payoff rule
    # has two distinct Nash payoffs and no optimal equilibrium.
    "paper-counterexample": {
        "T": 2,
        "m": 3,
        "G": {
            "m": 3,
            "rows": [
                [2 / 9, -1 / 9, -1 / 9],
                [-1 / 9, 2 / 9, -1 / 9],
                [-1 / 9, -1 / 9, 2 / 9],
            ],
        },
        "nodes": [
            {"id": "n0", "t": 0, "parent": None, "p": 1.0, "X": [-1.0, -1.0, 0.0]},
            {"id": "n1", "t": 1, "parent": "n0", "p": 1.0, "X": [-2.0, -2.0, 4.0]},
            {"id": "n2", "t": 2, "parent": "n1", "p": 1.0, "X": [0.0, 0.0, 0.0]},
        ],
    },
    # Two-player proportional-redistribution instance with a unique
    # equilibrium payoff of (2, 7/3).
    "grg-demo": {"X": [2.0, 0.0], "P": [0.0, 3.0], "alpha": [0.25, 0.25]},
}


def gen_game(seed: int, m: int, kind: str = "p") -> GameSpec:
    """Seeded random game: a P- or K-matrix with payoffs uniform in [-5, 5]."""
    if kind == "p":
        G = gen_p_matrix(seed, m)
    elif kind == "k":
        G = gen_k_matrix(seed, m)
    else:
        raise ValueError(f"unknown game kind {kind!r}")
    rng = np.random.default_rng([seed, 104729])
    X = rng.uniform(-5.0, 5.0, m)
    P = rng.uniform(-5.0, 5.0, m)
    return GameSpec(X=X, P=P, G=G)


def gen_tree(
    seed: int,
    m: int,
    T: int = 3,
    branching: int = 2,
    require_nonneg_colsums: bool = False,
) -> ScenarioTree:
    """Seeded random tree with one shared K-matrix and payoffs in [-5, 5].

    A child's id is its parent's followed by its index, padded to the width
    of the largest index so that ids stay distinct at any branching.
    """
    if T < 0 or branching < 1 or m < 1:
        raise ValueError("tree shape parameters must be positive")
    G = gen_k_matrix(seed, m, require_nonneg_colsums=require_nonneg_colsums)
    rng = np.random.default_rng([seed, 7919])
    nodes: List[TreeNode] = [
        TreeNode(id="r", t=0, parent=None, p=1.0, X=rng.uniform(-5.0, 5.0, m))
    ]
    frontier = ["r"]
    width = len(str(branching - 1))
    for t in range(1, T + 1):
        nxt: List[str] = []
        for parent in frontier:
            weights = rng.uniform(0.5, 1.5, branching)
            probs = weights / weights.sum()
            for k in range(branching):
                nid = f"{parent}{k:0{width}d}"
                nodes.append(
                    TreeNode(
                        id=nid,
                        t=t,
                        parent=parent,
                        p=float(probs[k]),
                        X=rng.uniform(-5.0, 5.0, m),
                    )
                )
                nxt.append(nid)
        frontier = nxt
    return ScenarioTree(T=T, m=m, nodes=tuple(nodes), G=G)


def _load_input(args: argparse.Namespace, default: Optional[str] = None) -> Any:
    raw = args.input if args.input is not None else default
    if raw is None:
        raise InputFormatError("this command needs --input")
    if raw in BUILTIN_INSTANCES:
        return copy.deepcopy(BUILTIN_INSTANCES[raw])
    stripped = raw.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return load_json(raw)
    with open(raw, "r", encoding="utf-8") as fh:
        return load_json(fh.read())


def _cmd_classify(args: argparse.Namespace) -> Dict[str, Any]:
    M = parse_matrix(_load_input(args))
    result = {"m": M.m, **asdict(classify(M, tol=args.tolerance))}
    return {"input": matrix_json(M), "result": result}


def _solve_lcp(problem: LcpProblem, tol: float) -> Dict[str, Any]:
    # Only enumeration proves that there is no solution: Lemke's method ending
    # on a ray proves nothing for a general M.
    if problem.m <= ENUM_SOLVER_CUTOFF:
        solution = solve_enum(problem, tol=tol)
    elif (solution := solve_lemke(problem, tol=tol)) is None:
        raise DomainError("Lemke's method stopped on a ray without deciding the problem")
    if solution is None:
        return {"status": "no_solution", "z": None, "w": None, "support": None}
    return {
        "status": "solved",
        "z": vector_json(solution.z),
        "w": vector_json(solution.w),
        "support": [i + 1 for i in solution.support],
    }


def _cmd_solve(args: argparse.Namespace) -> Dict[str, Any]:
    obj = _load_input(args)
    if isinstance(obj, dict) and "q" in obj:
        problem = parse_lcp(obj)
        echo = {"q": vector_json(problem.q), "M": matrix_json(problem.M)}
        return {"input": echo, "result": _solve_lcp(problem, args.tolerance)}
    spec = parse_game(obj)
    if spec.non_exercising:
        raise InputFormatError("solve applies to fully exercisable games")
    result = _solution_json(solve_game(spec, args.tolerance))
    return {"input": game_json(spec), "result": result}


def _solution_json(solution: GameSolution) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "status": solution.status,
        "V_star": vector_json(solution.V_star),
        "equilibrium": list(solution.equilibrium.s),
    }
    if solution.certificate is not None:
        result["certificate"] = vector_json(solution.certificate.v)
    return result


def _cmd_equilibria(args: argparse.Namespace) -> Dict[str, Any]:
    spec = parse_game(_load_input(args))
    rep = equilibrium_report(spec, tol=args.tolerance)
    result = {
        "nash_profiles": [list(p.s) for p in rep.nash_profiles],
        "nash_payoff": None if rep.nash_payoff is None else vector_json(rep.nash_payoff),
        "optimal_profiles": [list(p.s) for p in rep.optimal_profiles],
        "value": None if rep.value is None else vector_json(rep.value),
        "wuc": rep.wuc,
    }
    return {"input": game_json(spec), "result": result}


def _cmd_wuc(args: argparse.Namespace) -> Dict[str, Any]:
    spec = parse_game(_load_input(args))
    return {
        "input": game_json(spec),
        "result": {"wuc": wuc_check(spec, tol=args.tolerance)},
    }


def _cmd_coalition(args: argparse.Namespace) -> Dict[str, Any]:
    spec = parse_game(_load_input(args))
    if not args.coalition:
        raise InputFormatError("coalition needs --coalition")
    try:
        members = sorted({int(x) for x in args.coalition.split(",") if x.strip()})
    except ValueError as e:
        raise InputFormatError(f"--coalition must be a comma list of players: {e}")
    if not members or any(i < 1 or i > spec.m for i in members):
        raise InputFormatError("--coalition players must be in 1..m")
    val = coalition_value(spec, [i - 1 for i in members], tol=args.tolerance)
    return {
        "input": game_json(spec),
        "result": {"coalition": members, "value": val},
    }


def _cmd_dummy(args: argparse.Namespace) -> Dict[str, Any]:
    spec = parse_game(_load_input(args))
    extended = dummy_extension(spec, tol=args.tolerance)
    return {"input": game_json(spec), "result": {"game": game_json(extended)}}


def _cmd_grg(args: argparse.Namespace) -> Dict[str, Any]:
    obj = _load_input(args, default="grg-demo")
    if not isinstance(obj, dict) or "alpha" not in obj:
        raise InputFormatError("grg needs {'X', 'P', 'alpha'}")
    alpha = parse_vector(obj.get("alpha"), "alpha")
    X = parse_vector(obj.get("X"), "X", alpha.size)
    P = parse_vector(obj.get("P"), "P", alpha.size)
    spec = grg_game(X, P, alpha, args.tolerance)
    result = {
        "Dhat": matrix_json(spec.G),
        "det_Dhat": float(np.linalg.det(spec.G.entries)),
        "det_closed_form": dhat_det(alpha, args.tolerance),
        **_solution_json(solve_game(spec, args.tolerance)),
    }
    echo = {"X": vector_json(X), "P": vector_json(P), "alpha": vector_json(alpha)}
    return {"input": echo, "result": result}


def _tau_star_json(stops) -> Dict[str, List[str]]:
    return {str(i + 1): sorted(s) for i, s in enumerate(stops)}


def _cmd_tree_solve(args: argparse.Namespace) -> Dict[str, Any]:
    tree = parse_tree(_load_input(args))
    vp = backward_induction(tree, tol=args.tolerance)
    result = {
        "U": {n.id: vector_json(vp.U[n.id]) for n in tree.nodes},
        "tau_star": _tau_star_json(vp.tau_star.stops),
        "root_value": vector_json(vp.U[tree.root.id]),
    }
    return {"input": tree_json(tree), "result": result}


def _cmd_tree_verify(args: argparse.Namespace) -> Dict[str, Any]:
    tree = parse_tree(_load_input(args))
    violations = validate(tree, args.tolerance)
    result = dict(valid=not violations, violations=violations, optimal_equilibrium=None)
    if not violations:
        result["optimal_equilibrium"] = verify_optimal_equilibrium(tree, tol=args.tolerance)
    return {"input": tree_json(tree), "result": result}


def _cmd_naive_counterexample(args: argparse.Namespace) -> Dict[str, Any]:
    tree = parse_tree(_load_input(args, default="paper-counterexample"))
    found = naive_equilibrium_search(tree, tol=args.tolerance)
    result = {
        "nash_profile_count": len(found.nash_profiles),
        "nash_payoff_count": len(found.distinct_nash_payoffs),
        "nash_payoffs": [vector_json(v) for v in found.distinct_nash_payoffs],
        "optimal_profile_count": len(found.optimal_profiles),
        "optimal_equilibrium_exists": bool(found.optimal_profiles),
    }
    return {"input": tree_json(tree), "result": result}


def _cmd_bsde(args: argparse.Namespace) -> Dict[str, Any]:
    tree = parse_tree(_load_input(args))
    solution = solve_reflected_bsde(tree, tol=args.tolerance)
    violations = verify_bsde_solution(tree, solution, tol=args.tolerance)
    if violations:
        raise ArithmeticError("reflected equation fails its check: " + "; ".join(violations))
    result = {
        "Z": {n.id: vector_json(solution.Z[n.id]) for n in tree.nodes},
        "K": {n.id: vector_json(solution.K[n.id]) for n in tree.nodes},
        "J": {n.id: vector_json(solution.J[n.id]) for n in tree.nodes},
    }
    return {"input": tree_json(tree), "result": result}


def _recipe_floats(kind: str, m: int, T: int, branching: int) -> int:
    """Floats a gen recipe allocates: its m x m matrix, plus X and P for a game
    or m payoffs at each node of a tree. A tree's count stops once it passes
    GEN_MAX_FLOATS, so a deep tree costs nothing to refuse."""
    if kind != "k-tree":
        return m * m + (2 * m if kind in ("p-game", "k-game") else 0)
    floats, width = m * m, 1
    for _ in range(T + 1):
        floats += m * width
        if floats > GEN_MAX_FLOATS:
            break
        width *= branching
    return floats


def _cmd_gen(args: argparse.Namespace) -> Dict[str, Any]:
    recipe = _load_input(args)
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise InputFormatError("gen needs a recipe object with 'kind'")
    kind = recipe["kind"]
    seed = args.seed if args.seed is not None else 0
    m = recipe.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputFormatError("gen recipe needs a positive integer 'm'")
    T, branching = recipe.get("T", 3), recipe.get("branching", 2)
    if kind == "k-tree":
        if not isinstance(T, int) or isinstance(T, bool) or T < 0:
            raise InputFormatError("gen recipe 'T' must be a nonnegative integer")
        if not isinstance(branching, int) or isinstance(branching, bool) or branching < 1:
            raise InputFormatError("gen recipe 'branching' must be a positive integer")
    floats = _recipe_floats(kind, m, T, branching)
    if floats > GEN_MAX_FLOATS:
        raise InputFormatError(
            f"gen recipe would allocate at least {floats} floats; the cap is {GEN_MAX_FLOATS}"
        )
    if kind == "k-matrix":
        M = gen_k_matrix(seed, m, bool(recipe.get("nonneg_colsums", False)))
        result: Dict[str, Any] = {"matrix": matrix_json(M)}
    elif kind == "p-matrix":
        result = {"matrix": matrix_json(gen_p_matrix(seed, m))}
    elif kind in ("p-game", "k-game"):
        result = {"game": game_json(gen_game(seed, m, kind=kind[0]))}
    elif kind == "k-tree":
        tree = gen_tree(
            seed, m, T=T, branching=branching,
            require_nonneg_colsums=bool(recipe.get("nonneg_colsums", False)),
        )
        result = {"tree": tree_json(tree)}
    else:
        raise InputFormatError(f"unknown gen kind {kind!r}")
    return {"input": recipe, "result": result}


_HANDLERS = {
    "classify": (_cmd_classify, "matrix class membership report"),
    "solve": (_cmd_solve, "unique equilibrium payoff of a game, or a complementarity solution"),
    "equilibria": (
        _cmd_equilibria,
        "brute-force Nash, optimality, value, and competitiveness report",
    ),
    "wuc": (_cmd_wuc, "weak unilateral competitiveness check"),
    "coalition": (_cmd_coalition, "guaranteed total payoff of a coalition (needs --coalition)"),
    "dummy": (_cmd_dummy, "zero-sum extension with a balancing non-acting player"),
    "grg": (_cmd_grg, "proportional-redistribution game report"),
    "tree-solve": (_cmd_tree_solve, "backward induction on a scenario tree"),
    "tree-verify": (_cmd_tree_verify, "tree validation plus equilibrium verification"),
    "naive-counterexample": (
        _cmd_naive_counterexample,
        "exhaustive search under the terminal-anchored payoff",
    ),
    "bsde": (_cmd_bsde, "reflected backward equation on a scenario tree"),
    "gen": (
        _cmd_gen,
        "seeded random instance from a recipe (kinds: k-matrix, p-matrix, p-game, k-game, k-tree)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinegames",
        description="Exercise games with affine payoff redistribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary) in _HANDLERS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--input",
            help="inline JSON, a file path, or a builtin name "
            "(paper-counterexample, grg-demo)",
        )
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", help="write the report here instead of stdout")
        if name == "coalition":
            p.add_argument("--coalition", help="comma list of 1-based players")
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.tolerance > 0:
        parser.error("--tolerance must be positive")
    started = time.perf_counter()
    try:
        body = args.handler(args)
        report = {
            "command": args.command,
            "tolerance": args.tolerance,
            "seed": args.seed,
            "input": body["input"],
            "result": body["result"],
        }
        text = dump_json(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        code = 0
    except (DomainError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except MemoryError as e:
        print(f"error: out of memory {e}".rstrip(), file=sys.stderr)
        code = 1
    except (InputFormatError, ValueError, KeyError, TypeError, OSError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        code = 2
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
