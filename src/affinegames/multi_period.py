"""Multi-period stopping games on scenario trees.

Backward induction composes the single-period solver: terminal values
are the exercise payoffs, and each earlier node solves the one-shot game
whose stay-in payoff is the conditional expectation of the next-period
values. The canonical profile stops a player wherever the value process
touches that player's exercise payoff. A date's nodes read only the next
date's values, so its nonsingular (K-matrix) games go through the stacked
Chandrasekaran kernel together, each answer checked against the
complementarity conditions; singular P0' games take the one-shot solver's
certificate path. Chandrasekaran's method grows each support from empty on
principal blocks, while the reflected equation (bsde) runs policy iteration
from the full support on bordered rows, so U = Z stays a check between two
computations.

Arbitrary stopping profiles are evaluated pathwise: at the first node
where anyone stops, the one-shot payoff rule applies with the exercising
set, anchoring non-exercisers to the expected continuation value. The
naive variant anchors them to the expected terminal payoff instead,
which breaks the equilibrium structure (see the builtin counterexample
in the CLI). Verification is by brute-force enumeration of adapted
stopping times, represented as the antichain of first-stop nodes: one
payoff table over every joint profile, checked by the normal-form engine;
the naive search's table takes the naive anchor.
That table is built bottom-up from each node's one-shot game. The
one-shot tables of all non-leaf nodes come from one call of the stacked
single-period kernel, a row of X, stay-in payoff and matrix a node, with no
GameSpec built per node; a single profile's walk instead evaluates one
exercising set per stop node. Every walk goes by the tree's index, latest
date first or down from the root. A profile is located in the table by
its index, and the naive search reads its Nash cells' indices back into
stopping times, neither by a listing; both read the count under each row
from _subtree_counts. A tree keeps, per tolerance, its value process as
rows with tau_star (_value_rows) and each anchor's joint table
(_tree_normal_form), so every verdict and profile evaluation on one tree
after the first builds neither again. Only backward_induction maps the
rows by node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError
from .lcp import _chandrasekaran_stack
from .matrices import DEFAULT_TOL, MatrixClass, _stack_width, scaled_tol
from .normal_form import distinct_payoffs, floor_mask, group_margin, group_value
from .normal_form import nash_mask, optimal_mask
from .single_period import (
    GameSpec,
    StrategyProfile,
    _binding,
    _coalition,
    _payoff_tables,
    _solve_classified,
    payoff,
)
from .tree import AdaptedProcess, ScenarioTree, TreeNode, _valid

__all__ = [
    "StoppingProfile",
    "ValueProcess",
    "EnumerationTooLarge",
    "HypothesisViolated",
    "backward_induction",
    "evaluate_profile",
    "verify_optimal_equilibrium",
    "coalition_value_tree",
    "stopping_time_count",
    "NaiveSearchResult",
    "naive_equilibrium_search",
]

ENUMERATION_BUDGET = 10**6


class EnumerationTooLarge(DomainError):
    """The stopping-time enumeration exceeds ENUMERATION_BUDGET."""


class HypothesisViolated(DomainError):
    """A theorem precondition failed, or its asserted conclusion did not hold."""


@dataclass(frozen=True)
class StoppingProfile:
    """Per player, the set of nodes at which the player decides to stop.

    The induced stopping time on a path is the first node in the set;
    paths that never meet it stop at the horizon. Sets may contain nodes
    below the first hit (full decision maps); those entries never fire.
    """

    stops: Tuple[FrozenSet[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "stops",
            tuple(frozenset(str(i) for i in s) for s in self.stops),
        )

    @property
    def m(self) -> int:
        return len(self.stops)


@dataclass(frozen=True)
class ValueProcess:
    U: AdaptedProcess
    tau_star: StoppingProfile


def backward_induction(tree: ScenarioTree, tol: float = DEFAULT_TOL) -> ValueProcess:
    """Value process U and the canonical stop-when-binding profile.

    U's rows are read-only views of the tree's kept solution; each call
    returns a new mapping of them."""
    U, tau_star = _value_rows(tree, _valid(tree, tol), tol)
    return ValueProcess(U=tree._index.process(U), tau_star=tau_star)


def _value_rows(
    tree: ScenarioTree, classes: Tuple[MatrixClass, ...], tol: float
) -> Tuple[np.ndarray, StoppingProfile]:
    """U as read-only rows, a row per node, and tau_star, on a tree validated at
    tol given its classes by column; solved at the first call for the tree and
    tol, a date at a time, its stay-in payoffs one child sum.

    A date's nodes with a nonsingular matrix (a K-matrix, as the tree is
    valid) go through the stacked Chandrasekaran kernel together, in slices of
    _stack_width(m) rows; a node the kernel leaves unsolved is an
    ArithmeticError naming it. Singular P0' nodes take the one-shot solver's
    certificate path one at a time. Both mark the players who exercise by one
    binding test."""
    solved = tree._values.get(tol)
    if solved is not None:
        return solved
    ix, nodes, U = tree._index, tree.nodes, tree._index.X.copy()
    X, col, G = ix.X, ix.col, ix.stack()
    exercise = np.zeros(U.shape, dtype=bool)
    width = _stack_width(tree.m)
    for edges, rows in reversed(ix.dates):
        stay = ix.child_sum(U, edges)
        nonsingular = np.array([classes[j].is_K for j in col[rows].tolist()], dtype=bool)
        for i in rows[~nonsingular].tolist():
            game = GameSpec(X=nodes[i].X, P=stay[i], G=ix.matrices[col[i]])
            solution = _solve_classified(game, classes[col[i]], tol)
            U[i] = solution.V_star
            exercise[i, list(solution.equilibrium.exercising)] = True
        rows = rows[nonsingular]
        for start in range(0, len(rows), width):
            at = rows[start : start + width]
            _, w, ok = _chandrasekaran_stack(stay[at] - X[at], G[col[at]], tol)
            if not ok.all():
                raise ArithmeticError(
                    f"complementarity problem at node {nodes[at[np.argmin(ok)]].id!r} "
                    "is left unsolved by Chandrasekaran's method"
                )
            U[at] = X[at] + w
            exercise[at] = _binding(U[at], X[at], tol)
    U.flags.writeable = False
    ids = list(ix.row)
    stops = (frozenset(compress(ids, col)) for col in exercise.T.tolist())
    solved = tree._values[tol] = U, StoppingProfile(tuple(stops))
    return solved


def _profile_value(
    tree: ScenarioTree,
    anchor: np.ndarray,
    profile: StoppingProfile,
    node: Union[str, TreeNode, None],
    tol: float,
) -> np.ndarray:
    """Pathwise payoff of one profile from node, the root if None, against an anchor.

    anchor holds, a row per node, the process whose child sum plays the
    stay-in payoff role when the game ends below the horizon: the
    continuation values for the standard payoff, the terminal payoffs for the
    naive variant. Only the dates reached from node are evaluated, one child
    sum of each process a date; each reached stop node costs one payoff()
    call, as a full table there would be exponential in the number of players.
    """
    ix, nodes, stops = tree._index, tree.nodes, profile.stops
    first = ix.row[(tree.root if node is None else tree.node(node)).id]
    below, level, levels = ix.below, [first], []
    while level and nodes[level[0]].t < tree.T:  # the leaves' rows hold X already
        levels.append([(i, tuple(0 if nodes[i].id in s else 1 for s in stops)) for i in level])
        level = [c for i, s in levels[-1] if 0 not in s for c in below[i]]
    vals = ix.X.copy()
    for level in reversed(levels):
        edges = ix.dates[nodes[level[0][0]].t][0]
        stay, go_on = ix.child_sum(anchor, edges), ix.child_sum(vals, edges)
        for i, s in level:
            if 0 in s:
                game = GameSpec(X=nodes[i].X, P=stay[i], G=ix.matrices[ix.col[i]])
                vals[i] = payoff(game, StrategyProfile(s), tol=tol).V
            else:
                vals[i] = go_on[i]
    return vals[first].copy()


def _joint_table(tree: ScenarioTree, anchor: np.ndarray, tol: float) -> np.ndarray:
    """Root payoffs of every joint profile of first-stop antichains.

    Axis i runs over player i's antichains, the last axis is the payoff
    vector. Built bottom-up: a leaf has one antichain, the empty one; at a
    non-leaf node, antichain 0 stops there and antichain 1 + k is the k-th
    combination of the children's antichains, in C order over the children
    in tree order (the order _profile_index reads). The node's one-shot
    payoff table, widened so that every index past 0 stays in, gives every
    block where someone stops; every non-leaf node's one-shot table comes
    from one stacked _payoff_tables call, the node's row of X, stay-in
    payoff and matrix. The no-stop block is the probability mix of the
    children's tables, summed by the one child-sum rule, which also gives
    every node's stay-in payoff from the anchor rows.
    """
    m, ix, nodes, counts = tree.m, tree._index, tree.nodes, _subtree_counts(tree)
    below = ix.below
    inner = [i for i in ix.order.tolist() if below[i]]
    shots = _payoff_tables(ix.X[inner], ix.child_sum(anchor)[inner], ix.stack()[ix.col[inner]], tol)
    one_shot = dict(zip(inner, shots))
    tables: Dict[int, np.ndarray] = {}  # by row, each popped by its parent
    for i in ix.order.tolist():
        kids = below[i]
        if not kids:
            tables[i] = nodes[i].X.reshape((1,) * m + (m,))
            continue
        subs = [tables.pop(c) for c in kids]
        mix = np.zeros(m)
        for j, (c, sub) in enumerate(zip(kids, subs)):
            axes = [1] * len(kids)
            axes[j] = sub.shape[0]
            mix = mix + nodes[c].p * sub.reshape(tuple(axes) * m + (m,))
        rest = counts[i] - 1  # the combinations of the children's antichains
        pick = np.minimum(np.arange(counts[i]), 1)  # 0 exercises, the rest stay
        table = one_shot.pop(i)[np.ix_(*[pick] * m)]
        table[(slice(1, None),) * m] = mix.reshape((rest,) * m + (m,))
        tables[i] = table
    return tables[ix.row[tree.root.id]]


def _terminal_anchor(tree: ScenarioTree) -> np.ndarray:
    ix = tree._index
    out = ix.X.copy()
    for edges, rows in reversed(ix.dates):
        out[rows] = ix.child_sum(out, edges)[rows]
    return out


def _check_profile(tree: ScenarioTree, profile: StoppingProfile) -> None:
    if profile.m != tree.m:
        raise ValueError(f"profile covers {profile.m} players, tree has {tree.m}")
    for i, s in enumerate(profile.stops):
        unknown = s.difference(tree._index.row)
        if unknown:
            raise ValueError(f"player {i} stops at unknown nodes {sorted(unknown)}")


def evaluate_profile(
    tree: ScenarioTree,
    profile: StoppingProfile,
    node: Union[str, TreeNode, None] = None,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Expected payoff vector of a stopping profile, seen from a node.

    The value process is solved once per tree and tolerance, so evaluating
    many profiles on one tree repeats none of it.
    """
    classes = _valid(tree, tol)
    _check_profile(tree, profile)
    return _profile_value(tree, _value_rows(tree, classes, tol)[0], profile, node, tol)


def stopping_time_count(tree: ScenarioTree) -> int:
    return _subtree_counts(tree)[tree._index.row[tree.root.id]]


def _subtree_counts(tree: ScenarioTree) -> List[int]:
    """The stopping-time count under every row, by row; a repeated id, or a
    child not dated after its parent, is refused."""
    ix, nodes = tree._index, tree.nodes
    if len(ix.row) < len(nodes):
        raise ValueError("invalid tree: a node id appears more than once")
    below, counts = ix.below, [0] * len(nodes)
    for i in ix.order.tolist():
        kids = [counts[c] for c in below[i]]
        if 0 in kids:
            raise ValueError(f"invalid tree: a child of {nodes[i].id!r} is not dated after it")
        counts[i] = 1 + math.prod(kids) if kids else 1
    return counts


def _check_budget(tree: ScenarioTree) -> None:
    """Refuse a tree whose joint tables would exceed ENUMERATION_BUDGET
    entries in all.

    _joint_table builds, at every non-terminal node, one entry per joint
    profile of the stopping times under the node: (count there)^m. The
    check adds up the nodes children first and stops at the first one that
    crosses the budget.
    """
    total, counts = 0, _subtree_counts(tree)
    for count in (counts[i] for i in tree._index.order.tolist()):
        if count > 1:  # a node with children
            total += count**tree.m
            if total > ENUMERATION_BUDGET:
                raise EnumerationTooLarge(
                    f"at least {total} joint stopping profiles exceed budget "
                    f"{ENUMERATION_BUDGET}"
                )


def _tree_normal_form(
    tree: ScenarioTree, classes: Optional[Tuple[MatrixClass, ...]], tol: float
) -> Tuple[np.ndarray, float]:
    """The verifiers' one prologue: refuse a tree over ENUMERATION_BUDGET before
    any other work; then the joint table, read-only, against the value process
    (given the classes by column) or the naive rule's terminal anchor (given None),
    and its verdict tolerance scaled_tol(tol, table). The table is built at the
    first call for the tree, tol and anchor."""
    _check_budget(tree)
    naive = classes is None
    form = tree._tables.get((tol, naive))
    if form is None:
        anchor = _terminal_anchor(tree) if naive else _value_rows(tree, classes, tol)[0]
        table = _joint_table(tree, anchor, tol)
        table.flags.writeable = False
        form = tree._tables[tol, naive] = table, scaled_tol(tol, table)
    return form


def _profile_index(tree: ScenarioTree, profile: StoppingProfile) -> Tuple[int, ...]:
    """A profile's cell in the joint table. Per player, children first: 0 at a
    non-leaf node the player stops at, else 1 plus the children's indices as
    one C-order index over their counts."""
    ix, nodes, counts = tree._index, tree.nodes, _subtree_counts(tree)
    below, index = ix.below, {}  # index by row, each popped by its parent
    for r in ix.order.tolist():
        at = [0] * tree.m
        for c in below[r]:
            at = [i * counts[c] + j for i, j in zip(at, index.pop(c))]
        if below[r]:
            stops = (nodes[r].id in s for s in profile.stops)
            at = [0 if s else 1 + i for s, i in zip(stops, at)]
        index[r] = at
    return tuple(index[ix.row[tree.root.id]])


def _stopping_time(tree: ScenarioTree, counts: Sequence[int], k: int) -> FrozenSet[str]:
    """The stopping time at index k of the joint table's axis, read back from
    the root as _profile_index builds it, given the count under each row."""
    below, first, walk = tree._index.below, [], [(tree._index.row[tree.root.id], k)]
    while walk:
        r, k = walk.pop()
        kids = below[r]
        if kids and k == 0:
            first.append(tree.nodes[r].id)
        elif kids:
            walk.extend(zip(kids, np.unravel_index(k - 1, [counts[c] for c in kids])))
    return frozenset(first)


def verify_optimal_equilibrium(
    tree: ScenarioTree,
    profile: Optional[StoppingProfile] = None,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Exhaustive check that no player can gain and none can be pushed down.

    Against the others' profile entries, each player's own deviations
    must not beat the profile payoff; against arbitrary joint adversary
    stopping times, keeping the profile entry must not fall below it.
    Without a profile, the canonical profile tau_star is checked.
    """
    classes = _valid(tree, tol)
    if profile is not None:
        _check_profile(tree, profile)
    table, tau = _tree_normal_form(tree, classes, tol)
    if profile is None:
        profile = _value_rows(tree, classes, tol)[1]
    at = _profile_index(tree, profile)
    return bool(optimal_mask(table, tau)[at])


def coalition_value_tree(
    tree: ScenarioTree,
    A: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> Optional[float]:
    """Guaranteed total payoff of coalition A, by exhaustive enumeration.

    Requires nonnegative column sums on every matrix in play (on top of
    the Z-and-minor-signs class the tree already enforces); the computed
    value must match the summed value process at the root, and a mismatch
    reports the failed conclusion rather than returning a bogus number.
    """
    classes = _valid(tree, tol)
    members = _coalition(A, tree.m)
    col = tree._index.col.tolist()
    bad = [i for i, j in enumerate(col) if j >= 0 and not classes[j].column_sums_nonneg]
    if bad:  # nodes on the shared matrix first, so it is reported before any override
        n = tree.nodes[min(bad, key=lambda i: tree.nodes[i].G is not None)]
        label = n.id if n.G is not None else "<shared>"
        raise HypothesisViolated(f"matrix at {label!r} has a negative column sum")
    table, tau = _tree_normal_form(tree, classes, tol)
    value = group_value(table, members, tau)
    if value is None:
        return None
    root = _value_rows(tree, classes, tol)[0][tree._index.row[tree.root.id]]
    target = float(sum(root[i] for i in members))
    if abs(value - target) > group_margin(tau, members):
        raise HypothesisViolated(
            f"coalition value {value!r} differs from summed root values {target!r}"
        )
    return value


@dataclass(frozen=True)
class NaiveSearchResult:
    nash_profiles: List[StoppingProfile]
    nash_payoffs: List[np.ndarray]
    distinct_nash_payoffs: List[np.ndarray]
    optimal_profiles: List[StoppingProfile]


def naive_equilibrium_search(
    tree: ScenarioTree, tol: float = DEFAULT_TOL
) -> NaiveSearchResult:
    """Exhaustive Nash and optimality search under the naive payoff rule.

    Enumerates every joint profile of adapted stopping times, keeps those
    where no unilateral deviation strictly gains, deduplicates their
    payoff vectors, and flags which of them also survive arbitrary joint
    adversary deviations. The builtin three-player instance comes out
    with two distinct equilibrium payoffs and no surviving profile.
    """
    _valid(tree, tol)
    table, tau = _tree_normal_form(tree, None, tol)
    counts = _subtree_counts(tree)
    nash_at = nash_mask(table, tau)
    optimal_at = nash_at & floor_mask(table, tau)

    def profiles(mask: np.ndarray) -> List[StoppingProfile]:
        return [
            StoppingProfile(tuple(_stopping_time(tree, counts, k) for k in idx.tolist()))
            for idx in np.argwhere(mask)
        ]

    return NaiveSearchResult(
        nash_profiles=profiles(nash_at),
        nash_payoffs=[table[tuple(idx)].copy() for idx in np.argwhere(nash_at)],
        distinct_nash_payoffs=list(distinct_payoffs(table, nash_at, tau)),
        optimal_profiles=profiles(optimal_at),
    )
