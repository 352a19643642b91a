"""Exhaustive checks on a game in normal form, as reductions over one array.

A payoff table has shape (|S_1|, ..., |S_m|, m): axis i indexes player
i's strategies and the last axis holds the payoff vector of the profile.
One-shot games index each player's exercise bit (size 1 for a player who
cannot exercise); tree games index each player's first-stop antichains.
Each game kind builds its table in one helper, single_period._normal_form
or multi_period._tree_normal_form, which refuses a table past its size
bound and returns it with tau = scaled_tol(tol, table); every verdict,
including the one value rule group_value and the one same-payoff rule
distinct_payoffs, judges the table at that tau. Both helpers keep the
table, read-only, on the game or tree, once per tolerance, so the
functions here only read it.
Every test compares payoffs exactly as a loop over profiles would, so results
do not depend on reduction order; nothing here solves the game.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np


def nash_mask(table: np.ndarray, tau: float) -> np.ndarray:
    """True where no player gains more than tau by a unilateral switch."""
    ok = np.ones(table.shape[:-1], dtype=bool)
    for k in range(table.shape[-1]):
        own = table[..., k]
        ok &= ~(np.max(own, axis=k, keepdims=True) > own + tau)
    return ok


def floor_mask(table: np.ndarray, tau: float) -> np.ndarray:
    """True where every acting player keeps within tau of its payoff whatever
    the others do; players with a single strategy are not tested."""
    ok = np.ones(table.shape[:-1], dtype=bool)
    for k in range(table.shape[-1]):
        if table.shape[k] == 1:
            continue
        own = table[..., k]
        others = tuple(a for a in range(own.ndim) if a != k)
        ok &= ~(np.min(own, axis=others, keepdims=True) < own - tau)
    return ok


def optimal_mask(table: np.ndarray, tau: float) -> np.ndarray:
    """Nash profiles whose payoffs are also floors against arbitrary opponents."""
    return nash_mask(table, tau) & floor_mask(table, tau)


def wuc_holds(table: np.ndarray, tau: float) -> bool:
    """Over every exercise/stay switch (axes of size 2, index 0 exercises):
    a strict gain for the switching player gains no other player strictly,
    and indifference leaves every payoff within tau."""
    m = table.shape[-1]
    for k in range(m):
        if table.shape[k] != 2:
            continue
        v0 = np.take(table, 0, axis=k)
        v1 = np.take(table, 1, axis=k)
        diff = v0[..., k] - v1[..., k]
        rest = [l for l in range(m) if l != k]
        v0, v1 = v0[..., rest], v1[..., rest]
        if np.any((diff > tau)[..., None] & (v0 > v1 + tau)):
            return False
        if np.any((diff < -tau)[..., None] & (v1 > v0 + tau)):
            return False
        indifferent = ~(diff > tau) & ~(diff < -tau)
        if np.any(indifferent[..., None] & (np.abs(v0 - v1) > tau)):
            return False
    return True


def group_margin(tau: float, group: Sequence[int]) -> float:
    """The margin for a payoff summed over group: tau per member."""
    return tau * len(group)


def group_value(table: np.ndarray, group: Sequence[int], tau: float) -> Optional[float]:
    """Sup-inf of the group's summed payoff between its axes and all others,
    or None when the inf-sup differs by more than the group margin."""
    score = sum(table[..., i] for i in group)
    rest = tuple(a for a in range(score.ndim) if a not in group)
    sup_inf = float(np.max(np.min(score, axis=rest)))
    inf_sup = float(np.min(np.max(score, axis=tuple(group))))
    return None if abs(inf_sup - sup_inf) > group_margin(tau, group) else sup_inf


def distinct_payoffs(table: np.ndarray, mask: np.ndarray, tau: float) -> Iterator[np.ndarray]:
    """Lazily, in lexicographic order, each payoff vector at a true entry of
    mask that is more than tau from every payoff yielded before it."""
    kept: List[np.ndarray] = []
    for idx in np.argwhere(mask):
        v = table[tuple(idx)]
        if all(float(np.max(np.abs(v - u))) > tau for u in kept):
            kept.append(v.copy())
            yield kept[-1]
