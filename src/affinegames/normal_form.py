"""Exhaustive checks on a game in normal form, as reductions over one array.

A payoff table has shape (|S_1|, ..., |S_m|, m): axis i indexes player
i's strategies and the last axis holds the payoff vector of the profile.
One-shot games index each player's exercise bit (size 1 for a player who
cannot exercise); tree games index each player's first-stop antichains.
Callers build the table once and pass their own tolerance tau. Every test
compares payoffs exactly as a loop over profiles would, so results do not
depend on reduction order. Nothing here solves the game: these are the
verifier side of the solver/verifier cross-checks.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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


def sup_inf_inf_sup(score: np.ndarray, group: Sequence[int]) -> Tuple[float, float]:
    """(sup-inf, inf-sup) of score, one entry per profile, between the group's
    axes and all other axes."""
    own = tuple(group)
    rest = tuple(a for a in range(score.ndim) if a not in own)
    sup_inf = np.max(np.min(score, axis=rest, keepdims=True))
    inf_sup = np.min(np.max(score, axis=own, keepdims=True))
    return float(sup_inf), float(inf_sup)
