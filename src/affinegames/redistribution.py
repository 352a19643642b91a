"""Proportional-redistribution games and their closed-form payoffs.

A weight vector alpha with positive entries summing to at most one
defines the matrix

    Dhat = diag(alpha) - alpha alpha^T,

which is a K-matrix when sum(alpha) < 1 and a singular almost-P Z-matrix
when sum(alpha) = 1 (det Dhat = (1 - sum(alpha)) * prod(alpha)). Games
built on Dhat redistribute exercise gains proportionally: when the set E
exercises, each remaining player k loses the share

    w_k(E) = alpha_k / (1 - sum_{i in E} alpha_i)

of the total exercised surplus. grg_payoff implements that closed form
directly from the weights, independent of the generic linear-solve payoff
path, so the two can be checked against each other.

For sum(alpha) < 1, Dhat is symmetric positive definite and the Nash payoff
is the projection of P onto the orthant above X in the norm of

    D = Dhat^{-1} = diag(1/alpha) + J / (1 - sum(alpha))    (J all ones);

single_period.projection_sol computes it that way, apart from the
complementarity route.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from .errors import DomainError
from .matrices import DEFAULT_TOL, SquareMatrix
from .single_period import GameSpec, StrategyProfile

__all__ = [
    "InvalidAlpha",
    "WeightSingular",
    "check_alpha",
    "dhat_matrix",
    "dhat_det",
    "grg_payoff",
    "grg_game",
]


class InvalidAlpha(DomainError):
    """Weights must be strictly positive and sum to at most one."""


class WeightSingular(DomainError):
    """A redistribution weight divides by 1 - sum(alpha_E) = 0."""


def check_alpha(alpha: Iterable[float], tol: float = DEFAULT_TOL) -> np.ndarray:
    a = np.asarray(list(alpha), dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise InvalidAlpha("alpha must be a nonempty vector")
    if not np.all(np.isfinite(a)):
        raise InvalidAlpha("alpha entries must be finite")
    if np.any(a <= tol):
        raise InvalidAlpha("alpha entries must be strictly positive")
    if float(np.sum(a)) > 1.0 + tol:
        raise InvalidAlpha("alpha entries must sum to at most one")
    return a


def dhat_matrix(alpha: Iterable[float], tol: float = DEFAULT_TOL) -> SquareMatrix:
    """diag(alpha) - alpha alpha^T."""
    a = check_alpha(alpha, tol)
    return SquareMatrix(np.diag(a) - np.outer(a, a))


def dhat_det(alpha: Iterable[float], tol: float = DEFAULT_TOL) -> float:
    """Closed-form determinant (1 - sum(alpha)) * prod(alpha)."""
    a = check_alpha(alpha, tol)
    return float((1.0 - np.sum(a)) * np.prod(a))


def _payoff_vectors(
    X: Iterable[float], P: Iterable[float], a: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """X and P as float vectors, refused unless they match the weights in length."""
    Xv = np.asarray(list(X), dtype=float)
    Pv = np.asarray(list(P), dtype=float)
    if Xv.shape != a.shape or Pv.shape != a.shape:
        raise ValueError("X and P must match alpha in length")
    return Xv, Pv


def grg_payoff(
    X: Iterable[float],
    P: Iterable[float],
    alpha: Iterable[float],
    s: Union[StrategyProfile, Iterable[int]],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Closed-form payoffs of the redistribution game at one profile.

    Exercising players take X; each other player k gives up w_k(E) times
    the total exercised surplus sum_{i in E}(X_i - P_i) relative to P.
    """
    a = check_alpha(alpha, tol)
    Xv, Pv = _payoff_vectors(X, P, a)
    profile = s if isinstance(s, StrategyProfile) else StrategyProfile(tuple(s))
    if len(profile.s) != a.size:
        raise ValueError("profile length must match alpha")
    E = list(profile.exercising)
    others = [k for k in range(a.size) if k not in E]
    V = Pv.copy()
    if E and others:
        rest = 1.0 - float(np.sum(a[E]))
        if rest <= tol:
            raise WeightSingular(f"exercise set {E} absorbs the full weight mass")
        surplus = float(np.sum((Xv - Pv)[E]))
        V[others] = Pv[others] - a[others] / rest * surplus
    V[E] = Xv[E]
    return V


def grg_game(
    X: Iterable[float],
    P: Iterable[float],
    alpha: Iterable[float],
    tol: float = DEFAULT_TOL,
) -> GameSpec:
    """The same game expressed through its matrix, for the generic solvers."""
    a = check_alpha(alpha, tol)
    Xv, Pv = _payoff_vectors(X, P, a)
    return GameSpec(X=Xv, P=Pv, G=dhat_matrix(a, tol))
