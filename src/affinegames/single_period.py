"""Single-period exercise games with affine payoff redistribution.

Each of m players either exercises (s_i = 0) or stays in (s_i = 1). A
player who exercises locks in the exercise payoff X_i; the remaining
players' payoffs move away from the terminal payoff P along the columns
of G that belong to the exercising set E(s):

    V_i(s) = X_i                                     for i in E(s),
    V_i(s) = P_i + G_iE (G_EE)^{-1} (X_E - P_E)      otherwise.

When G has all principal minors positive (P-matrix) or is singular but
almost-P (P0'), every Nash equilibrium attains the same payoff vector,
computed here through the LCP with data (P - X, G). K-matrices (P and Z)
additionally make the game weakly unilaterally competitive, so Nash
equilibria are optimal and per-player values exist. The brute-force
verifiers in this module check all of that by exhaustive enumeration.

Every verifier reads the game's payoff table through _normal_form, which
builds it once per game and tolerance and keeps it, read-only, on the
GameSpec; a game cannot change, since its fields are frozen and its arrays
read-only. The solvers (solve_game, sol) keep no table and share none, so
the enumerated Nash payoff stays an independent check of sol().

One kernel, _payoff_tables, builds the tables of a stack of games in one
walk over the sizes of the exercising set: at each size the exact blocks
G_EE of every game go to LAPACK together (_coefficients), and the payoff
formula then turns the coefficients into the stack of tables, a slice of
cells at a time, in place (_values). A game's own table is the stack of
one; multi_period stacks every non-leaf node of a tree. payoff() evaluates
one profile by the same two steps, and alone holds the rule for everyone
exercising on a singular G (V = X, no a), since a table's all-exercise cell
needs no solve. The kernel keeps nothing between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import islice
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

import numpy as np

from .errors import DimensionTooLarge, DomainError
from .lcp import LcpProblem, _is_spd, _p0prime_dichotomy, project_quadratic
from .matrices import (
    DEFAULT_TOL,
    ENUM_CAP,
    MatrixClass,
    NullCertificate,
    SquareMatrix,
    _minor_signs,
    _read_only,
    _row_tols,
    _stack_width,
    classify,
    scaled_tol,
)
from .normal_form import (
    distinct_payoffs,
    floor_mask,
    group_value,
    nash_mask,
    optimal_mask,
    wuc_holds,
)

__all__ = [
    "GameSpec",
    "StrategyProfile",
    "PayoffOutcome",
    "EquilibriumReport",
    "GameSolution",
    "SingularSubmatrix",
    "NotCovered",
    "ColumnSumNegative",
    "NotSymmetricPD",
    "payoff",
    "enumerate_nash",
    "solve_game",
    "sol",
    "is_optimal_equilibrium",
    "wuc_check",
    "value",
    "coalition_value",
    "dummy_extension",
    "projection_sol",
    "equilibrium_report",
]

BRUTE_FORCE_CAP = 12


class SingularSubmatrix(DomainError):
    """An exercised submatrix G_EE is singular; payoffs are undefined there."""


class NotCovered(DomainError):
    """G is outside the classes for which unique Nash payoffs are guaranteed."""


class ColumnSumNegative(DomainError):
    """The dummy-player extension needs all column sums of G nonnegative."""


class NotSymmetricPD(DomainError):
    """Projection form of the solution needs a symmetric positive definite G."""


@dataclass(frozen=True)
class GameSpec:
    """One game instance: exercise payoffs X, terminal payoffs P, matrix G.

    non_exercising lists players whose exercise action is removed from the
    game (used by the dummy extension); their diagonal entries are exempt
    from the positivity requirement because no exercised set contains them.
    The others must be positive, with no tolerance: a GameSpec does not know
    its caller's, and the minor tests judge near-singularity at that one.
    X and P are read-only; the payoff table and its verdict tolerance are kept
    per tolerance, and dataclasses.replace starts afresh.
    """

    X: np.ndarray
    P: np.ndarray
    G: SquareMatrix
    non_exercising: FrozenSet[int] = frozenset()
    _tables: Dict[float, Tuple[np.ndarray, float]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        X = _read_only(self.X)
        P = _read_only(self.P)
        m = self.G.m
        if X.shape != (m,) or P.shape != (m,):
            raise ValueError(f"X and P must have shape ({m},)")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(P))):
            raise ValueError("payoff vectors must be finite")
        frozen = frozenset(int(i) for i in self.non_exercising)
        if any(i < 0 or i >= m for i in frozen):
            raise ValueError("non_exercising indices out of range")
        diag = np.diag(self.G.entries)
        for i in range(m):
            if i not in frozen and diag[i] <= 0.0:
                raise ValueError(f"diagonal entry {i} of G must be positive")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "non_exercising", frozen)
        object.__setattr__(self, "_tables", {})

    def __reduce__(self):  # copies and pickles rebuild read-only arrays, no table
        return GameSpec, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def m(self) -> int:
        return self.G.m

    @property
    def exercisable(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.m) if i not in self.non_exercising)


@dataclass(frozen=True)
class StrategyProfile:
    """The exercise vector: s_i = 0 means player i exercises."""

    s: Tuple[int, ...]

    def __post_init__(self) -> None:
        s = tuple(int(b) for b in self.s)
        if any(b not in (0, 1) for b in s):
            raise ValueError("profile entries must be 0 (exercise) or 1 (stay)")
        object.__setattr__(self, "s", s)

    @property
    def exercising(self) -> Tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.s) if b == 0)


@dataclass(frozen=True)
class PayoffOutcome:
    """Payoffs V with V = P + G a, a supported on the exercising set.

    a is None only when everyone exercises and G is singular, where V = X
    holds directly and no coefficient vector is needed.
    """

    V: np.ndarray
    a: Optional[np.ndarray]


@dataclass(frozen=True)
class EquilibriumReport:
    nash_profiles: List[StrategyProfile]
    nash_payoff: Optional[np.ndarray]
    optimal_profiles: List[StrategyProfile]
    value: Optional[np.ndarray]
    wuc: Optional[bool]


def _checked_profile(
    spec: GameSpec, s: Union[StrategyProfile, Iterable[int]]
) -> StrategyProfile:
    profile = s if isinstance(s, StrategyProfile) else StrategyProfile(tuple(s))
    if len(profile.s) != spec.m:
        raise ValueError(f"profile has {len(profile.s)} entries, expected {spec.m}")
    bad = [i for i in profile.exercising if i in spec.non_exercising]
    if bad:
        raise ValueError(f"players {bad} cannot exercise in this game")
    return profile


def payoff(
    spec: GameSpec,
    s: Union[StrategyProfile, Iterable[int]],
    tol: float = DEFAULT_TOL,
) -> PayoffOutcome:
    """Evaluate the payoff vector for one strategy profile."""
    E = _checked_profile(spec, s).exercising
    X, P, G = spec.X[None], spec.P[None], spec.G.entries[None]
    try:
        a = _coefficients(X, P, G, np.array([E], dtype=np.intp), tol)
    except SingularSubmatrix:
        if len(E) < spec.m:
            raise
        return PayoffOutcome(V=spec.X.copy(), a=None)  # everyone exercises: V = X
    exercised = np.zeros((1, spec.m), dtype=bool)
    exercised[0, list(E)] = True
    return PayoffOutcome(V=_values(X, P, G, a, exercised)[0, 0], a=a[0, 0])


def _coefficients(
    X: np.ndarray, P: np.ndarray, G: np.ndarray, sets: np.ndarray, tol: float
) -> np.ndarray:
    """a_E = G_EE^{-1} (X - P)_E at each exercising set E in the rows of sets,
    a (C, k) array of one size k, for each game of a stack: X and P (n, m),
    G (n, m, m); an (n, C, m) array, zero off the set.

    The exact blocks G[E, E] go to LAPACK in slices of at most _stack_width(k)
    blocks, of whole games or of one game's sets; a singular block is a
    SingularSubmatrix naming the first, by game and then by set.
    """
    n, m = X.shape
    C, k = sets.shape
    a = np.zeros((n, C, m))
    if k == 0:
        return a
    D, width = X - P, _stack_width(k)
    step = min(C, width)  # sets a slice
    per = max(1, width // step)  # games a slice
    for g0 in range(0, n, per):
        for j0 in range(0, C, step):
            E = sets[j0 : j0 + step]
            blocks = G[g0 : g0 + per, E[:, :, None], E[:, None, :]]
            singular = _minor_signs(blocks, tol) == 0
            if singular.any():
                bad = E[np.argwhere(singular)[0, 1]].tolist()
                raise SingularSubmatrix(f"G restricted to exercising set {bad} is singular")
            solved = np.linalg.solve(blocks, D[g0 : g0 + per, E, None])[..., 0]
            a[g0 : g0 + per, np.arange(j0, j0 + len(E))[:, None], E] = solved
    return a


def _values(
    X: np.ndarray, P: np.ndarray, G: np.ndarray, a: np.ndarray, exercised: np.ndarray
) -> np.ndarray:
    """The payoff formula for each game of a stack and each row of its
    coefficients a, (n, C, m): V = P + G a, except V_i = X_i where the (C, m)
    mask exercised holds, and V = P in a row where nobody exercises."""
    V = (G[:, None] @ a[..., None])[..., 0]
    V += P[:, None]
    np.copyto(V, X[:, None], where=exercised)
    V[:, ~exercised.any(axis=1)] = P[:, None]
    return V


def _payoff_tables(
    X: np.ndarray, P: np.ndarray, G: np.ndarray, tol: float, frozen: FrozenSet[int] = frozenset()
) -> np.ndarray:
    """Every profile's payoffs for each game of a stack, X and P (n, m) and G
    (n, m, m), in which the players in frozen cannot exercise: an array of
    shape (n,) + table shape, axis i player i's exercise bit, of size 1 (its
    one entry standing for stay) for a frozen player.

    One walk over the exercising-set sizes serves the whole stack. Read as f
    bits over the f free players, a cell's flat index has a 1 where that
    player stays, so the sets of one size, in ascending cell order, come in
    lexicographic order. When everyone exercises, V = X whether G is singular
    or not, so that cell needs no solve. The payoffs overwrite the
    coefficients in slices of at most _stack_width(1) entries, so the walk
    never holds a second table. A singular block is refused for the
    first game in stack order that has one, naming that game's smallest
    singular set.
    """
    n, m = X.shape
    free = np.array([i for i in range(m) if i not in frozen], dtype=np.intp)
    f = len(free)
    index = np.arange(1 << f, dtype=">u4").view(np.uint8).reshape(-1, 4)  # f <= 32
    ex = np.unpackbits(index, axis=1)[:, 32 - f :] == 0  # free player j exercises
    cells = np.argsort(ex.sum(axis=1), kind="stable")  # by size of the set
    a = np.zeros((n, 1 << f, m))
    try:
        done = 1  # cells passed, the empty set's first
        for k in range(1, min(f, m - 1) + 1):
            at = cells[done : done + comb(f, k)]
            sets = free[np.nonzero(ex[at])[1]].reshape(len(at), k)
            a[:, at] = _coefficients(X, P, G, sets, tol)
            done += len(at)
    except SingularSubmatrix:
        for g in range(n - 1):  # an earlier game's larger singular set comes first
            _payoff_tables(X[g : g + 1], P[g : g + 1], G[g : g + 1], tol, frozen)
        raise
    exercised = np.zeros((1 << f, m), dtype=bool)
    exercised[:, free] = ex
    step = max(1, _stack_width(1) // max(1, n * m))  # cells a slice, of n * m entries each
    for c0 in range(0, 1 << f, step):  # each slice's payoffs overwrite its a
        at = slice(c0, c0 + step)
        a[:, at] = _values(X, P, G, a[:, at], exercised[at])
    return a.reshape((n,) + tuple(1 if i in frozen else 2 for i in range(m)) + (m,))


def _profiles_where(mask: np.ndarray) -> List[StrategyProfile]:
    """The profiles at the true entries of a table mask, in lexicographic order."""
    stay = np.array(mask.shape) == 1  # a non-exercising player's one entry
    return [StrategyProfile(tuple(np.where(stay, 1, idx))) for idx in np.argwhere(mask)]


def _normal_form(spec: GameSpec, cap: int, what: str, tol: float) -> Tuple[np.ndarray, float]:
    """The payoff table, read-only, and the tolerance every verdict on it uses,
    scaled_tol(tol, table); built at the first call for the game and tol that
    passes the cap. what names the check refused above cap exercisable players."""
    free = len(spec.exercisable)
    if free > cap:
        raise DimensionTooLarge(f"{what} enumerates 2^{free} profiles; cap is {cap}")
    form = spec._tables.get(tol)
    if form is None:
        table = _payoff_tables(
            spec.X[None], spec.P[None], spec.G.entries[None], tol, spec.non_exercising
        )[0]
        table.flags.writeable = False
        form = spec._tables[tol] = table, scaled_tol(tol, table)
    return form


def enumerate_nash(spec: GameSpec, tol: float = DEFAULT_TOL) -> List[StrategyProfile]:
    """All pure Nash profiles, in lexicographic order of the exercise vector."""
    return _profiles_where(nash_mask(*_normal_form(spec, ENUM_CAP, "Nash enumeration", tol)))


@dataclass(frozen=True)
class GameSolution:
    """The one-shot game solved through its matrix class.

    status is "solved", or "unsolvable_certificate" for a singular P0' game
    whose complementarity problem has no solution; then everyone exercises,
    V_star = X, and certificate is the positive left null vector of G that
    proves it. equilibrium exercises exactly the players with V*_i = X_i.
    """

    status: str
    V_star: np.ndarray
    equilibrium: StrategyProfile
    certificate: Optional[NullCertificate]


def solve_game(spec: GameSpec, tol: float = DEFAULT_TOL) -> GameSolution:
    """Classify G once and solve: P games through the complementarity
    problem (Chandrasekaran's method for a Z-matrix, enumeration otherwise),
    singular P0' games by the solvability dichotomy; anything else is
    NotCovered."""
    if spec.non_exercising:
        raise NotCovered("unique-payoff solver applies to fully exercisable games")
    return _solve_classified(spec, classify(spec.G, tol=tol), tol)


def _solve_classified(spec: GameSpec, cls: MatrixClass, tol: float) -> GameSolution:
    """solve_game for a fully exercisable game whose G its caller classified as cls."""
    if not cls.is_P0prime:
        raise NotCovered("G is outside P and P0'; no unique Nash payoff is guaranteed")
    problem = LcpProblem(q=spec.P - spec.X, M=spec.G)
    outcome = _p0prime_dichotomy(problem, cls, tol)
    if outcome.solvable:
        V = spec.X + outcome.solution.w
        status, certificate = "solved", None
    else:
        V = spec.X.copy()
        status, certificate = "unsolvable_certificate", outcome.certificate
    s = np.where(_binding(V[None], spec.X[None], tol)[0], 0, 1)
    return GameSolution(status, V, StrategyProfile(tuple(s.tolist())), certificate)


def _binding(V: np.ndarray, X: np.ndarray, tol: float) -> np.ndarray:
    """Where each row of an (n, m) stack of payoffs V touches its row of the
    exercise payoffs X, within that row's scaled_tol(tol, V, X): the players
    an equilibrium exercises."""
    return np.abs(V - X) <= _row_tols(tol, V, X)[:, None]


def sol(spec: GameSpec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unique Nash equilibrium payoff vector.

    Nonsingular P-matrix games: V* = X + w for the LCP(P - X, G) solution.
    Singular P0' games: the solvability dichotomy applies; when the
    certificate rules a solution out, everyone exercising is the Nash
    equilibrium and V* = X.
    """
    return solve_game(spec, tol=tol).V_star


def is_optimal_equilibrium(
    spec: GameSpec,
    s: Union[StrategyProfile, Iterable[int]],
    tol: float = DEFAULT_TOL,
) -> bool:
    """Nash, and each player's payoff is a floor against arbitrary opponents."""
    profile = _checked_profile(spec, s)
    idx = tuple(0 if i in spec.non_exercising else b for i, b in enumerate(profile.s))
    return bool(optimal_mask(*_normal_form(spec, ENUM_CAP, "optimality check", tol))[idx])


def wuc_check(spec: GameSpec, tol: float = DEFAULT_TOL) -> bool:
    """Weak unilateral competitiveness, checked over every unilateral switch.

    A strict unilateral gain for the switching player must not strictly
    gain any other player, and unilateral indifference must leave every
    payoff unchanged.
    """
    return wuc_holds(*_normal_form(spec, BRUTE_FORCE_CAP, "competitiveness check", tol))


def _value(table: np.ndarray, tau: float) -> np.ndarray:
    return np.array([group_value(table, [k], tau) for k in range(table.shape[-1])])


def value(spec: GameSpec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-player sup-inf payoffs, which always equal the inf-sup side.

    An exercising player's slice of the table is exactly X_i, so player i's
    sup-inf and inf-sup are both max(X_i, min stay payoff), with no rounding
    (a player who cannot exercise has one strategy, and both are its min).
    """
    return _value(*_normal_form(spec, BRUTE_FORCE_CAP, "value computation", tol))


def _coalition(A: Iterable[int], m: int) -> List[int]:
    """The members of coalition A among m players, sorted and deduplicated."""
    members = sorted(set(int(i) for i in A))
    if not members:
        raise ValueError("coalition must be nonempty")
    if any(i < 0 or i >= m for i in members):
        raise ValueError("coalition indices out of range")
    return members


def coalition_value(
    spec: GameSpec,
    A: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> Optional[float]:
    """Value of the summed payoff of coalition A against everyone else."""
    group = _coalition(A, spec.m)
    table, tau = _normal_form(spec, BRUTE_FORCE_CAP, "coalition value", tol)
    return group_value(table, group, tau)


def dummy_extension(spec: GameSpec, tol: float = DEFAULT_TOL) -> GameSpec:
    """Append a non-acting balancing player so the game becomes zero-sum.

    The new player 0 carries X_0 = -sum(X), P_0 = -sum(P); its matrix row
    holds the negated column sums of G and its column is zero, so every
    column of the extended matrix sums to zero and payoffs cancel across
    players for every profile. Requires the column sums of G to be
    nonnegative. Equilibrium-payoff queries stay with the base game: zero
    proper minors through the new index put the extension outside P0'.
    """
    Ga = spec.G.entries
    colsums = Ga.sum(axis=0)
    if float(np.min(colsums)) < -scaled_tol(tol, Ga):
        raise ColumnSumNegative("dummy extension needs nonnegative column sums")
    m = spec.m
    ext = np.zeros((m + 1, m + 1))
    ext[0, 1:] = -colsums
    ext[1:, 1:] = Ga
    X = np.concatenate(([-float(np.sum(spec.X))], spec.X))
    P = np.concatenate(([-float(np.sum(spec.P))], spec.P))
    frozen = frozenset({0}) | frozenset(i + 1 for i in spec.non_exercising)
    return GameSpec(X=X, P=P, G=SquareMatrix(ext), non_exercising=frozen)


def projection_sol(spec: GameSpec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """V* as the G^{-1}-norm projection of P onto the orthant above X.

    Independent route to the unique Nash payoff for symmetric positive
    definite G: minimize (x - P)^T G^{-1} (x - P) over x >= X with the
    active-set minimizer, bypassing the LCP entirely.
    """
    Ga = spec.G.entries
    if not _is_spd(Ga, tol):
        raise NotSymmetricPD("projection form needs a symmetric positive definite matrix")
    return project_quadratic(np.linalg.inv(Ga), spec.P, spec.X, tol=tol)


def equilibrium_report(spec: GameSpec, tol: float = DEFAULT_TOL) -> EquilibriumReport:
    """Bundle enumeration, optimality, value, and competitiveness results;
    value and wuc are None above BRUTE_FORCE_CAP exercisable players."""
    table, tau = _normal_form(spec, ENUM_CAP, "Nash enumeration", tol)
    nash_at = nash_mask(table, tau)
    payoffs = list(islice(distinct_payoffs(table, nash_at, tau), 2))
    small = len(spec.exercisable) <= BRUTE_FORCE_CAP
    return EquilibriumReport(
        nash_profiles=_profiles_where(nash_at),
        nash_payoff=payoffs[0] if len(payoffs) == 1 else None,
        optimal_profiles=_profiles_where(nash_at & floor_mask(table, tau)),
        value=_value(table, tau) if small else None,
        wuc=wuc_holds(table, tau) if small else None,
    )
