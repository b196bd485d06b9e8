"""Core membership and non-emptiness via exact rational linear feasibility.

The Core system of a game is
    sum over all players of x_i  =  v(N)
    sum over i in S of x_i      >= v(S)   for every proper coalition S.

Feasibility is decided by a phase-1 simplex over Fractions with Bland's
rule, so the verdict is exact: a feasible point or a Farkas-style
infeasibility certificate (nonnegative multipliers for the inequalities,
free ones for the equalities, combining the system into 0 >= positive).
Constraint counts are exponential in the player count.  Core membership and
the separation scan between row-generation rounds are integer passes over
the game's worth table; the simplex sees only the rows activated so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ResourceCapError, ValidationError
from .games import Coalition, Game, WorthTable, lex_masks, max_players, subset_sums
from .rational import Rational, as_fraction


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: dict[str, Fraction]
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    """Equalities and >=-inequalities over named variables, all rational."""

    variables: tuple[str, ...]
    equalities: tuple[LinearConstraint, ...]
    inequalities: tuple[LinearConstraint, ...]

    @staticmethod
    def create(
        variables: Sequence[str],
        equalities: Sequence[tuple[Mapping[str, Rational], Rational]] = (),
        inequalities: Sequence[tuple[Mapping[str, Rational], Rational]] = (),
    ) -> "LinearSystem":
        vs = tuple(variables)
        vset = set(vs)

        def conv(rows):
            out = []
            for coeffs, rhs in rows:
                unknown = set(coeffs) - vset
                if unknown:
                    raise ValidationError(f"constraint references unknown variables {sorted(unknown)}")
                out.append(
                    LinearConstraint(
                        {v: as_fraction(c, f"coeff[{v}]") for v, c in coeffs.items()},
                        as_fraction(rhs, "rhs"),
                    )
                )
            return tuple(out)

        return LinearSystem(vs, conv(equalities), conv(inequalities))


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility.

    eq_multipliers (any sign) and ineq_multipliers (>= 0) combine the
    constraints into a row with all-zero variable coefficients and a
    strictly positive right-hand side: 0 >= positive, a contradiction.
    """

    eq_multipliers: tuple[Fraction, ...]
    ineq_multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    point: dict[str, Fraction] | None
    certificate: FarkasCertificate | None


def certificate_refutes(sys: LinearSystem, cert: FarkasCertificate) -> bool:
    """Exact check that the certificate derives 0 >= positive."""
    if len(cert.eq_multipliers) != len(sys.equalities):
        return False
    if len(cert.ineq_multipliers) != len(sys.inequalities):
        return False
    if any(m < 0 for m in cert.ineq_multipliers):
        return False
    combined = {v: Fraction(0) for v in sys.variables}
    rhs = Fraction(0)
    for m, con in zip(cert.eq_multipliers, sys.equalities):
        for v, c in con.coeffs.items():
            combined[v] += m * c
        rhs += m * con.rhs
    for m, con in zip(cert.ineq_multipliers, sys.inequalities):
        for v, c in con.coeffs.items():
            combined[v] += m * c
        rhs += m * con.rhs
    return all(c == 0 for c in combined.values()) and rhs > 0


def satisfies(sys: LinearSystem, point: Mapping[str, Fraction]) -> bool:
    """Exact check of a point against every constraint."""
    def lhs(con: LinearConstraint) -> Fraction:
        return sum((c * point[v] for v, c in con.coeffs.items()), Fraction(0))

    return all(lhs(c) == c.rhs for c in sys.equalities) and all(
        lhs(c) >= c.rhs for c in sys.inequalities
    )


def lp_feasible(sys: LinearSystem) -> FeasibilityResult:
    """Decide feasibility exactly; deterministic for identical inputs.

    Free variables are split into nonnegative pairs, inequalities get
    surplus variables, and a phase-1 simplex (Bland's rule) minimizes the
    artificial total.  Zero optimum yields a point, positive optimum yields
    Farkas multipliers read off the optimal dual values; both are verified
    exactly before returning.
    """
    nvar = len(sys.variables)
    var_index = {v: j for j, v in enumerate(sys.variables)}
    rows = list(sys.equalities) + list(sys.inequalities)
    n_eq = len(sys.equalities)
    m = len(rows)
    if m == 0:
        return FeasibilityResult(True, {v: Fraction(0) for v in sys.variables}, None)

    # Columns: u_0..  (x+), w_0..  (x-), s_0.. (surplus, inequalities only),
    # then one artificial per row.
    n_s = len(sys.inequalities)
    n_cols = 2 * nvar + n_s + m
    art0 = 2 * nvar + n_s

    tableau: list[list[Fraction]] = []
    flips: list[int] = []
    for ri, con in enumerate(rows):
        row = [Fraction(0)] * (n_cols + 1)
        for v, c in con.coeffs.items():
            j = var_index[v]
            row[j] = c
            row[nvar + j] = -c
        if ri >= n_eq:
            row[2 * nvar + (ri - n_eq)] = Fraction(-1)  # lhs - s = rhs
        row[-1] = con.rhs
        if row[-1] < 0:
            row = [-x for x in row]
            flips.append(-1)
        else:
            flips.append(1)
        row[art0 + ri] = Fraction(1)
        tableau.append(row)

    basis = [art0 + i for i in range(m)]

    # Phase-1 objective: minimize sum of artificials.  Reduced-cost row for
    # the current (all-artificial) basis: z_j = c_j - sum of column j over rows.
    cost = [Fraction(0)] * n_cols
    for j in range(art0, n_cols):
        cost[j] = Fraction(1)
    zrow = [Fraction(0)] * (n_cols + 1)
    for j in range(n_cols):
        zrow[j] = cost[j] - sum(tableau[i][j] for i in range(m))
    zrow[-1] = -sum(tableau[i][-1] for i in range(m))

    def pivot(pr: int, pc: int) -> None:
        piv = tableau[pr][pc]
        tableau[pr] = [x / piv for x in tableau[pr]]
        for i in range(m):
            if i != pr and tableau[i][pc] != 0:
                f = tableau[i][pc]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[pr])]
        if zrow[pc] != 0:
            f = zrow[pc]
            for j in range(n_cols + 1):
                zrow[j] -= f * tableau[pr][j]
        basis[pr] = pc

    while True:
        enter = next((j for j in range(n_cols) if zrow[j] < 0), None)  # Bland
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no ratio row found")
        pivot(leave, enter)

    objective = -zrow[-1]

    if objective == 0:
        point = {v: Fraction(0) for v in sys.variables}
        uw = [Fraction(0)] * (2 * nvar)
        for i, b in enumerate(basis):
            if b < 2 * nvar:
                uw[b] = tableau[i][-1]
        for v, j in var_index.items():
            point[v] = uw[j] - uw[nvar + j]
        if not satisfies(sys, point):
            raise AssertionError("exact simplex produced a non-satisfying point")
        return FeasibilityResult(True, point, None)

    # Dual values: reduced cost of artificial column k is 1 - y_k, and the
    # original-row multiplier undoes the sign flip applied to the row.
    mult = [flips[k] * (Fraction(1) - zrow[art0 + k]) for k in range(m)]
    cert = FarkasCertificate(tuple(mult[:n_eq]), tuple(mult[n_eq:]))
    if not certificate_refutes(sys, cert):
        raise AssertionError("exact simplex produced an invalid Farkas certificate")
    return FeasibilityResult(False, None, cert)


# ---------------------------------------------------------------------------
# Core of a game
# ---------------------------------------------------------------------------

def core_system(game: Game) -> LinearSystem:
    """The Core as a linear system over one variable per player."""
    t = game.table()
    full = len(t.nums) - 1
    ineqs = [_row(t, m) for m in lex_masks(len(t.ids)) if 0 < m < full]
    return LinearSystem.create(t.ids, [_row(t, full)], ineqs)


def _row(t: WorthTable, mask: int) -> tuple[dict[str, Fraction], Fraction]:
    """Coefficients and right-hand side of the Core constraint of one coalition."""
    return {i: Fraction(1) for i in t.members(mask)}, Fraction(t.nums[mask], t.den)


def _excess(t: WorthTable, x: Mapping[str, Fraction]) -> list[int]:
    """v(S) - x(S) for every mask, as integer numerators over one denominator."""
    den = math.lcm(t.den, *(x[i].denominator for i in t.ids))
    paid = subset_sums(x[i].numerator * (den // x[i].denominator) for i in t.ids)
    f = den // t.den
    return [v * f - p for v, p in zip(t.nums, paid)]


@dataclass(frozen=True)
class CoreMembership:
    in_core: bool
    # Lexicographically smallest coalition with v(S) > x(S), if any.
    violating_coalition: Coalition | None
    feasible: bool  # whether the payoff total equals v(N)


def core_contains(game: Game, payoff: Mapping[str, Rational]) -> CoreMembership:
    """Exact Core membership with a violated-coalition witness on failure."""
    x = {i: as_fraction(v, f"payoff[{i}]") for i, v in payoff.items()}
    if frozenset(x) != game.player_ids:
        raise ValidationError("payoff vector must cover exactly the game's players")
    t = game.table()
    excess = _excess(t, x)
    feasible = excess[-1] == 0
    # lexicographic order, so the first hit is the witness; the empty
    # coalition has excess 0 and never is one
    witness = next((m for m in lex_masks(len(t.ids)) if excess[m] > 0), None)
    violated = None if witness is None else frozenset(t.members(witness))
    return CoreMembership(feasible and witness is None, violated, feasible)


@dataclass(frozen=True)
class CoreExistence:
    nonempty: bool
    core_point: dict[str, Fraction] | None
    # Aligned with core_system(game): one multiplier per proper coalition in
    # lexicographic order, zero on rows the lazy solver never activated.
    certificate: FarkasCertificate | None


def core_is_nonempty(game: Game) -> CoreExistence:
    """Exact Core non-emptiness: a Core point, or an infeasibility certificate.

    Solved by lazy row generation: small LPs against an active constraint
    set, scanning all 2^n coalitions between rounds for the most violated
    one (ties to the lexicographically smallest).  A restricted-system
    Farkas certificate extends to the full system with zero multipliers on
    inactive rows.
    """
    if len(game.players) > max_players():
        raise ResourceCapError("player count exceeds the configured cap")
    t = game.table()
    eq = _row(t, len(t.nums) - 1)

    active = [1 << j for j in range(len(t.ids))]  # the singletons
    while True:
        sys_ = LinearSystem.create(t.ids, [eq], [_row(t, m) for m in active])
        res = lp_feasible(sys_)
        if not res.feasible:
            cert = _full_system_certificate(t, active, res.certificate)
            return CoreExistence(False, None, cert)
        worst = _worst_violated_coalition(t, res.point)
        if worst is None:
            membership = core_contains(game, res.point)
            if not membership.in_core:
                raise AssertionError("LP point failed the exact Core re-check")
            return CoreExistence(True, res.point, None)
        active.append(worst)  # always a new row, so at most 2^n rounds


def _worst_violated_coalition(t: WorthTable, point: Mapping[str, Fraction]) -> int | None:
    """Mask of the proper coalition with the largest positive excess, ties to
    the lexicographically smallest; None when no proper coalition is violated."""
    excess = _excess(t, point)
    full = len(excess) - 1
    top = max(excess[1:full], default=0)
    if top <= 0:
        return None
    return next(m for m in lex_masks(len(t.ids)) if 0 < m < full and excess[m] == top)


def _full_system_certificate(
    t: WorthTable, active: Sequence[int], cert: FarkasCertificate
) -> FarkasCertificate:
    multipliers = dict(zip(active, cert.ineq_multipliers))
    full = len(t.nums) - 1
    zero = Fraction(0)
    extended = FarkasCertificate(
        cert.eq_multipliers,
        tuple(multipliers.get(m, zero) for m in lex_masks(len(t.ids)) if 0 < m < full),
    )
    # cheap direct re-check; combining inactive rows adds nothing
    combined = {i: cert.eq_multipliers[0] for i in t.ids}
    rhs = cert.eq_multipliers[0] * Fraction(t.nums[full], t.den)
    for m, mult in multipliers.items():
        for i in t.members(m):
            combined[i] += mult
        rhs += mult * Fraction(t.nums[m], t.den)
    if any(c != 0 for c in combined.values()) or rhs <= 0:
        raise AssertionError("lazy-row Farkas certificate failed the exact re-check")
    return extended


# ---------------------------------------------------------------------------
# Balanced collections of weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalancedWeights:
    """Coalition weights in [0,1] summing to 1 over the coalitions of each player."""

    weights: Mapping[Coalition, Fraction]

    def is_valid_for(self, game: Game) -> bool:
        for s, w in self.weights.items():
            if not (0 <= w <= 1) or not s <= game.player_ids:
                return False
        for i in game.player_ids:
            tot = sum((w for s, w in self.weights.items() if i in s), Fraction(0))
            if tot != 1:
                return False
        return True


def balanced_inequality_holds(game: Game, weights: BalancedWeights) -> bool:
    """Check sum of w_S * v(S) <= v(N) for one balanced collection."""
    if not weights.is_valid_for(game):
        raise ValidationError("not a balanced collection of weights for this game")
    lhs = sum((w * game.worth(s) for s, w in weights.weights.items()), Fraction(0))
    return lhs <= game.worth(game.grand_coalition)
