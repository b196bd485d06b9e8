"""Core membership and non-emptiness via exact rational linear feasibility.

The Core system of a game is
    sum over all players of x_i  =  v(N)
    sum over i in S of x_i      >= v(S)   for every proper coalition S.

Feasibility is decided by an exact phase-1 simplex with Bland's rule, so
the verdict is exact: a feasible point or a Farkas-style infeasibility
certificate (nonnegative multipliers for the inequalities, free ones for
the equalities, combining the system into 0 >= positive).  The tableau is
fraction-free: each row is a list of ints over one positive denominator,
and Fractions appear only in the result.  Constraint counts are
exponential in the player count.  One scan serves Core membership and
row generation: an integer pass over the game's worth table that returns
the first violated coalition in `games.lex_masks` order, the order
`core_system` lists its rows in.  The simplex sees only the rows activated
so far, and `lp_feasible` checks each certificate once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .games import Coalition, Game, WorthTable, check_covers, lex_masks, subset_sums
from .rational import Rational, as_fraction


class LinearConstraint(NamedTuple):
    coeffs: dict[str, Fraction]
    rhs: Fraction


class LinearSystem(NamedTuple):
    """Equalities and >=-inequalities over named variables, all rational."""

    variables: tuple[str, ...]
    equalities: tuple[LinearConstraint, ...]
    inequalities: tuple[LinearConstraint, ...]


class FarkasCertificate(NamedTuple):
    """Multipliers proving infeasibility.

    eq_multipliers (any sign) and ineq_multipliers (>= 0) combine the
    constraints into a row with all-zero variable coefficients and a
    strictly positive right-hand side: 0 >= positive, a contradiction.
    """

    eq_multipliers: tuple[Fraction, ...]
    ineq_multipliers: tuple[Fraction, ...]


class FeasibilityResult(NamedTuple):
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
    rows = (*sys.equalities, *sys.inequalities)
    for m, con in zip((*cert.eq_multipliers, *cert.ineq_multipliers), rows):
        for v, c in con.coeffs.items():
            combined[v] += m * c
        rhs += m * con.rhs
    return all(c == 0 for c in combined.values()) and rhs > 0


def satisfies(sys: LinearSystem, point: Mapping[str, Fraction]) -> bool:
    """Exact check of a point against every constraint, in integers: the
    point over its common denominator, each row over its own."""
    den = math.lcm(*(x.denominator for x in point.values()))
    num = {v: x.numerator * (den // x.denominator) for v, x in point.items()}

    def excess(con: LinearConstraint) -> int:  # lhs - rhs, times a positive factor
        d = math.lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs.values()))
        lhs = sum(c.numerator * (d // c.denominator) * num[v] for v, c in con.coeffs.items())
        return lhs - con.rhs.numerator * (d // con.rhs.denominator) * den

    return all(excess(c) == 0 for c in sys.equalities) and all(
        excess(c) >= 0 for c in sys.inequalities
    )


def lp_feasible(sys: LinearSystem) -> FeasibilityResult:
    """Decide feasibility exactly; deterministic for identical inputs.

    Free variables are split into nonnegative pairs, inequalities get
    surplus variables, and a phase-1 simplex (Bland's rule) minimizes the
    artificial total.  Each tableau row, the reduced costs included, is a
    list of ints over one positive row denominator, gcd-reduced after every
    update; ratios compare by cross-multiplying.  So each value, choice and
    result is the Fraction tableau's.  Zero optimum yields a point, positive
    optimum yields Farkas multipliers read off the optimal dual values; both
    are verified exactly before returning.
    """
    nvar = len(sys.variables)
    var_index = {v: j for j, v in enumerate(sys.variables)}
    rows = list(sys.equalities) + list(sys.inequalities)
    n_eq = len(sys.equalities)
    m = len(rows)
    if m == 0:
        return FeasibilityResult(True, {v: Fraction(0) for v in sys.variables}, None)

    # Columns: u_0..  (x+), w_0..  (x-), s_0.. (surplus, inequalities only),
    # then one artificial per row.  Row i stands for tab[i] / den[i].
    n_s = len(sys.inequalities)
    n_cols = 2 * nvar + n_s + m
    art0 = 2 * nvar + n_s

    tab: list[list[int]] = []
    den: list[int] = []
    flips: list[int] = []
    for ri, con in enumerate(rows):
        d = math.lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs.values()))
        row = [0] * (n_cols + 1)
        for v, c in con.coeffs.items():
            j = var_index[v]
            row[j] = c.numerator * (d // c.denominator)
            row[nvar + j] = -row[j]
        if ri >= n_eq:
            row[2 * nvar + (ri - n_eq)] = -d  # lhs - s = rhs
        row[-1] = con.rhs.numerator * (d // con.rhs.denominator)
        flips.append(-1 if row[-1] < 0 else 1)
        row = [x * flips[-1] for x in row]
        row[art0 + ri] = d
        tab.append(row)
        den.append(d)

    basis = [art0 + i for i in range(m)]

    # Phase-1 objective: minimize sum of artificials.  Reduced-cost row for
    # the current (all-artificial) basis: z_j = c_j - sum of column j over
    # rows; it is row m of the tableau and sits in no ratio test.
    dz = math.lcm(*den)
    zrow = [0] * art0 + [dz] * m + [0]
    for row, d in zip(tab, den):
        f = dz // d
        for j, x in enumerate(row):
            if x:
                zrow[j] -= x * f
    tab.append(zrow)
    den.append(dz)

    def pivot(pr: int, pc: int) -> None:
        g = math.gcd(*tab[pr])
        prow = [x // g for x in tab[pr]]
        a = prow[pc]  # positive (the ratio test chose it); prow / a has 1 at pc
        tab[pr], den[pr] = prow, a
        cols = [j for j, x in enumerate(prow) if x]
        for i, row in enumerate(tab):
            f = row[pc]
            if f and i != pr:  # row - f * prow / a, over den * s with s = a / gcd(a, f)
                g = math.gcd(a, f)
                s, f = a // g, f // g
                if s > 1:
                    row = [x * s for x in row]
                for j in cols:
                    row[j] -= f * prow[j]
                d = den[i] * s
                g = math.gcd(d, *row)
                tab[i], den[i] = ([x // g for x in row], d // g) if g > 1 else (row, d)
        basis[pr] = pc

    while True:
        zrow = tab[m]
        enter = next((j for j in range(n_cols) if zrow[j] < 0), None)  # Bland
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                # ratios b/a compare by cross-multiplying; row denominators cancel
                c = -1 if leave is None else tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no ratio row found")
        pivot(leave, enter)

    if zrow[-1] == 0:
        point = {v: Fraction(0) for v in sys.variables}
        uw = [Fraction(0)] * (2 * nvar)
        for i, b in enumerate(basis):
            if b < 2 * nvar:
                uw[b] = Fraction(tab[i][-1], den[i])
        for v, j in var_index.items():
            point[v] = uw[j] - uw[nvar + j]
        if not satisfies(sys, point):
            raise AssertionError("exact simplex produced a non-satisfying point")
        return FeasibilityResult(True, point, None)

    # Dual values: reduced cost of artificial column k is 1 - y_k, and the
    # original-row multiplier undoes the sign flip applied to the row.
    mult = [flips[k] * (1 - Fraction(zrow[art0 + k], den[m])) for k in range(m)]
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
    ineqs = tuple(_row(t, m) for m in lex_masks(len(t.ids)) if 0 < m < full)
    return LinearSystem(t.ids, (_row(t, full),), ineqs)


def _row(t: WorthTable, mask: int) -> LinearConstraint:
    """The Core constraint of one coalition."""
    coeffs = {i: Fraction(1) for i in t.members(mask)}
    return LinearConstraint(coeffs, Fraction(t.nums[mask], t.den))


def _first_violated(t: WorthTable, x: Mapping[str, Fraction]) -> int | None:
    """Mask of the lexicographically first coalition with v(S) > x(S), or None:
    v(S) - x(S) as integers over one denominator, read in `lex_masks` order.
    The empty coalition has excess 0 and never is one."""
    den = math.lcm(t.den, *(x[i].denominator for i in t.ids))
    paid = subset_sums(x[i].numerator * (den // x[i].denominator) for i in t.ids)
    f = den // t.den
    excess = [v * f - p for v, p in zip(t.nums, paid)]
    return next((m for m in lex_masks(len(t.ids)) if excess[m] > 0), None)


class CoreMembership(NamedTuple):
    in_core: bool
    # Lexicographically smallest coalition with v(S) > x(S), if any.
    violating_coalition: Coalition | None
    feasible: bool  # whether the payoff total equals v(N)


def core_contains(game: Game, payoff: Mapping[str, Rational]) -> CoreMembership:
    """Exact Core membership with a violated-coalition witness on failure."""
    x = {i: as_fraction(v, f"payoff[{i}]") for i, v in payoff.items()}
    check_covers(game, x)
    t = game.table()
    feasible = sum(x.values(), Fraction(0)) == Fraction(t.nums[-1], t.den)
    witness = _first_violated(t, x)
    violated = None if witness is None else frozenset(t.members(witness))
    return CoreMembership(feasible and witness is None, violated, feasible)


class CoreExistence(NamedTuple):
    nonempty: bool
    core_point: dict[str, Fraction] | None
    # Aligned with core_system(game): one multiplier per proper coalition in
    # lexicographic order, zero on rows the lazy solver never activated (it
    # activates the singletons and the coalitions the membership scan finds).
    certificate: FarkasCertificate | None


def core_is_nonempty(game: Game) -> CoreExistence:
    """Exact Core non-emptiness: a Core point, or an infeasibility certificate.

    Solved by lazy row generation: small LPs against an active constraint
    set that starts from the singletons.  After each LP the membership scan
    (the one `core_contains` reads) takes the point's excess vector; the
    lexicographically first violated coalition becomes the next row, and a
    point with none is in the Core.  A restricted-system Farkas certificate
    extends to the full system with zero multipliers on inactive rows;
    `lp_feasible` has already checked it on the active rows, and the zeros
    change neither side of that check.
    """
    t = game.table()
    full = len(t.nums) - 1
    eq = (_row(t, full),)
    zero = Fraction(0)

    active = [1 << j for j in range(len(t.ids))]  # the singletons
    while True:
        res = lp_feasible(LinearSystem(t.ids, eq, tuple(_row(t, m) for m in active)))
        if not res.feasible:
            mult = dict(zip(active, res.certificate.ineq_multipliers))
            ineq = tuple(mult.get(m, zero) for m in lex_masks(len(t.ids)) if 0 < m < full)
            return CoreExistence(False, None, res.certificate._replace(ineq_multipliers=ineq))
        violated = _first_violated(t, res.point)
        if violated is None:
            if sum(res.point.values(), zero) != Fraction(t.nums[full], t.den):
                raise AssertionError("LP point's total misses v(N)")
            return CoreExistence(True, res.point, None)
        active.append(violated)  # the point meets every active row, so at most 2^n rounds
