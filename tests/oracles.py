"""Brute-force reference implementations the tests compare the library
against, and a guard that fails a test instead of letting it hang."""

import csv
import io
import math
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Callable, Iterable

import numpy as np

from fairprice.corelp import (
    FarkasCertificate,
    FeasibilityResult,
    LinearConstraint,
    LinearSystem,
    certificate_refutes,
)
from fairprice.errors import ValidationError
from fairprice.fair_division import ArgumentGame, BargainingProblem
from fairprice.games import Game, PayoffVector
from fairprice.trust import Policy, RewardCurve, TrustParams


Worth = Callable[[Iterable[str]], Fraction]


def scenario_worth(kind: str, p, delta, seller: str, **params) -> Worth:
    """The scenario formula v(S) = (p + f(S)) * delta, evaluated coalition by
    coalition from a builder's arguments; 0 on coalitions without the seller.

    `kind` is "linear" (params `q`: recommender -> q_i, f(S) = sum of q_i),
    "threshold" (params `k`, `q`: f(S) = q once S holds k recommenders) or
    "general" (params `f`: coalition -> uplift, 0 when missing).  It never
    reads a `Game`, so it checks the worth tables the builders fill.
    """
    p, delta = Fraction(p), Fraction(delta)

    def uplift(s: frozenset) -> Fraction:
        recs = s - {seller}
        if kind == "linear":
            return sum((Fraction(params["q"][r]) for r in recs), Fraction(0))
        if kind == "threshold":
            return Fraction(params["q"]) if len(recs) >= params["k"] else Fraction(0)
        if kind == "general":
            return Fraction(params["f"].get(s, 0))
        raise ValueError(kind)

    def worth(coalition: Iterable[str]) -> Fraction:
        s = frozenset(coalition)
        return (p + uplift(s)) * delta if seller in s else Fraction(0)

    return worth


def shapley_permutation_oracle(game: Game, worth: Worth | None = None) -> PayoffVector:
    """Brute-force oracle: average marginal contributions over all n! orderings.

    Independent of `shapley`.  It reads `worth`, by default `Game.worth`,
    which reads the game's worth table; pass `scenario_worth` to be
    independent of the table as well.  Only usable for small player counts.
    """
    worth = game.worth if worth is None else worth
    ids = sorted(game.player_ids)
    n_fact = math.factorial(len(ids))
    totals = {i: Fraction(0) for i in ids}
    for order in permutations(ids):
        seen: frozenset = frozenset()
        prev = Fraction(0)
        for pid in order:
            seen = seen | {pid}
            cur = worth(seen)
            totals[pid] += cur - prev
            prev = cur
    return {i: t / n_fact for i, t in totals.items()}


def scenario_shapley_oracle(kind: str, p, delta, seller: str, recommenders: Iterable[str],
                            **params) -> PayoffVector:
    """Closed-form Shapley value of a linear or threshold scenario game, from
    the builder's arguments; `kind` and `params` as in `scenario_worth`.

    The seller is a veto player, so a recommender adds to a coalition only
    when the seller precedes it in the ordering.  Linear: i adds q_i * delta
    when the seller precedes it (probability 1/2).  Threshold (n
    recommenders, k needed): i adds q * delta when the seller and exactly
    k - 1 recommenders precede it (probability k / (n (n + 1))).  The seller
    keeps p * delta and the rest of each increment.  Needs no enumeration, so
    it runs at any size.
    """
    p, delta = Fraction(p), Fraction(delta)
    recs = list(recommenders)
    n = len(recs)
    if kind == "linear":
        q = {r: Fraction(params["q"][r]) for r in recs}
        phi = {r: q[r] * delta / 2 for r in recs}
        phi_s = p * delta + delta * sum(q.values(), Fraction(0)) / 2
    elif kind == "threshold":
        q, k = Fraction(params["q"]), params["k"]
        phi = {r: q * delta * k / (n * (n + 1)) for r in recs}
        phi_s = p * delta + q * delta * (n + 1 - k) / (n + 1)
    else:
        raise ValueError(kind)
    return {seller: phi_s, **phi}


def shapley_pair_oracle(game: Game) -> PayoffVector:
    """The subset-sum formula walked pair by pair over the game's worth table:
        phi_j = sum over masks m without bit j of
                |m|! (n-1-|m|)! / n! * (v(m + j) - v(m)).
    Exponential but fast enough for 16 players, where the permutation
    oracle is not."""
    t = game.table()
    n = len(t.ids)
    weights = [math.factorial(s) * math.factorial(n - 1 - s) for s in range(n)]
    scale = t.den * math.factorial(n)
    phi = {}
    for j, pid in enumerate(t.ids):
        b = 1 << j
        total = sum(weights[bin(m).count("1")] * (t.nums[m | b] - t.nums[m])
                    for m in range(1 << n) if not m & b)
        phi[pid] = Fraction(total, scale)
    return phi


def argument_value_oracle(ag: ArgumentGame, ids: Iterable[str]) -> dict[str, Fraction]:
    """Uniform-weight marginal value of each argument in `ids`, over the game
    restricted to them: the sum over all subsets S of `ids` without a of
    v(S + a) - v(S), divided by n!, each worth read through `ArgumentGame.worth`."""
    ids = sorted(ids)
    subsets = [frozenset(c) for r in range(len(ids) + 1) for c in combinations(ids, r)]
    n_fact = math.factorial(len(ids))
    return {
        a: sum((ag.worth(s | {a}) - ag.worth(s) for s in subsets if a not in s), Fraction(0))
        / n_fact
        for a in ids
    }


def seller_veto_core_oracle(
    ids: Iterable[str], worth: Worth, system: LinearSystem
) -> FarkasCertificate | None:
    """None when the Core is nonempty, else a 0/1 Farkas certificate over
    `system`, the game's Core system (one equality, then one inequality per
    proper nonempty coalition).

    Every game here is a seller-veto game: worth 0 without the seller and
    >= 0 with it.  Its Core is nonempty iff v(N) is the largest worth (the
    seller takes v(N)).  Otherwise, with S the lexicographically first
    coalition of largest worth, -1 on x(N) = v(N), 1 on x(S) >= v(S) and 1 on
    x_i >= v({i}) for each i outside S derive 0 >= v(S) - v(N) + (sum of
    v({i})) > 0.
    """
    ids = sorted(ids)
    lex = sorted(chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1)))
    best = frozenset(max(lex, key=worth))  # max keeps the first of equal worths
    if worth(best) == worth(ids):
        return None
    rows = [frozenset(con.coeffs) for con in system.inequalities]
    ineq = tuple(Fraction(int(r == best or (len(r) == 1 and not r <= best))) for r in rows)
    return FarkasCertificate((Fraction(-1),), ineq)


def bondareva_shapley_oracle(game: Game, weights: dict[frozenset, Fraction]) -> bool:
    """Whether the sum of w_S * v(S) stays within v(N) for one balanced
    collection `weights`: each player's coalitions weigh 1 in total.  By
    Bondareva-Shapley the Core is nonempty iff this holds for every minimal
    balanced collection."""
    assert all(sum(w for s, w in weights.items() if i in s) == 1 for i in game.player_ids)
    return sum(w * game.worth(s) for s, w in weights.items()) <= game.worth(game.grand_coalition)


def linear_system(variables, equalities=(), inequalities=()) -> LinearSystem:
    """A LinearSystem from (coefficient mapping, right-hand side) pairs of
    ints or Fractions."""
    def rows(pairs) -> tuple[LinearConstraint, ...]:
        return tuple(LinearConstraint({v: Fraction(c) for v, c in coeffs.items()}, Fraction(rhs))
                     for coeffs, rhs in pairs)

    return LinearSystem(tuple(variables), rows(equalities), rows(inequalities))


def satisfies_oracle(sys: LinearSystem, point: dict[str, Fraction]) -> bool:
    """`corelp.satisfies` in Fractions: each row's left-hand side summed
    term by term and compared with its right-hand side."""
    def lhs(con) -> Fraction:
        return sum((c * point[v] for v, c in con.coeffs.items()), Fraction(0))

    return all(lhs(c) == c.rhs for c in sys.equalities) and all(
        lhs(c) >= c.rhs for c in sys.inequalities
    )


def dense_simplex_oracle(sys: LinearSystem) -> FeasibilityResult:
    """`corelp.lp_feasible` as a dense tableau: every pivot divides the whole
    pivot row and rebuilds every row with a nonzero pivot-column entry in
    full, and the initial reduced costs sum whole columns.  The same Bland
    choices on the same values, so its result must equal the sparse one.

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
        if not satisfies_oracle(sys, point):
            raise AssertionError("exact simplex produced a non-satisfying point")
        return FeasibilityResult(True, point, None)

    # Dual values: reduced cost of artificial column k is 1 - y_k, and the
    # original-row multiplier undoes the sign flip applied to the row.
    mult = [flips[k] * (Fraction(1) - zrow[art0 + k]) for k in range(m)]
    cert = FarkasCertificate(tuple(mult[:n_eq]), tuple(mult[n_eq:]))
    if not certificate_refutes(sys, cert):
        raise AssertionError("exact simplex produced an invalid Farkas certificate")
    return FeasibilityResult(False, None, cert)


def nash_product_grid_oracle(bp: BargainingProblem, steps: int = 60) -> PayoffVector:
    """Test oracle: grid search of argmax prod(x_i - d_i) on the simplex.

    Exhaustive over compositions of `steps` grid increments; exponential in
    the player count, so only for small problems.
    """
    ids = sorted(bp.disagreement)
    d = [bp.disagreement[i] for i in ids]
    surplus = bp.total - sum(d, Fraction(0))
    n = len(ids)
    if surplus == 0:
        return dict(zip(ids, d))

    best_val = None
    best = None

    def rec(idx: int, remaining: int, shares: list[int]):
        nonlocal best_val, best
        if idx == n - 1:
            alloc = shares + [remaining]
            prod = Fraction(1)
            for a in alloc:
                prod *= Fraction(a, steps) * surplus
            if best_val is None or prod > best_val:
                best_val = prod
                best = alloc
            return
        for take in range(remaining + 1):
            rec(idx + 1, remaining - take, shares + [take])

    rec(0, steps, [])
    return {i: d_i + Fraction(b, steps) * surplus for i, d_i, b in zip(ids, d, best)}


# ---------------------------------------------------------------------------
# Trust decay
# ---------------------------------------------------------------------------

def clamp_columns(l: Fraction, g: Fraction, rows: int, cap: int) -> list[int]:
    """col[a], a < rows: the least b with l^a * g^(b+1) >= 1, capped at `cap`,
    by exact big-integer products.  col is nondecreasing in a, so one pointer
    moves across all rows; the products grow with a, which makes this slow
    for many-digit l and g."""
    ln, ld = l.numerator, l.denominator
    gn, gd = g.numerator, g.denominator
    col = []
    lhs, rhs = gn, gd  # l^a * g^(b+1) as numerator and denominator
    b = 0
    for _ in range(rows):
        while b < cap and lhs < rhs:
            b += 1
            lhs *= gn
            rhs *= gd
        col.append(b)
        lhs *= ln
        rhs *= ld
    return col


def decay_series_oracle(p0, l) -> tuple[float, float, float]:
    """The no-recovery decay series at x_i = p0 * l^i from exact partial
    sums: the sum of x_i/(1-x_i) (the no-reset total at r = 1), the product
    q of (1-x_i) (the never-succeed probability) and (1-q)/q (the with-reset
    total at r = 1), each rounded to float once at the end.

    The partial sums stop after the first term t with t * l/(1-l) < 1e-30:
    each term is at most l times the one before, so the rest of the sum is
    below that, and the rest of the product a factor within it of 1.  The
    terms are exact Fractions p0 l^i, kept as integer pairs and added by
    binary splitting, so the sums take a few large products, not one gcd
    per term.
    """
    p0, l = Fraction(p0), Fraction(l)
    a, b, c, d = p0.numerator, p0.denominator, l.numerator, l.denominator
    n, x = 1, p0
    while l and x / (1 - x) * l / (1 - l) >= Fraction(1, 10**30):
        n, x = n + 1, x * l

    def split(lo: int, hi: int) -> tuple[int, int]:
        # the sum over lo <= i < hi, as num/den with den = prod of b d^i - a c^i
        if hi - lo == 1:
            num = a * c**lo
            return num, b * d**lo - num
        mid = (lo + hi) // 2
        (sn, sd), (tn, td) = split(lo, mid), split(mid, hi)
        return sn * td + tn * sd, sd * td

    num, den = split(0, n)
    q_den = b**n * d ** (n * (n - 1) // 2)  # prod of b d^i: q = den / q_den
    return num / den, den / q_den, (q_den - den) / den


def trust_moves(tp: TrustParams, state: tuple[int, int]) -> dict[str, tuple[int, int]]:
    """The state (fails, boosts) after a skip, a failure and a success, with
    the clamp decided on exact Fractions."""
    a, b = state
    skip = (0, 0) if tp.l**a * tp.g ** (b + 1) >= 1 else (a, b + 1)
    return {"skip": skip, "fail": (a + 1, b), "success": (0, 0) if tp.reset else state}


class MaskPolicy(Policy):
    """Answers every question with `mask` as given, whatever the states:
    a test sets the decisions of a kernel step with it, or a malformed
    answer."""

    name = "mask"

    def __init__(self, mask):
        self.mask = mask

    def decision_mask(self, step, fails, boosts):
        return self.mask


class RecordingPolicy(MaskPolicy):
    """Keeps a copy of the (fails, boosts) arrays of each question in
    `asked`, and answers `mask`, or skip in every state without one."""

    name = "recording"

    def __init__(self, mask=None):
        super().__init__(mask)
        self.asked = []

    def decision_mask(self, step, fails, boosts):
        self.asked.append((fails.copy(), boosts.copy()))
        return np.zeros(np.shape(fails), dtype=bool) if self.mask is None else self.mask


def _walk_cells(tp: TrustParams, policy, n: int, start, split):
    """Yields, after each of n steps, the weights of the cells (fails,
    boosts, successes) that carry some, moved over `trust_moves` from
    `start` in cell (0, 0, 0).

    Cells are visited in the kernel's order (depth fails + boosts, then
    fails, then successes).  A cell recommends where `policy.decide(step,
    fails, boosts)` says so; `split(weight, p)`, p the state's exact success
    probability, gives its winners' and losers' weights.  With g = 1 a skip
    never changes trust and the boosts count stays 0, as the library's
    states keep it.
    """
    cells = {(0, 0, 0): start}
    for step in range(1, n + 1):
        moved: dict[tuple[int, int, int], object] = {}
        for (a, b, c), w in sorted(cells.items(), key=lambda cw: (sum(cw[0][:2]), cw[0][0], cw[0][2])):
            moves = trust_moves(tp, (a, b))
            if not policy.decide(step, a, b):
                to = [(moves["skip"] if tp.g != 1 else (a, b), c, w)]
            else:
                won, lost = split(w, tp.p0 * tp.l**a * tp.g**b)
                to = [(moves["success"], c + 1, won), (moves["fail"], c, lost)]
            for (a2, b2), c2, w2 in to:
                if w2:
                    moved[a2, b2, c2] = moved.get((a2, b2, c2), 0) + w2
        cells = moved
        yield cells


def mc_cell_oracle(tp: TrustParams, policy, n: int, trials: int, seed: int
                   ) -> list[tuple[Fraction, Fraction]]:
    """Monte Carlo walked as trial counts over cells in a dict, over
    `trust_moves`, no kernel.

    Reads the draws `mc_simulate` reads: one PCG64 stream seeded with
    `seed`, one scalar `binomial(count, p)` per recommending cell in cell
    order, p the state's exact success probability rounded to float.
    Returns, per step, the mean of the trials' success counts and the
    variance of that mean (sample variance over trials), as exact Fractions.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(count: int, p: Fraction) -> tuple[int, int]:
        won = int(rng.binomial(count, float(p)))
        return won, count - won

    moments = []
    for cells in _walk_cells(tp, policy, n, trials, draw):
        mean = Fraction(sum(w * c for (_, _, c), w in cells.items()), trials)
        dev = sum(w * (c - mean) ** 2 for (_, _, c), w in cells.items())
        moments.append((mean, dev / (trials * (trials - 1)) if trials > 1 else Fraction(0)))
    return moments


def mc_law_oracle(tp: TrustParams, policy, n: int) -> list[tuple[Fraction, Fraction]]:
    """The exact law Monte Carlo samples: per step, the mean and variance of
    one trial's success count, from the cell probabilities as Fractions."""
    moments = []
    for cells in _walk_cells(tp, policy, n, Fraction(1), lambda w, p: (w * p, w * (1 - p))):
        mean = sum(w * c for (_, _, c), w in cells.items())
        moments.append((mean, sum(w * c * c for (_, _, c), w in cells.items()) - mean**2))
    return moments


def reachable_states(tp: TrustParams, n: int) -> list[set]:
    """levels[i]: the states that can be occupied after i steps, by search."""
    levels = [{(0, 0)}]
    for _ in range(n):
        levels.append({m for s in levels[-1] for m in trust_moves(tp, s).values()})
    return levels


def state_dp_oracle(tp: TrustParams):
    """Finite-horizon DP over (fails, boosts) tuples, memoized by dict; the
    success probability of a state is its exact value rounded to float."""

    @lru_cache(maxsize=None)
    def value(t: int, state: tuple[int, int]) -> float:
        if t == 0:
            return 0.0
        moves = trust_moves(tp, state)
        p = float(tp.p0 * tp.l ** state[0] * tp.g ** state[1])
        rec = p * (float(tp.r) + value(t - 1, moves["success"])) + (1 - p) * value(
            t - 1, moves["fail"]
        )
        return max(value(t - 1, moves["skip"]), rec)

    return value


def history_tree_oracle(tp: TrustParams, t: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact optimal reward over t steps from full trust, by searching every
    recommend/skip history with no merging of equal states.

    Tracks the trust probability itself as a Fraction: a failure multiplies
    it by l, a skip by g up to p0, a success resets it to p0 or keeps it.
    Returns (optimal value, value of skipping first, value of recommending
    first).  Exponential in t: only for t <= 8 or so.
    """

    def best(steps: int, p: Fraction) -> Fraction:
        if steps == 0:
            return Fraction(0)
        return max(skip(steps, p), rec(steps, p))

    def skip(steps: int, p: Fraction) -> Fraction:
        return best(steps - 1, min(tp.p0, p * tp.g))

    def rec(steps: int, p: Fraction) -> Fraction:
        after = tp.p0 if tp.reset else p
        return p * (tp.r + best(steps - 1, after)) + (1 - p) * best(steps - 1, p * tp.l)

    return best(t, tp.p0), skip(t, tp.p0), rec(t, tp.p0)


def dense_dp_oracle(tp: TrustParams, n: int) -> tuple[list[float], list]:
    """The dynamic program over the dense (n+2) x (n+2) grid of exponent
    pairs (fails, boosts), reachable or not.

    Returns the curve V(t, (0, 0)) for t = 1..n and tables[t][fails, boosts]
    (recommend iff strictly better than skip).  Cell values are the float
    product p0 * l^a * g^b, so it is only an oracle where neither power
    under- or overflows.
    """
    size = n + 2
    p0f, lf, gf = float(tp.p0), float(tp.l), float(tp.g)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.power(lf, np.arange(size))[:, None] * np.power(gf, np.arange(size))[None, :]
    grid = np.nan_to_num(grid, nan=0.0, posinf=np.inf)
    if lf == 0.0:
        grid[1:, :] = 0.0
    value = np.minimum(p0f, p0f * grid)
    clamp = np.zeros((size, size), dtype=bool)
    for a in range(size):
        for b in range(size):
            clamp[a, b] = tp.l**a * tp.g ** (b + 1) >= 1
    rf = float(tp.r)

    v = np.zeros((size, size))
    tables: list = [None]
    curve = []
    for _rem in range(1, n + 1):
        v_shift_b = np.empty_like(v)  # V[a, b+1]
        v_shift_b[:, :-1] = v[:, 1:]
        v_shift_b[:, -1] = v[:, -1]
        v_skip = np.where(clamp, v[0, 0], v_shift_b)

        v_shift_a = np.empty_like(v)  # V[a+1, b]
        v_shift_a[:-1, :] = v[1:, :]
        v_shift_a[-1, :] = v[-1, :]
        v_success = v[0, 0] if tp.reset else v
        v_rec = value * (rf + v_success) + (1.0 - value) * v_shift_a

        tables.append(v_rec > v_skip)
        v = np.maximum(v_skip, v_rec)
        curve.append(float(v[0, 0]))
    return curve, tables


# ---------------------------------------------------------------------------
# Parsers of the CLI's CSV outputs
# ---------------------------------------------------------------------------

def read_results_csv(text: str) -> list[dict]:
    """Rows of a `price --format csv` document: id, method, value strings."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["id", "method", "value"]:
        raise ValidationError(f"unexpected CSV header: {header}")
    out = []
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise ValidationError(f"malformed CSV row: {row}")
        out.append({"id": row[0], "method": row[1], "value": row[2]})
    return out


def read_curve_csv(text: str) -> list[RewardCurve]:
    """The curves of a `simulate --format csv` document, one per policy."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["step", "policy", "expected_cumulative_reward", "stderr"]:
        raise ValidationError(f"unexpected CSV header: {header}")
    by_policy: dict[str, list[tuple[int, float, float | None]]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"malformed CSV row: {row}")
        step, policy, value, err = row
        by_policy.setdefault(policy, []).append(
            (int(step), float(value), None if err == "" else float(err))
        )
    curves = []
    for policy, rows in by_policy.items():
        rows.sort()
        if [s for s, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValidationError(f"non-contiguous steps for policy {policy!r}")
        values = tuple(v for _, v, _ in rows)
        errs = tuple(e for _, _, e in rows)
        curves.append(
            RewardCurve(policy, values, None if all(e is None for e in errs) else errs)
        )
    return curves


@contextmanager
def time_limit(seconds: float):
    """Fail instead of hanging: a pivot that leaves a stale reduced-cost row
    can make Bland's rule re-enter the same column forever, and a series
    summed term by term runs for hours as l -> 1."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
