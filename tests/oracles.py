"""Brute-force reference implementations the tests compare the library against."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Callable, Iterable

import numpy as np

from fairprice.corelp import FarkasCertificate, LinearSystem
from fairprice.fair_division import BargainingProblem
from fairprice.games import Game, PayoffVector
from fairprice.trust import TrustParams


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


def trust_moves(tp: TrustParams, state: tuple[int, int]) -> dict[str, tuple[int, int]]:
    """The state (fails, boosts) after a skip, a failure and a success, with
    the clamp decided on exact Fractions."""
    a, b = state
    skip = (0, 0) if tp.l**a * tp.g ** (b + 1) >= 1 else (a, b + 1)
    return {"skip": skip, "fail": (a + 1, b), "success": (0, 0) if tp.reset else state}


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
