"""Brute-force reference implementations the tests compare the library against."""

import math
from fractions import Fraction
from itertools import permutations

from fairprice.fair_division import BargainingProblem
from fairprice.games import Game, PayoffVector


def shapley_permutation_oracle(game: Game) -> PayoffVector:
    """Brute-force oracle: average marginal contributions over all n! orderings.

    Independent of `shapley` and of the worth table: it calls `Game.worth`,
    which evaluates the scenario formula.  Only usable for small player counts.
    """
    ids = sorted(game.player_ids)
    n_fact = math.factorial(len(ids))
    totals = {i: Fraction(0) for i in ids}
    for order in permutations(ids):
        seen: frozenset = frozenset()
        prev = Fraction(0)
        for pid in order:
            seen = seen | {pid}
            cur = game.worth(seen)
            totals[pid] += cur - prev
            prev = cur
    return {i: t / n_fact for i, t in totals.items()}


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
