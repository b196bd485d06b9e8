"""Fair payoff rules: Shapley value, argument-level values, Nash bargaining,
price schedules and a seller-misreport probe.

Player games use the classical Shapley value (factorial weights, exact
rationals, each coalition's worth summed once).  Argument games use a
uniform-weight marginal value: every coalition term carries weight 1/n!
instead of |S|!(n-1-|S|)!/n!, so only the coalitions the game lists are read.
That is the weighting under which the documented argument-game payouts
(3/5 & 2/5 under full declaration, 3/4 & 1/4 under withholding) come out
exactly; it coincides with the classical value for up to two declared arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .games import (
    Coalition,
    Game,
    PayoffVector,
    ScenarioMeta,
    as_coalition,
    check_size,
    coalition_items,
)
from .rational import Rational, as_fraction, brief_str

PAY_PER_RECOMMENDATION = "per-recommendation"
PAY_PER_SALE = "per-sale"


# ---------------------------------------------------------------------------
# Shapley value on player games
# ---------------------------------------------------------------------------

def shapley(game: Game) -> PayoffVector:
    """Exact Shapley value: expected marginal contribution over orderings.

    With w_s = s! (n-1-s)! for s < n and w_n = 0, each worth is summed once,
    in integers over the game's worth table:
        phi_i * n! = sum over S holding i of (w_(|S|-1) + w_|S|) v(S)
                     - sum over all S of w_|S| v(S).
    The masks holding bit i are every other run of 2^i masks.
    """
    t = game.table()
    n = len(t.ids)
    w = [math.factorial(s) * math.factorial(n - 1 - s) for s in range(n)] + [0]
    pair = [w[s - 1] + w[s] for s in range(n + 1)]  # pair[0] is never summed
    holding = [pair[m.bit_count()] * x for m, x in enumerate(t.nums)]
    without = sum(w[m.bit_count()] * x for m, x in enumerate(t.nums))
    scale = t.den * math.factorial(n)
    runs = ((bytes(1 << j) + b"\1" * (1 << j)) * (1 << (n - 1 - j)) for j in range(n))
    return {pid: Fraction(sum(compress(holding, run)) - without, scale)
            for pid, run in zip(t.ids, runs)}


# ---------------------------------------------------------------------------
# Argument games
# ---------------------------------------------------------------------------

class ArgumentGame(NamedTuple):
    """Worth function over purchase arguments plus per-recommender ownership.

    `arguments` is the full argument set; `worths` maps argument coalitions
    to nonnegative rationals (missing coalitions are worth 0); `ownership`
    assigns pairwise-disjoint argument sets to recommenders.  The union of
    the ownership sets is the declared set; arguments outside it are
    withheld but still part of the underlying game.
    """

    arguments: frozenset
    worths: Mapping[Coalition, Fraction]
    ownership: Mapping[str, frozenset]

    @staticmethod
    def create(
        arguments: Iterable[str],
        worths: Mapping[Iterable[str] | str, Rational],
        ownership: Mapping[str, Iterable[str]],
    ) -> "ArgumentGame":
        args = _distinct(arguments)
        table: dict[Coalition, Fraction] = {}
        for s, raw in coalition_items(worths.items(), "worth key"):
            if not s <= args:
                raise ValidationError(f"worth key {sorted(s)} uses unknown arguments")
            v = as_fraction(raw, f"worth[{sorted(s)}]")
            if v < 0:
                raise ValidationError(f"argument worth must be >= 0, got {brief_str(v)}")
            if not s and v != 0:
                raise ValidationError("the empty argument set must have worth 0")
            table[s] = v
        own: dict[str, frozenset] = {}
        claimed: set = set()
        for rec, raw_set in ownership.items():
            s = _distinct(raw_set, f" in the ownership of {rec!r}")
            if not s <= args:
                raise ValidationError(f"ownership of {rec!r} uses unknown arguments")
            if s & claimed:
                raise ValidationError(
                    f"ownership sets must be disjoint; {sorted(s & claimed)} claimed twice"
                )
            claimed |= s
            own[rec] = s
        return ArgumentGame(args, table, own)

    @property
    def declared(self) -> frozenset:
        sets = list(self.ownership.values())
        return frozenset().union(*sets) if sets else frozenset()

    def worth(self, coalition: Iterable[str] | str) -> Fraction:
        """Worth of an argument coalition; a str is one argument."""
        s = as_coalition(coalition)
        if not s <= self.arguments:
            raise ValidationError(f"unknown argument(s): {sorted(s - self.arguments)}")
        return self.worths.get(s, Fraction(0))


def _distinct(items: Iterable[str], where: str = "") -> frozenset:
    """The argument ids as a set; ValidationError at the first repeat."""
    seen: set = set()
    for x in items:
        if x in seen:
            raise ValidationError(f"argument {x!r} is given twice{where}")
        seen.add(x)
    return frozenset(seen)


def _uniform_marginal_value(worths: Mapping[Coalition, Fraction], ids: Sequence[str]) -> dict:
    """Per-element value with every coalition term weighted by 1/n!.

    `worths` is sparse over subsets of `ids`; missing coalitions are worth 0.
    Summed over S without a, v(S+a) - v(S) is the worth of the listed
    coalitions holding a minus the worth of the others, so only they are read.
    """
    n = len(ids)
    check_size(n, "arguments")  # bounds the n * |worths| terms and n!
    n_fact = math.factorial(n)
    return {a: sum((v if a in s else -v for s, v in worths.items()), Fraction(0)) / n_fact
            for a in ids}


def shapley_arguments(ag: ArgumentGame) -> dict[str, Fraction]:
    """Per-argument values of the worth function restricted to the declared set."""
    declared = ag.declared
    if not declared:
        raise ValidationError("no declared arguments")
    restricted = {s: v for s, v in ag.worths.items() if s <= declared}
    return _uniform_marginal_value(restricted, sorted(declared))


def anonymity_proof_shapley(ag: ArgumentGame) -> tuple[dict[str, Fraction], PayoffVector]:
    """Anonymity-proof rescaling of per-argument values.

    Values are computed on the full argument set, then the declared
    arguments' values are rescaled to sum to the worth of the declared set:
        psi_a = phi_a / (sum of phi over declared) * v(declared).
    Each recommender receives the sum of psi over the arguments they own.
    Withholding-proof only for monotone worths.  Unlisted coalitions are worth
    0, so {a, b}: 1 alone is not monotone: with r1 owning a and r2 owning b
    and c, r2 is paid 0 for declaring b and c but 1/2 for declaring b alone.

    When the declared values sum to zero the result is the all-zero vector
    if v(declared) = 0; otherwise the input is inconsistent and an error is
    raised.
    """
    declared = ag.declared
    if not declared:
        raise ValidationError("no declared arguments")
    full = _uniform_marginal_value(ag.worths, sorted(ag.arguments))
    denom = sum((full[a] for a in declared), Fraction(0))
    v_declared = ag.worth(declared)
    if denom == 0:
        if v_declared == 0:
            per_arg = {a: Fraction(0) for a in sorted(declared)}
        else:
            raise ValidationError(
                "declared arguments have zero total value but positive worth; "
                "inconsistent argument game"
            )
    else:
        per_arg = {a: full[a] / denom * v_declared for a in sorted(declared)}
    per_rec = {
        rec: sum((per_arg[a] for a in owned), Fraction(0))
        for rec, owned in ag.ownership.items()
    }
    return per_arg, per_rec


# ---------------------------------------------------------------------------
# Nash bargaining
# ---------------------------------------------------------------------------

class BargainingProblem(NamedTuple("BargainingProblem", [("total", Fraction),
                                                         ("disagreement", dict[str, Fraction])])):
    """Split a total among players relative to a disagreement point.

    The feasible set is the simplex of nonnegative payoffs summing to
    `total`; `disagreement` is what each player keeps if bargaining fails
    (here: the seller's stand-alone worth, zero for recommenders).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, total: Fraction, disagreement: dict[str, Fraction]):
        if not disagreement:
            raise ValidationError("a bargaining problem needs at least one player")
        if any(d < 0 for d in disagreement.values()):
            raise ValidationError("disagreement payoffs must be nonnegative")
        if total < sum(disagreement.values(), Fraction(0)):
            raise ValidationError("infeasible disagreement point: total below its sum")
        return super().__new__(cls, total, disagreement)


def bargaining_problem(game: Game) -> BargainingProblem:
    """The game's bargaining problem: split v(N), seller falls back on v({s})."""
    d = {game.seller: game.worth({game.seller})}
    for r in game.recommenders:
        d[r] = Fraction(0)
    return BargainingProblem(game.worth(game.grand_coalition), d)


def nash_bargaining(bp: BargainingProblem) -> PayoffVector:
    """Maximizer of the product of gains over the simplex: equal surplus split.

    Every player receives their disagreement payoff plus an equal share of
    the surplus, which is the closed-form argmax of prod(x_i - d_i) on the
    feasible simplex.
    """
    ids = sorted(bp.disagreement)
    surplus = bp.total - sum(bp.disagreement.values(), Fraction(0))
    share = surplus / len(ids)
    return {i: bp.disagreement[i] + share for i in ids}


# ---------------------------------------------------------------------------
# Prices
# ---------------------------------------------------------------------------

class PriceSchedule(NamedTuple):
    mode: str  # PAY_PER_RECOMMENDATION or PAY_PER_SALE
    prices: dict[str, Fraction]  # recommender id -> price


def payment_divisor(game: Game, mode: str) -> Fraction:
    """What a payment mode divides an expected payoff by to get a price: 1
    per recommendation, p + f(N) per sale; refuses a mode that cannot price
    the game."""
    if mode == PAY_PER_RECOMMENDATION:
        return Fraction(1)
    if mode != PAY_PER_SALE:
        raise ValidationError(f"unknown payment mode {mode!r}")
    if game.scenario is None:
        raise ValidationError("sale probability is only defined for scenario-built games")
    prob = game.scenario.sale_probability
    if prob == 0:
        raise ValidationError("pay-per-sale undefined: selling probability is 0")
    return prob


def to_prices(payoff: Mapping[str, Fraction], game: Game, mode: str) -> PriceSchedule:
    """Translate expected payoffs into per-recommender prices.

    Pay-per-recommendation pays x_r on every recommendation; pay-per-sale
    pays x_r / (p + f(N)) on successful ones only, so the expectation
    matches.
    """
    divisor = payment_divisor(game, mode)
    recs = game.recommenders
    missing = [r for r in recs if r not in payoff]
    if missing:
        raise ValidationError(f"payoff vector lacks recommenders {missing}")
    return PriceSchedule(mode, {r: Fraction(payoff[r]) / divisor for r in recs})


# ---------------------------------------------------------------------------
# Truthfulness probe
# ---------------------------------------------------------------------------

PricingRule = Callable[[Game], Mapping[str, Fraction]]


def shapley_rule(game: Game) -> Mapping[str, Fraction]:
    """Pricing rule paying each recommender their Shapley value."""
    phi = shapley(game)
    return {r: phi[r] for r in game.recommenders}


def zero_rule(game: Game) -> Mapping[str, Fraction]:
    """Pricing rule paying nothing."""
    return {r: Fraction(0) for r in game.recommenders}


class DeviationReport(NamedTuple):
    found: bool
    report: Game | None
    truthful_utility: Fraction
    best_utility: Fraction

    @property
    def gain(self) -> Fraction:
        return self.best_utility - self.truthful_utility


def scaled_report_grid(game: Game) -> list[Game]:
    """Misreport grid scaling the true margin by 0, 1/2 and 2."""
    return [scale_margin(game, f) for f in (0, Fraction(1, 2), 2)]


def scale_margin(game: Game, factor: Rational) -> Game:
    """The same scenario game with its margin scaled by a nonnegative factor.

    Every scenario worth (p + f(S)) * delta is linear in delta, so the
    scaled game's table is the game's table times the factor.
    """
    if game.scenario is None:
        raise ValidationError("margin scaling requires a scenario-built game")
    factor = as_fraction(factor, "factor")
    if factor < 0:
        raise ValidationError("margin factor must be nonnegative")
    meta = game.scenario

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        t = game.table()
        return t.den * factor.denominator, [x * factor.numerator for x in t.nums]

    scaled = ScenarioMeta(meta.delta * factor, meta.sale_probability)
    return Game(game.seller, game.recommenders, fill_table, scaled)


def truthfulness_probe(true_game: Game, pricing_rule: PricingRule) -> DeviationReport:
    """Search `scaled_report_grid(true_game)` for a profitable seller lie.

    The seller's true utility under report G' is the true grand-coalition
    worth minus the payments the rule assigns for G'.  Returns the
    best-gain misreport (earliest in grid order on ties) or a not-found
    report.
    """
    true_total = true_game.worth(true_game.grand_coalition)
    base = true_total - sum(pricing_rule(true_game).values(), Fraction(0))
    best: Game | None = None
    best_utility = base
    for reported in scaled_report_grid(true_game):
        utility = true_total - sum(pricing_rule(reported).values(), Fraction(0))
        if utility > best_utility:
            best = reported
            best_utility = utility
    return DeviationReport(best is not None, best, base, best_utility)
