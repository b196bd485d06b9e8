"""Coalitional recommendation games with transferable payoff.

One seller, n recommenders.  A game assigns every coalition of players an
exact rational worth; coalitions without the seller are always worth 0.
Three scenario constructors are provided:

* linear:    selling probability p plus an increment q_i per recommender,
             worth(S) = (p + sum of q_i over recommenders in S) * delta
* threshold: probability jumps from p to p+q once at least k recommenders
             are in the coalition
* general:   an arbitrary per-coalition uplift table f with values in
             [0, 1-p], worth(S) = (p + f(S)) * delta

Games may also be built from an explicit worth table (used by tests and
property checks).  All arithmetic is exact; floats never enter here.

`Game.worth` evaluates the scenario formula for one coalition.  The pricing
code reads `Game.table()` instead: the worth of every coalition as integer
numerators over one common denominator, indexed by bitmask, which each
builder fills without evaluating the formula coalition by coalition.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import ResourceCapError, ValidationError
from .rational import Rational, as_fraction

SELLER = "seller"
RECOMMENDER = "recommender"

DEFAULT_MAX_PLAYERS = 16
MAX_PLAYERS_ENV = "FAIRPRICE_MAX_PLAYERS"

# A coalition is a frozenset of player ids; a payoff vector is a plain
# mapping player id -> Fraction.
Coalition = frozenset
PayoffVector = dict[str, Fraction]


def max_players() -> int:
    """Player cap; 16 by default, overridable via FAIRPRICE_MAX_PLAYERS."""
    raw = os.environ.get(MAX_PLAYERS_ENV)
    if raw is None:
        return DEFAULT_MAX_PLAYERS
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_PLAYERS_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValidationError(f"{MAX_PLAYERS_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class Player:
    id: str
    kind: str  # SELLER or RECOMMENDER

    def __post_init__(self):
        if self.kind not in (SELLER, RECOMMENDER):
            raise ValidationError(f"unknown player kind {self.kind!r}")


class WorthTable(NamedTuple):
    """v(S) = nums[mask(S)] / den, where bit j of a mask stands for ids[j]."""

    ids: tuple[str, ...]  # sorted player ids
    den: int
    nums: list[int]

    def members(self, mask: int) -> tuple[str, ...]:
        """The sorted ids of the coalition a mask stands for."""
        return tuple(pid for j, pid in enumerate(self.ids) if mask >> j & 1)


@lru_cache(maxsize=None)
def lex_masks(n: int) -> tuple[int, ...]:
    """All 2^n masks in lexicographic order of their sorted-id tuples.

    That order is the DFS preorder of the subset tree: the masks over bits
    j..n-1 are {j}, then {j} joined with each mask over bits j+1..n-1, then
    the masks over bits j+1..n-1.
    """
    tail: list[int] = []
    for j in reversed(range(n)):
        b = 1 << j
        tail = [b, *(b | m for m in tail), *tail]
    return (0, *tail)


def subset_sums(values: Iterable[int]) -> list[int]:
    """sums[mask] = sum of values[j] over the bits j set in mask."""
    sums = [0]
    for v in values:
        sums += [x + v for x in sums]
    return sums


def popcounts(n: int) -> list[int]:
    """counts[mask] = number of bits set in mask, for every mask over n bits."""
    return subset_sums([1] * n)


@dataclass(frozen=True)
class ScenarioMeta:
    """Parameters a game was built from (None for raw table games)."""

    kind: str  # "linear" | "threshold" | "general"
    p: Fraction
    delta: Fraction
    params: dict = field(compare=False)


class Game:
    """Immutable coalitional game ⟨players, worth⟩.

    `worth` is total over coalitions, nonnegative, zero on the empty set
    and on every coalition that excludes the seller.  `fill_table` maps the
    sorted player ids to (den, nums) of the same worth function; it runs
    once, on the first call to `table`.
    """

    def __init__(
        self,
        players: tuple[Player, ...],
        worth_fn: Callable[[Coalition], Fraction],
        fill_table: Callable[[tuple[str, ...]], tuple[int, list[int]]],
        scenario: ScenarioMeta | None,
    ):
        ids = [p.id for p in players]
        if len(set(ids)) != len(ids):
            raise ValidationError("player ids must be unique")
        sellers = [p for p in players if p.kind == SELLER]
        if len(sellers) != 1:
            raise ValidationError(f"exactly one seller required, got {len(sellers)}")
        cap = max_players()
        if len(players) > cap:
            raise ResourceCapError(
                f"{len(players)} players exceeds the cap of {cap} "
                f"(override with {MAX_PLAYERS_ENV})"
            )
        self._players = players
        self._ids = frozenset(ids)
        self._sorted_ids = tuple(sorted(ids))
        self._seller = sellers[0].id
        self._worth_fn = worth_fn
        self._fill_table = fill_table
        self._table: WorthTable | None = None
        self._scenario = scenario

    @property
    def scenario(self) -> ScenarioMeta | None:
        return self._scenario

    @property
    def players(self) -> tuple[Player, ...]:
        return self._players

    @property
    def player_ids(self) -> frozenset:
        return self._ids

    @property
    def seller(self) -> str:
        return self._seller

    @property
    def recommenders(self) -> tuple[str, ...]:
        return tuple(p.id for p in self._players if p.kind == RECOMMENDER)

    @property
    def grand_coalition(self) -> Coalition:
        return self._ids

    def worth(self, coalition: Iterable[str]) -> Fraction:
        """Exact worth v(S); raises on unknown player ids."""
        s = frozenset(coalition)
        unknown = s - self._ids
        if unknown:
            raise ValidationError(f"unknown player id(s) in coalition: {sorted(unknown)}")
        if self._seller not in s:
            return Fraction(0)
        return self._worth_fn(s)

    def table(self) -> WorthTable:
        """The worth of every coalition, built on first use and then cached."""
        if self._table is None:
            den, nums = self._fill_table(self._sorted_ids)
            self._table = WorthTable(self._sorted_ids, den, nums)
        return self._table

    def coalitions(self) -> Iterable[Coalition]:
        """All 2^|N| coalitions, in lexicographic order of sorted-id tuples."""
        ids = self._sorted_ids
        for m in lex_masks(len(ids)):
            yield frozenset(pid for j, pid in enumerate(ids) if m >> j & 1)

    def sale_probability(self) -> Fraction:
        """p + f(N), the grand-coalition selling probability (scenario games)."""
        if self.scenario is None:
            raise ValidationError("sale probability is only defined for scenario-built games")
        return self.scenario.p + self._uplift(self._ids)

    def _uplift(self, s: Coalition) -> Fraction:
        meta = self.scenario
        recs = frozenset(r for r in s if r != self._seller)
        if meta.kind == "linear":
            qs = meta.params["q"]
            return sum((qs[r] for r in recs), Fraction(0))
        if meta.kind == "threshold":
            return meta.params["q"] if len(recs) >= meta.params["k"] else Fraction(0)
        if meta.kind == "general":
            return meta.params["f"].get(s, Fraction(0))
        raise AssertionError(meta.kind)


def _mk_players(seller: str, recommenders: Iterable[str]) -> tuple[Player, ...]:
    return (Player(seller, SELLER),) + tuple(Player(r, RECOMMENDER) for r in recommenders)


def _default_ids(n: int) -> list[str]:
    return [f"r{i}" for i in range(1, n + 1)]


def build_linear(
    p: Rational,
    delta: Rational,
    qs: Iterable[Rational] | Mapping[str, Rational],
    *,
    seller: str = "s",
    recommenders: Iterable[str] | None = None,
) -> Game:
    """Linear scenario: each recommender adds q_i to the selling probability."""
    p = as_fraction(p, "p")
    delta = as_fraction(delta, "delta")
    if isinstance(qs, Mapping):
        q_map = {r: as_fraction(v, f"q[{r}]") for r, v in qs.items()}
        rec_ids = list(q_map)
    else:
        q_list = [as_fraction(v, "q") for v in qs]
        rec_ids = list(recommenders) if recommenders is not None else _default_ids(len(q_list))
        if len(rec_ids) != len(q_list):
            raise ValidationError("length of qs must match number of recommenders")
        q_map = dict(zip(rec_ids, q_list))
    _check_probability(p, "p")
    if delta < 0:
        raise ValidationError(f"delta must be >= 0, got {delta}")
    for r, q in q_map.items():
        if q < 0:
            raise ValidationError(f"q[{r}] must be >= 0, got {q}")
    if p + sum(q_map.values(), Fraction(0)) > 1:
        raise ValidationError("p + sum(q_i) exceeds 1 (probability overflow)")

    players = _mk_players(seller, rec_ids)
    meta = ScenarioMeta("linear", p, delta, {"q": q_map})

    def worth_fn(s: Coalition) -> Fraction:
        extra = sum((q_map[r] for r in s if r != seller), Fraction(0))
        return (p + extra) * delta

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        # the seller's bit carries p*delta, each recommender's bit q_i*delta
        terms = [p * delta if pid == seller else q_map[pid] * delta for pid in ids]
        den = math.lcm(*(t.denominator for t in terms))
        sbit = 1 << ids.index(seller)
        sums = subset_sums(_numerator(t, den) for t in terms)
        return den, [x if m & sbit else 0 for m, x in enumerate(sums)]

    return Game(players, worth_fn, fill_table, meta)


def build_threshold(
    p: Rational,
    delta: Rational,
    n: int,
    k: int,
    q: Rational,
    *,
    seller: str = "s",
    recommenders: Iterable[str] | None = None,
) -> Game:
    """Threshold scenario: probability rises to p+q once >= k recommenders join."""
    p = as_fraction(p, "p")
    delta = as_fraction(delta, "delta")
    q = as_fraction(q, "q")
    _check_probability(p, "p")
    if delta < 0:
        raise ValidationError(f"delta must be >= 0, got {delta}")
    if not (1 <= k <= n):
        raise ValidationError(f"threshold k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if q < 0 or p + q > 1:
        raise ValidationError(f"q must lie in [0, 1-p], got q={q} with p={p}")
    rec_ids = list(recommenders) if recommenders is not None else _default_ids(n)
    if len(rec_ids) != n:
        raise ValidationError("number of recommender ids must equal n")

    players = _mk_players(seller, rec_ids)
    meta = ScenarioMeta("threshold", p, delta, {"k": k, "q": q})

    def worth_fn(s: Coalition) -> Fraction:
        n_rec = sum(1 for r in s if r != seller)
        return (p + q) * delta if n_rec >= k else p * delta

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        low, high = p * delta, (p + q) * delta
        den = math.lcm(low.denominator, high.denominator)
        low_num, high_num = _numerator(low, den), _numerator(high, den)
        sbit = 1 << ids.index(seller)
        # a coalition with the seller holds popcount - 1 recommenders
        return den, [
            (high_num if c > k else low_num) if m & sbit else 0
            for m, c in enumerate(popcounts(len(ids)))
        ]

    return Game(players, worth_fn, fill_table, meta)


def build_general(
    p: Rational,
    delta: Rational,
    uplift: Mapping[Iterable[str] | Coalition, Rational],
    *,
    seller: str = "s",
    recommenders: Iterable[str],
) -> Game:
    """General scenario with a sparse per-coalition probability uplift table.

    Keys are coalitions containing the seller; missing seller-containing
    coalitions default to uplift 0.  Values must lie in [0, 1-p].
    """
    p = as_fraction(p, "p")
    delta = as_fraction(delta, "delta")
    _check_probability(p, "p")
    if delta < 0:
        raise ValidationError(f"delta must be >= 0, got {delta}")
    rec_ids = list(recommenders)
    valid = frozenset(rec_ids) | {seller}

    table: dict[Coalition, Fraction] = {}
    for key, raw in uplift.items():
        s = frozenset([key] if isinstance(key, str) else key)
        if not s <= valid:
            raise ValidationError(f"uplift key {sorted(s)} uses unknown player ids")
        if seller not in s:
            raise ValidationError(f"uplift key {sorted(s)} must contain the seller")
        v = as_fraction(raw, f"uplift[{sorted(s)}]")
        if not (0 <= v <= 1 - p):
            raise ValidationError(f"uplift value {v} outside [0, 1-p] for {sorted(s)}")
        if s == frozenset({seller}) and v != 0:
            raise ValidationError("uplift of the seller alone must be 0")
        table[s] = v

    players = _mk_players(seller, rec_ids)
    meta = ScenarioMeta("general", p, delta, {"f": table})

    def worth_fn(s: Coalition) -> Fraction:
        return (p + table.get(s, Fraction(0))) * delta

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        worths = {s: (p + v) * delta for s, v in table.items()}
        return scatter_table(ids, worths, p * delta, seller)

    return Game(players, worth_fn, fill_table, meta)


def from_table(
    players: Iterable[str] | Iterable[Player],
    worths: Mapping[Iterable[str] | Coalition, Rational],
    *,
    seller: str | None = None,
) -> Game:
    """Game from an explicit worth table (sparse; missing coalitions are 0).

    When plain id strings are given the first id is the seller.  The table
    must respect v(empty)=0, v >= 0 and v(S)=0 whenever the seller is absent.
    """
    plist = list(players)
    if plist and isinstance(plist[0], Player):
        ps = tuple(plist)
    else:
        if seller is None:
            seller = plist[0]
        ps = _mk_players(seller, [x for x in plist if x != seller])
    seller_id = next(p.id for p in ps if p.kind == SELLER)
    ids = frozenset(p.id for p in ps)

    table: dict[Coalition, Fraction] = {}
    for key, raw in worths.items():
        s = frozenset([key] if isinstance(key, str) else key)
        if not s <= ids:
            raise ValidationError(f"worth key {sorted(s)} uses unknown player ids")
        v = as_fraction(raw, f"worth[{sorted(s)}]")
        if v < 0:
            raise ValidationError(f"worth must be nonnegative, got {v} for {sorted(s)}")
        if not s and v != 0:
            raise ValidationError("the empty coalition must have worth 0")
        if seller_id not in s and v != 0:
            raise ValidationError(f"coalition {sorted(s)} lacks the seller, worth must be 0")
        table[s] = v

    return Game(
        ps,
        lambda s: table.get(s, Fraction(0)),
        lambda ids: scatter_table(ids, table),
        None,
    )


def add_games(a: Game, b: Game) -> Game:
    """Pointwise sum (v+w)(S) = v(S)+w(S) over a shared player set."""
    if a.player_ids != b.player_ids or a.seller != b.seller:
        raise ValidationError("games must share the same player set")

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        ta, tb = a.table(), b.table()
        den = math.lcm(ta.den, tb.den)
        fa, fb = den // ta.den, den // tb.den
        return den, [x * fa + y * fb for x, y in zip(ta.nums, tb.nums)]

    return Game(a.players, lambda s: a.worth(s) + b.worth(s), fill_table, None)


def is_feasible(game: Game, payoff: Mapping[str, Fraction]) -> bool:
    """Feasibility: payoffs sum exactly to the grand-coalition worth."""
    if frozenset(payoff) != game.player_ids:
        raise ValidationError("payoff vector must cover exactly the game's players")
    return sum(payoff.values(), Fraction(0)) == game.worth(game.grand_coalition)


def _numerator(x: Fraction, den: int) -> int:
    """The numerator of x over den, which x's denominator divides."""
    return x.numerator * (den // x.denominator)


def scatter_table(
    ids: tuple[str, ...],
    worths: Mapping[Coalition, Fraction],
    default: Fraction = Fraction(0),
    seller: str | None = None,
) -> tuple[int, list[int]]:
    """(den, nums) over `ids` from a sparse table whose keys are subsets of `ids`.

    Coalitions missing from `worths` are worth `default` when they hold the
    seller and 0 otherwise.
    """
    den = math.lcm(default.denominator, *(v.denominator for v in worths.values()))
    bit = {pid: 1 << j for j, pid in enumerate(ids)}
    sbit = 0 if seller is None else bit[seller]
    base = _numerator(default, den)
    nums = [base if m & sbit else 0 for m in range(1 << len(ids))]
    for s, v in worths.items():
        nums[sum(bit[i] for i in s)] = _numerator(v, den)
    return den, nums


def _check_probability(p: Fraction, what: str) -> None:
    if not (0 <= p <= 1):
        raise ValidationError(f"{what} must lie in [0, 1], got {p}")
