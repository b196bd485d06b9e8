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

A game is its seller, its recommenders and one worth table, `Game.table()`:
the worth of every coalition as integer numerators over one common
denominator, indexed by bitmask, filled when the game is built.  Each
builder's `fill_table` is the only code that knows its scenario formula;
`Game.worth` and all pricing code read the table.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import ResourceCapError, ValidationError
from .rational import Rational, as_fraction, brief_str, echo_str

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


def check_size(n: int, what: str) -> None:
    """Refuse a 2^n table over more than `max_players()` players or arguments."""
    cap = max_players()
    if n > cap:
        raise ResourceCapError(
            f"{echo_str(n)} {what} exceeds the cap of {cap} (override with {MAX_PLAYERS_ENV})"
        )


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


class ScenarioMeta(NamedTuple):
    """What pricing needs of a scenario game (None for raw table games):
    the margin delta and the grand coalition's selling probability p + f(N)."""

    delta: Fraction
    sale_probability: Fraction


class Game:
    """Immutable coalitional game: one seller, its recommenders, one worth table.

    `fill_table` maps the sorted player ids to (den, nums), the worth of
    every coalition by bitmask; it runs once, when the game is built, and
    the game then zeroes every coalition that excludes the seller, the
    empty one included.  The worth is nonnegative.
    """

    def __init__(
        self,
        seller: str,
        recommenders: Iterable[str],
        fill_table: Callable[[tuple[str, ...]], tuple[int, list[int]]],
        scenario: ScenarioMeta | None,
    ):
        players = (seller, *recommenders)
        if len(set(players)) != len(players):
            raise ValidationError("player ids must be unique")
        check_size(len(players), "players")
        ids = tuple(sorted(players))
        self._players = players
        self._ids = frozenset(players)
        self._bits = {pid: 1 << j for j, pid in enumerate(ids)}
        den, nums = fill_table(ids)
        sbit = self._bits[seller]
        self._table = WorthTable(ids, den, [x if m & sbit else 0 for m, x in enumerate(nums)])
        self._scenario = scenario

    @property
    def scenario(self) -> ScenarioMeta | None:
        return self._scenario

    @property
    def players(self) -> tuple[str, ...]:
        """The player ids, seller first."""
        return self._players

    @property
    def player_ids(self) -> frozenset:
        return self._ids

    @property
    def seller(self) -> str:
        return self._players[0]

    @property
    def recommenders(self) -> tuple[str, ...]:
        return self._players[1:]

    @property
    def grand_coalition(self) -> Coalition:
        return self._ids

    def worth(self, coalition: Iterable[str] | str) -> Fraction:
        """Exact worth v(S); raises on unknown player ids.  A str is one id."""
        s = as_coalition(coalition)
        unknown = s - self._ids
        if unknown:
            raise ValidationError(f"unknown player id(s) in coalition: {sorted(unknown)}")
        t = self._table
        return Fraction(t.nums[sum(self._bits[pid] for pid in s)], t.den)

    def table(self) -> WorthTable:
        """The worth of every coalition."""
        return self._table

    def coalitions(self) -> Iterable[Coalition]:
        """All 2^|N| coalitions, in lexicographic order of sorted-id tuples."""
        t = self._table
        for m in lex_masks(len(t.ids)):
            yield frozenset(t.members(m))


def as_coalition(key: Iterable[str] | str) -> Coalition:
    """The coalition a key names: a str is one id, anything else iterates ids."""
    return frozenset([key] if isinstance(key, str) else key)


def coalition_items(items: Iterable[tuple[Any, Any]], what: str) -> Iterator[tuple[Coalition, Any]]:
    """(coalition, value) for each (key, value) of a worth or uplift table,
    a key being one id or an iterable of ids; ValidationError where two keys
    name one coalition, which a dict would read as last-wins."""
    seen = set()
    for key, raw in items:
        s = as_coalition(key)
        if s in seen:
            raise ValidationError(f"{what} {sorted(s)} is given twice")
        seen.add(s)
        yield s, raw


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
    p, delta = _margin(p, delta)
    if isinstance(qs, Mapping):
        check_size(len(qs) + 1, "players")
        q_map = {r: as_fraction(v, f"q[{r}]") for r, v in qs.items()}
        rec_ids = list(q_map)
    else:
        qs = list(qs)
        rec_ids = list(recommenders) if recommenders is not None else _default_ids(len(qs))
        check_size(len(rec_ids) + 1, "players")  # before any q is converted
        q_list = [as_fraction(v, "q") for v in qs]
        if len(rec_ids) != len(q_list):
            raise ValidationError("length of qs must match number of recommenders")
        q_map = dict(zip(rec_ids, q_list))
    for r, q in q_map.items():
        if q < 0:
            raise ValidationError(f"q[{r}] must be >= 0, got {brief_str(q)}")
    sale = p + sum(q_map.values(), Fraction(0))
    if sale > 1:
        raise ValidationError("p + sum(q_i) exceeds 1 (probability overflow)")

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        # the seller's bit carries p*delta, each recommender's bit q_i*delta
        terms = [p * delta if pid == seller else q_map[pid] * delta for pid in ids]
        den = math.lcm(*(t.denominator for t in terms))
        return den, subset_sums(_numerator(t, den) for t in terms)

    return Game(seller, rec_ids, fill_table, ScenarioMeta(delta, sale))


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
    p, delta = _margin(p, delta)
    q = as_fraction(q, "q")
    for name, value in (("k", k), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, int):
            # a spec's decimals arrive as Fractions, which may be too long to print
            shown = brief_str(value) if isinstance(value, Fraction) else repr(value)
            raise ValidationError(f"threshold {name} must be an integer, got {shown}")
    if not (1 <= k <= n):
        raise ValidationError(
            f"threshold k must satisfy 1 <= k <= n, got k={echo_str(k)}, n={echo_str(n)}")
    check_size(n + 1, "players")  # before n default ids are built
    if q < 0 or p + q > 1:
        raise ValidationError(f"q must lie in [0, 1-p], got q={brief_str(q)} with p={brief_str(p)}")
    rec_ids = list(recommenders) if recommenders is not None else _default_ids(n)
    if len(rec_ids) != n:
        raise ValidationError("number of recommender ids must equal n")

    meta = ScenarioMeta(delta, p + q)  # the grand coalition holds n >= k recommenders

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        low, high = p * delta, (p + q) * delta
        den = math.lcm(low.denominator, high.denominator)
        low_num, high_num = _numerator(low, den), _numerator(high, den)
        # a coalition with the seller holds popcount - 1 recommenders
        return den, [high_num if m.bit_count() > k else low_num for m in range(1 << len(ids))]

    return Game(seller, rec_ids, fill_table, meta)


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
    p, delta = _margin(p, delta)
    rec_ids = list(recommenders)
    check_size(len(rec_ids) + 1, "players")  # before any uplift is converted
    valid = frozenset(rec_ids) | {seller}

    table: dict[Coalition, Fraction] = {}
    for s, raw in coalition_items(uplift.items(), "uplift key"):
        if not s <= valid:
            raise ValidationError(f"uplift key {sorted(s)} uses unknown player ids")
        if seller not in s:
            raise ValidationError(f"uplift key {sorted(s)} must contain the seller")
        v = as_fraction(raw, f"uplift[{sorted(s)}]")
        if not (0 <= v <= 1 - p):
            raise ValidationError(f"uplift value {brief_str(v)} outside [0, 1-p] for {sorted(s)}")
        if s == frozenset({seller}) and v != 0:
            raise ValidationError("uplift of the seller alone must be 0")
        table[s] = v

    meta = ScenarioMeta(delta, p + table.get(valid, Fraction(0)))  # valid is N

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        worths = {s: (p + v) * delta for s, v in table.items()}
        return scatter_table(ids, worths, p * delta)

    return Game(seller, rec_ids, fill_table, meta)


def from_table(players: Iterable[str], worths: Mapping[Iterable[str] | Coalition, Rational]) -> Game:
    """Game from an explicit worth table (sparse; missing coalitions are 0).

    The first id is the seller.  The table must respect v(empty)=0, v >= 0
    and v(S)=0 whenever the seller is absent.
    """
    plist = list(players)
    if not plist:
        raise ValidationError("a game needs at least one player, the seller")
    seller, *recs = plist
    ids = frozenset(plist)

    table: dict[Coalition, Fraction] = {}
    for s, raw in coalition_items(worths.items(), "worth key"):
        if not s <= ids:
            raise ValidationError(f"worth key {sorted(s)} uses unknown player ids")
        v = as_fraction(raw, f"worth[{sorted(s)}]")
        if v < 0:
            raise ValidationError(f"worth must be nonnegative, got {brief_str(v)} for {sorted(s)}")
        if not s and v != 0:
            raise ValidationError("the empty coalition must have worth 0")
        if seller not in s and v != 0:
            raise ValidationError(f"coalition {sorted(s)} lacks the seller, worth must be 0")
        table[s] = v

    return Game(seller, recs, lambda ids: scatter_table(ids, table), None)


def add_games(a: Game, b: Game) -> Game:
    """Pointwise sum (v+w)(S) = v(S)+w(S) over a shared player set."""
    if a.player_ids != b.player_ids or a.seller != b.seller:
        raise ValidationError("games must share the same player set")

    def fill_table(ids: tuple[str, ...]) -> tuple[int, list[int]]:
        ta, tb = a.table(), b.table()
        den = math.lcm(ta.den, tb.den)
        fa, fb = den // ta.den, den // tb.den
        return den, [x * fa + y * fb for x, y in zip(ta.nums, tb.nums)]

    return Game(a.seller, a.recommenders, fill_table, None)


def check_covers(game: Game, payoff: Mapping[str, Rational]) -> None:
    """Refuse a payoff vector whose ids are not exactly the game's players."""
    if frozenset(payoff) != game.player_ids:
        raise ValidationError("payoff vector must cover exactly the game's players")


def _numerator(x: Fraction, den: int) -> int:
    """The numerator of x over den, which x's denominator divides."""
    return x.numerator * (den // x.denominator)


def scatter_table(
    ids: tuple[str, ...],
    worths: Mapping[Coalition, Fraction],
    default: Fraction = Fraction(0),
) -> tuple[int, list[int]]:
    """(den, nums) over `ids` from a sparse table whose keys are subsets of `ids`;
    coalitions missing from `worths` are worth `default`."""
    den = math.lcm(default.denominator, *(v.denominator for v in worths.values()))
    bit = {pid: 1 << j for j, pid in enumerate(ids)}
    nums = [_numerator(default, den)] * (1 << len(ids))
    for s, v in worths.items():
        nums[sum(bit[i] for i in s)] = _numerator(v, den)
    return den, nums


def _margin(p: Rational, delta: Rational) -> tuple[Fraction, Fraction]:
    """A scenario's base probability p in [0, 1] and margin delta >= 0, exact."""
    p, delta = as_fraction(p, "p"), as_fraction(delta, "delta")
    if not (0 <= p <= 1):
        raise ValidationError(f"p must lie in [0, 1], got {brief_str(p)}")
    if delta < 0:
        raise ValidationError(f"delta must be >= 0, got {brief_str(delta)}")
    return p, delta
