"""The bitmask worth table that `Game.worth`, Shapley, argument values and
the Core read, checked against the scenario formulas (`oracles.scenario_worth`,
evaluated from the builder's arguments), brute-force Fraction scans over
coalitions in lexicographic order and the seller-veto Core verdict."""

from fractions import Fraction as F
from itertools import chain, combinations

from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice.corelp import certificate_refutes, core_system
from oracles import scenario_worth, seller_veto_core_oracle, shapley_permutation_oracle

# "a" sorts before the recommenders r1.., "r1x" between r1 and r2, "z" last
SELLERS = ("a", "r1x", "z")


def fractions(lo, hi, den=12):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=den)


@st.composite
def games(draw, max_players=7, kinds=("linear", "threshold", "general", "table")):
    """A (game, worth) pair: worth evaluates the game's formula (or its sparse
    table) coalition by coalition, without reading the game."""
    seller = draw(st.sampled_from(SELLERS))
    n_rec = draw(st.integers(min_value=1, max_value=max_players - 1))
    recs = [f"r{i}" for i in range(1, n_rec + 1)]
    kind = draw(st.sampled_from(kinds))
    p = draw(fractions(0, F(1, 2)))
    delta = draw(fractions(0, 20, 6))
    share = fractions(0, 1)  # of the probability 1 - p left above p
    subsets = st.lists(st.sets(st.sampled_from(recs), min_size=1), max_size=8)
    if kind == "linear":
        qs = [(1 - p) / n_rec * draw(share) for _ in recs]
        game = fp.build_linear(p, delta, qs, seller=seller, recommenders=recs)
        return game, scenario_worth(kind, p, delta, seller, q=dict(zip(recs, qs)))
    if kind == "threshold":
        k = draw(st.integers(min_value=1, max_value=n_rec))
        q = (1 - p) * draw(share)
        game = fp.build_threshold(p, delta, n_rec, k, q, seller=seller, recommenders=recs)
        return game, scenario_worth(kind, p, delta, seller, k=k, q=q)
    if kind == "general":
        uplift = {frozenset(s) | {seller}: (1 - p) * draw(share) for s in draw(subsets)}
        game = fp.build_general(p, delta, uplift, seller=seller, recommenders=recs)
        return game, scenario_worth(kind, p, delta, seller, f=uplift)
    worths = {frozenset(s) | {seller}: draw(fractions(0, 30)) for s in draw(subsets)}
    worths[frozenset({seller})] = draw(fractions(0, 30))
    game = fp.from_table([seller] + recs, worths)
    return game, lambda s: worths.get(frozenset(s), F(0))


def payoffs(game):
    return st.fixed_dictionaries(
        {pid: fractions(-5, 30) for pid in sorted(game.player_ids)}
    )


def lexicographic(game):
    ids = sorted(game.player_ids)
    subsets = chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1))
    return [frozenset(t) for t in sorted(subsets)]


def brute_witness(game, worth, x):
    for s in lexicographic(game):
        if s and worth(s) > sum((x[i] for i in s), F(0)):
            return s
    return None


@given(games())
def test_table_matches_worth(game_and_worth):
    game, worth = game_and_worth
    t = game.table()
    assert t.ids == tuple(sorted(game.player_ids))
    assert len(t.nums) == 2 ** len(t.ids)
    for m, num in enumerate(t.nums):
        assert F(num, t.den) == worth(t.members(m)) == game.worth(t.members(m))


@settings(max_examples=60)
@given(games(max_players=6))
def test_shapley_matches_permutation_oracle(game_and_worth):
    game, worth = game_and_worth
    assert fp.shapley(game) == shapley_permutation_oracle(game, worth)


@settings(max_examples=60)
@given(games(max_players=6, kinds=("general", "table")))
def test_core_verdict_matches_seller_veto_oracle(game_and_worth):
    game, worth = game_and_worth
    result = fp.core_is_nonempty(game)
    system = core_system(game)
    cert = seller_veto_core_oracle(game.player_ids, worth, system)
    assert result.nonempty == (cert is None)
    if cert is not None:
        assert certificate_refutes(system, cert)
        assert certificate_refutes(system, result.certificate)


def test_coalitions_in_lexicographic_order():
    for n_rec in range(8):
        for seller in SELLERS:
            game = fp.from_table([seller] + [f"r{i}" for i in range(1, n_rec + 1)], {})
            assert list(game.coalitions()) == lexicographic(game)


@given(st.data())
def test_core_scans_match_brute_force(data):
    game, worth = data.draw(games())
    x = data.draw(payoffs(game))
    result = fp.core_contains(game, x)
    assert result.violating_coalition == brute_witness(game, worth, x)
    assert result.feasible == (sum(x.values(), F(0)) == worth(game.grand_coalition))


def test_core_scans_break_ties_lexicographically():
    # ids r1 < r2 < s are bits 0, 1, 2.  {r1,r2}, {r1,s}, {r2} and {r2,s}
    # all have excess 1; by mask {r2} = 0b010 comes first, by sorted-id
    # tuple {r1,r2}.
    game = fp.from_table(["s", "r1", "r2"], {("s", "r1"): 1, ("s", "r1", "r2"): 5})
    x = {"s": F(0), "r1": F(0), "r2": F(-1)}
    assert brute_witness(game, game.worth, x) == frozenset({"r1", "r2"})
    assert fp.core_contains(game, x).violating_coalition == frozenset({"r1", "r2"})
