import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice import ResourceCapError, ValidationError
from fairprice.fair_division import payment_divisor, scale_margin, scaled_report_grid
from fairprice.verification import random_table_game
from oracles import (
    argument_value_oracle,
    bondareva_shapley_oracle,
    nash_product_grid_oracle,
    shapley_pair_oracle,
    shapley_permutation_oracle,
)


# ---------------------------------------------------------------------------
# Shapley on player games
# ---------------------------------------------------------------------------

def test_two_player_general_closed_form():
    g = fp.build_general("0.5", 10, {("s", "r"): "0.3"}, recommenders=["r"])
    assert fp.shapley(g) == {"s": F(13, 2), "r": F(3, 2)}


def test_linear_shapley_values():
    g = fp.build_linear("0.5", 1, ["0.2", "0.1"])
    assert fp.shapley(g) == {"s": F(13, 20), "r1": F(1, 10), "r2": F(1, 20)}


def test_threshold_shapley_per_recommender():
    g = fp.build_threshold("0.1", 10, 2, 2, "0.4")
    phi = fp.shapley(g)
    assert phi["r1"] == phi["r2"] == F(4, 3)


def test_zero_increment_recommender_gets_zero():
    g = fp.build_linear("0.5", 3, {"active": F("1/4"), "idle": F(0)})
    phi = fp.shapley(g)
    assert phi["idle"] == 0


def test_shapley_matches_permutation_oracle_on_random_games():
    rng = random.Random(123)
    for _ in range(50):
        g = random_table_game(rng)
        assert fp.shapley(g) == shapley_permutation_oracle(g)


@pytest.mark.parametrize("n", [13, 16])
@pytest.mark.parametrize("kind", ["linear", "threshold", "general"])
def test_shapley_matches_the_pair_formula_on_large_games(kind, n):
    # the permutation oracle stops at 6 players
    rng = random.Random(n)
    recs = [f"r{i:02d}" for i in range(1, n)]
    if kind == "linear":
        g = fp.build_linear("1/5", "37/4", [F(rng.randint(0, 9), 20 * n) for _ in recs],
                            recommenders=recs)
    elif kind == "threshold":
        g = fp.build_threshold("1/5", "37/4", n - 1, n // 2, "1/3", recommenders=recs)
    else:
        uplift = {("s", *sorted(rng.sample(recs, rng.randint(1, 4)))): F(rng.randint(0, 20), 40)
                  for _ in range(30)}
        g = fp.build_general("1/5", "37/4", uplift, recommenders=recs)
    assert fp.shapley(g) == shapley_pair_oracle(g)


@given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=12),
    f=st.fractions(min_value=0, max_value=1, max_denominator=12),
    d=st.fractions(min_value=0, max_value=8, max_denominator=6),
    lam=st.fractions(min_value=0, max_value=4, max_denominator=4),
)
def test_margin_linearity(p, f, d, lam):
    if f > 1 - p:
        return
    g = fp.build_general(p, d, {("s", "r"): f}, recommenders=["r"])
    scaled = fp.build_general(p, d * lam, {("s", "r"): f}, recommenders=["r"])
    phi, phi_scaled = fp.shapley(g), fp.shapley(scaled)
    nb = fp.nash_bargaining(fp.bargaining_problem(g))
    nb_scaled = fp.nash_bargaining(fp.bargaining_problem(scaled))
    for i in phi:
        assert phi_scaled[i] == lam * phi[i]
        assert nb_scaled[i] == lam * nb[i]


# ---------------------------------------------------------------------------
# Argument games
# ---------------------------------------------------------------------------

def full_argument_game(ownership):
    return fp.ArgumentGame(
        ["a", "b", "c"],
        {("a", "b"): 1, ("a", "c"): 1, ("a", "b", "c"): 1},
        ownership,
    )


def test_argument_values_full_declaration():
    ag = full_argument_game({"r1": ["a"], "r2": ["b", "c"]})
    assert fp.shapley_arguments(ag) == {"a": F(1, 2), "b": F(1, 6), "c": F(1, 6)}


def test_argument_values_withholding_restriction():
    ag = full_argument_game({"r1": ["a"], "r2": ["b"]})
    assert fp.shapley_arguments(ag) == {"a": F(1, 2), "b": F(1, 2)}


def test_single_declared_argument():
    ag = fp.ArgumentGame(["a"], {("a",): "7/3"}, {"r1": ["a"]})
    assert fp.shapley_arguments(ag) == {"a": F(7, 3)}
    per_arg, per_rec = fp.anonymity_proof_shapley(ag)
    assert per_arg == {"a": F(7, 3)} and per_rec == {"r1": F(7, 3)}


def test_anonymity_proof_full_vs_withheld():
    full = full_argument_game({"r1": ["a"], "r2": ["b", "c"]})
    _, payout_full = fp.anonymity_proof_shapley(full)
    assert payout_full == {"r1": F(3, 5), "r2": F(2, 5)}

    withheld = full_argument_game({"r1": ["a"], "r2": ["b"]})
    _, payout_withheld = fp.anonymity_proof_shapley(withheld)
    assert payout_withheld == {"r1": F(3, 4), "r2": F(1, 4)}

    # withholding-proofness: declaring everything pays r2 strictly more,
    # reversing the plain ordering where withholding pays.
    assert payout_full["r2"] > payout_withheld["r2"]
    plain_full = fp.shapley_arguments(full)
    plain_withheld = fp.shapley_arguments(withheld)
    assert plain_full["b"] + plain_full["c"] < plain_withheld["b"]


def test_anonymity_proof_withholding_pays_on_a_non_monotone_table():
    """Unlisted coalitions are worth 0, so the table {a, b}: 1 alone is not
    monotone ({a, b, c} is worth 0), and there declaring fewer arguments
    pays: withholding-proofness needs monotone worths."""
    worths = {("a", "b"): 1}
    full = fp.ArgumentGame(["a", "b", "c"], worths, {"r1": ["a"], "r2": ["b", "c"]})
    withheld = fp.ArgumentGame(["a", "b", "c"], worths, {"r1": ["a"], "r2": ["b"]})
    assert fp.anonymity_proof_shapley(full) == (
        {"a": 0, "b": 0, "c": 0}, {"r1": 0, "r2": 0})
    assert fp.anonymity_proof_shapley(withheld) == (
        {"a": F(1, 2), "b": F(1, 2)}, {"r1": F(1, 2), "r2": F(1, 2)})


def test_psi_normalization():
    rng = random.Random(7)
    for _ in range(40):
        args = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        from itertools import chain, combinations

        worths = {}
        for combo in chain.from_iterable(combinations(args, k) for k in range(1, len(args) + 1)):
            worths[combo] = F(rng.randint(0, 12), 4)
        declared = [a for a in args if rng.random() < 0.7] or [args[0]]
        ag = fp.ArgumentGame(args, worths, {"r1": declared})
        per_arg, per_rec = fp.anonymity_proof_shapley(ag)
        assert sum(per_arg.values(), F(0)) == ag.worth(ag.declared)
        assert per_rec["r1"] == sum(per_arg.values(), F(0))


def test_psi_zero_denominator_cases():
    quiet = fp.ArgumentGame(["a", "b"], {}, {"r1": ["a"], "r2": ["b"]})
    per_arg, per_rec = fp.anonymity_proof_shapley(quiet)
    assert all(v == 0 for v in per_arg.values())
    assert all(v == 0 for v in per_rec.values())

    # zero declared total but positive declared worth: inconsistent input
    ag = fp.ArgumentGame(
        ["a", "b", "c"],
        {("a",): 3, ("a", "b", "c"): 1},
        {"r1": ["a", "b", "c"]},
    )
    with pytest.raises(ValidationError):
        fp.anonymity_proof_shapley(ag)


def test_empty_declaration_rejected():
    ag = fp.ArgumentGame(["a"], {("a",): 1}, {})
    with pytest.raises(ValidationError):
        fp.shapley_arguments(ag)
    with pytest.raises(ValidationError):
        fp.anonymity_proof_shapley(ag)


def test_overlapping_ownership_rejected():
    with pytest.raises(ValidationError):
        fp.ArgumentGame(["a", "b"], {("a", "b"): 1}, {"r1": ["a", "b"], "r2": ["b"]})


@pytest.mark.parametrize("worths, ownership, message", [
    ({("a", "z"): 1}, {"r1": ["a"]}, "worth key ['a', 'z'] uses unknown arguments"),
    ({("a",): -1}, {"r1": ["a"]}, "argument worth must be >= 0, got -1"),
    ({(): 1}, {"r1": ["a"]}, "the empty argument set must have worth 0"),
    ({("a",): 1}, {"r1": ["a", "z"]}, "ownership of 'r1' uses unknown arguments"),
    ({("a", "b"): 1, ("b", "a"): 7}, {"r1": ["a"]}, "worth key ['a', 'b'] is given twice"),
    ({("a",): 1}, {"r1": ["a", "b", "a"]}, "argument 'a' is given twice in the ownership of 'r1'"),
], ids=["unknown-key", "negative-worth", "empty-worth", "unknown-owned", "named-twice",
        "owned-twice"])
def test_argument_game_create_validation(worths, ownership, message):
    with pytest.raises(ValidationError) as exc:
        fp.ArgumentGame(["a", "b"], worths, ownership)
    assert str(exc.value) == message


def test_argument_game_constructor_converts_and_checks():
    # the constructor once kept its raw fields: the tuple key broke
    # shapley_arguments (TypeError) and anonymity_proof_shapley paid 0 and 0
    ag = fp.ArgumentGame(frozenset("ab"), {("a", "b"): 1, "a": "1/2"}, {"r1": {"a"}, "r2": ["b"]})
    assert ag.worths == {frozenset("ab"): F(1), frozenset("a"): F(1, 2)}
    assert ag.ownership == {"r1": frozenset("a"), "r2": frozenset("b")}
    assert fp.shapley_arguments(ag) == {"a": F(3, 4), "b": F(1, 4)}
    assert fp.anonymity_proof_shapley(ag)[1] == {"r1": F(3, 4), "r2": F(1, 4)}
    with pytest.raises(ValidationError, match="argument worth must be >= 0"):
        fp.ArgumentGame(["a"], {"a": "-1"}, {})


def test_argument_game_replace_rechecks():
    ag = fp.ArgumentGame(["a", "b"], {("a", "b"): 1}, {"r1": ["a"], "r2": ["b"]})
    with pytest.raises(ValidationError, match=r"claimed twice"):
        ag._replace(ownership={"r1": ["a"], "r2": ["a"]})
    assert ag._replace(ownership={"r1": ["b"]}).ownership == {"r1": frozenset("b")}


def test_argument_game_worth_rejects_unknown_arguments():
    ag = fp.ArgumentGame(["a", "b"], {("a",): 1}, {"r1": ["a"]})
    with pytest.raises(ValidationError, match=r"unknown argument\(s\): \['z'\]"):
        ag.worth({"a", "z"})


def test_argument_game_worth_reads_a_str_as_one_argument():
    # "ab" used to be read as the coalition {a, b}
    ag = fp.ArgumentGame(["a", "b"], {"a": 1, ("a", "b"): 2}, {"r1": ["a"]})
    assert ag.worth("a") == 1 and ag.worth(["a", "b"]) == 2
    with pytest.raises(ValidationError, match=r"^unknown argument\(s\): \['ab'\]$"):
        ag.worth("ab")


ARGUMENTS = "abcdefg"


@st.composite
def argument_games(draw):
    """Up to 7 arguments, a few listed worths, and ownership by up to three
    recommenders that may withhold any argument but one."""
    args = ARGUMENTS[:draw(st.integers(1, len(ARGUMENTS)))]
    keys = st.frozensets(st.sampled_from(args), min_size=1)
    worths = draw(st.dictionaries(keys, st.fractions(0, 5, max_denominator=6), max_size=8))
    owners = draw(st.lists(st.sampled_from([None, "r1", "r2", "r3"]),
                           min_size=len(args), max_size=len(args)))
    owners[draw(st.integers(0, len(args) - 1))] = "r1"
    ownership: dict = {}
    for a, owner in zip(args, owners):
        if owner is not None:
            ownership.setdefault(owner, []).append(a)
    return fp.ArgumentGame(args, worths, ownership)


@settings(max_examples=80, deadline=None)
@given(argument_games())
def test_argument_values_match_the_subset_oracle(ag):
    declared = ag.declared
    assert fp.shapley_arguments(ag) == argument_value_oracle(ag, declared)

    full = argument_value_oracle(ag, ag.arguments)
    denom = sum((full[a] for a in declared), F(0))
    v_declared = ag.worth(declared)
    if denom == 0 and v_declared != 0:
        with pytest.raises(ValidationError, match="zero total value but positive worth"):
            fp.anonymity_proof_shapley(ag)
        return
    per_arg, per_rec = fp.anonymity_proof_shapley(ag)
    assert per_arg == {a: full[a] / denom * v_declared if denom else F(0) for a in declared}
    assert per_rec == {r: sum((per_arg[a] for a in owned), F(0))
                       for r, owned in ag.ownership.items()}


# ---------------------------------------------------------------------------
# Nash bargaining
# ---------------------------------------------------------------------------

def test_nash_single_recommender_matches_shapley():
    g = fp.build_general("0.5", 10, {("s", "r"): "0.3"}, recommenders=["r"])
    assert fp.nash_bargaining(fp.bargaining_problem(g)) == {"s": F(13, 2), "r": F(3, 2)}


def test_nash_equal_split_regardless_of_contribution():
    eps = F(1, 100)
    p = F(1, 4)
    g = fp.build_linear(p, 1, [1 - p - eps, eps])
    nb = fp.nash_bargaining(fp.bargaining_problem(g))
    assert nb["r1"] == nb["r2"] == (1 - p) / 3  # surplus f(N) * delta over n+1


def test_nash_many_recommender_share():
    g = fp.build_general(
        "0.2", 5,
        {("s", "r1", "r2", "r3"): "0.6"},
        recommenders=["r1", "r2", "r3"],
    )
    nb = fp.nash_bargaining(fp.bargaining_problem(g))
    surplus_share = F("0.6") * 5 / 4
    assert all(nb[r] == surplus_share for r in ["r1", "r2", "r3"])
    assert nb["s"] == F(1) + surplus_share


def test_nash_zero_surplus_returns_disagreement():
    g = fp.build_general("0.5", 10, {}, recommenders=["r"])
    nb = fp.nash_bargaining(fp.bargaining_problem(g))
    assert nb == {"s": F(5), "r": F(0)}


def test_nash_infeasible_disagreement_rejected():
    with pytest.raises(ValidationError):
        fp.BargainingProblem(F(1), {"s": F(2), "r": F(0)})


def test_nash_empty_problem_rejected():
    # nash_bargaining divided by the player count, 0, before
    with pytest.raises(ValidationError, match="at least one player"):
        fp.BargainingProblem(F(1), {})


def test_bargaining_problem_converts_through_as_fraction():
    bp = fp.BargainingProblem(F(2), {"s": "1"})
    assert bp.disagreement == {"s": F(1)} and type(bp.disagreement["s"]) is F
    nb = fp.nash_bargaining(fp.BargainingProblem(2, {"s": 0.1, "r": F(0)}))
    assert nb == {"r": F(19, 20), "s": F(21, 20)}
    assert all(type(x) is F for x in nb.values())
    assert type(bp._replace(total="5/2").total) is F
    with pytest.raises(ValidationError, match=r"disagreement\[s\]: cannot parse rational 'x'"):
        fp.BargainingProblem(1, {"s": "x"})


def test_nash_closed_form_maximizes_product():
    bp = fp.BargainingProblem(F(10), {"s": F(4), "r1": F(0), "r2": F(0)})
    exact = fp.nash_bargaining(bp)
    ongrid = nash_product_grid_oracle(bp, steps=30)
    assert exact == ongrid  # the equal split lies on the grid and wins


@settings(max_examples=200)
@given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=16),
    f=st.fractions(min_value=0, max_value=1, max_denominator=16),
    d=st.fractions(min_value=0, max_value=6, max_denominator=8),
)
def test_two_player_coincidence(p, f, d):
    if f > 1 - p:
        return
    g = fp.build_general(p, d, {("s", "r"): f}, recommenders=["r"])
    assert fp.shapley(g) == fp.nash_bargaining(fp.bargaining_problem(g))


# ---------------------------------------------------------------------------
# Prices
# ---------------------------------------------------------------------------

def test_prices_per_sale_divides_by_sale_probability():
    g = fp.build_general("0.5", 10, {("s", "r"): "0.3"}, recommenders=["r"])
    schedule = fp.to_prices({"s": F(13, 2), "r": F(3, 2)}, g, fp.PAY_PER_SALE)
    assert schedule.prices == {"r": F(15, 8)}  # 1.5 / 0.8 = 1.875


def test_prices_per_recommendation_identity():
    g = fp.build_general("0.5", 10, {("s", "r"): "0.3"}, recommenders=["r"])
    schedule = fp.to_prices({"s": F(13, 2), "r": F(3, 2)}, g, fp.PAY_PER_RECOMMENDATION)
    assert schedule.prices == {"r": F(3, 2)}


def test_prices_equal_when_probability_one():
    g = fp.build_linear("0.5", 2, ["0.5"])
    phi = fp.shapley(g)
    per_rec = fp.to_prices(phi, g, fp.PAY_PER_RECOMMENDATION)
    per_sale = fp.to_prices(phi, g, fp.PAY_PER_SALE)
    assert per_rec.prices == per_sale.prices


@pytest.mark.parametrize(
    "game, prob",
    [
        (fp.build_linear("0.5", 0, ["0.2", "0.1"]), F(4, 5)),
        (fp.build_threshold("0.5", 0, 2, 2, "0.3"), F(4, 5)),
        (fp.build_general("0.5", 0, {("s", "r1", "r2"): "0.3"}, recommenders=["r1", "r2"]), F(4, 5)),
        (fp.build_general("0.5", 0, {("s", "r1"): "0.3"}, recommenders=["r1", "r2"]), F(1, 2)),
    ],
)
def test_prices_per_sale_defined_at_zero_margin(game, prob):
    assert game.worth(game.grand_coalition) == 0
    assert game.scenario.sale_probability == prob
    schedule = fp.to_prices({"s": F(0), "r1": F(1), "r2": F(2)}, game, fp.PAY_PER_SALE)
    assert schedule.prices == {"r1": 1 / prob, "r2": 2 / prob}


def test_prices_zero_probability_rejected():
    g = fp.build_linear(0, 1, [0])
    with pytest.raises(ValidationError):
        fp.to_prices({"s": F(0), "r1": F(0)}, g, fp.PAY_PER_SALE)


def test_prices_refuse_unknown_mode_and_missing_recommenders():
    g = fp.build_linear("0.5", 1, ["0.2", "0.1"])
    with pytest.raises(ValidationError, match="unknown payment mode 'per-click'"):
        payment_divisor(g, "per-click")
    with pytest.raises(ValidationError, match=r"payoff vector lacks recommenders \['r2'\]"):
        fp.to_prices({"s": F(0), "r1": F(1)}, g, fp.PAY_PER_SALE)


def test_prices_convert_through_as_fraction():
    g = fp.build_linear("0.5", 1, ["0.2", "0.1"])
    schedule = fp.to_prices({"s": 0, "r1": 0.1, "r2": "1/5"}, g, fp.PAY_PER_RECOMMENDATION)
    assert schedule.prices == {"r1": F(1, 10), "r2": F(1, 5)}
    with pytest.raises(ValidationError, match=r"payoff\[r1\]: cannot parse rational 'x'"):
        fp.to_prices({"s": 0, "r1": "x", "r2": 0}, g, fp.PAY_PER_SALE)


# ---------------------------------------------------------------------------
# Truthfulness probe
# ---------------------------------------------------------------------------

def test_probe_finds_zero_margin_deviation_for_shapley_pricing():
    g = fp.build_linear("0.5", 10, ["0.3"])
    report = fp.truthfulness_probe(g, fp.shapley_rule)
    assert report.found
    assert report.gain == F(3, 2)  # payment drops from 1.5 to 0
    assert report.report.worth(report.report.grand_coalition) == 0


def test_probe_zero_rule_finds_nothing():
    g = fp.build_linear("0.5", 10, ["0.3"])
    report = fp.truthfulness_probe(g, fp.zero_rule)
    assert not report.found
    assert report.gain == 0


def test_probe_zero_margin_truth_has_no_deviation():
    g = fp.build_linear("0.5", 0, ["0.3"])
    report = fp.truthfulness_probe(g, fp.shapley_rule)
    assert not report.found


def test_probe_deviations_are_sound():
    rng = random.Random(99)
    from fairprice.verification import random_general_game

    for _ in range(40):
        g = random_general_game(rng)
        report = fp.truthfulness_probe(g, fp.shapley_rule)
        if not report.found:
            continue
        truth_util = g.worth(g.grand_coalition) - sum(fp.shapley_rule(g).values(), F(0))
        dev_util = g.worth(g.grand_coalition) - sum(
            fp.shapley_rule(report.report).values(), F(0)
        )
        assert dev_util > truth_util
        assert dev_util == report.best_utility


def test_scaled_grid_includes_zero_margin():
    g = fp.build_threshold("0.2", 4, 2, 2, "0.5")
    grid = scaled_report_grid(g)
    assert any(h.worth(h.grand_coalition) == 0 for h in grid)
    half = scale_margin(g, F(1, 2))
    assert half.worth(half.grand_coalition) == g.worth(g.grand_coalition) / 2


MARGIN_BUILDERS = {
    "linear": lambda d: fp.build_linear(
        "0.2", d, {"r1": "0.1", "r2": "0.25", "r3": "0.05"}, seller="z"
    ),
    "threshold": lambda d: fp.build_threshold(
        "0.2", d, 3, 2, "0.5", seller="z", recommenders=["r1", "r2", "r3"]
    ),
    "general": lambda d: fp.build_general(
        "0.2", d, {("z", "r1"): "0.1", ("z", "r2", "r3"): "0.6", ("z", "r1", "r2", "r3"): "0.7"},
        seller="z", recommenders=["r1", "r2", "r3"],
    ),
}


@pytest.mark.parametrize("factor", [F(0), F(1, 2), F(2)])
@pytest.mark.parametrize("kind", sorted(MARGIN_BUILDERS))
def test_scale_margin_equals_the_rebuilt_game(kind, factor):
    delta = F(15, 4)
    build = MARGIN_BUILDERS[kind]
    scaled = scale_margin(build(delta), factor)
    rebuilt = build(delta * factor)
    assert scaled.players == rebuilt.players
    assert scaled.scenario == rebuilt.scenario
    assert scaled.scenario.delta == delta * factor
    for s in rebuilt.coalitions():
        assert scaled.worth(s) == rebuilt.worth(s)
    assert fp.shapley(scaled) == fp.shapley(rebuilt)


def test_scale_margin_refusals():
    with pytest.raises(ValidationError, match="requires a scenario-built game"):
        scale_margin(fp.from_table(["s", "r1"], {("s",): 1}), 2)
    with pytest.raises(ValidationError, match="factor must be nonnegative"):
        scale_margin(MARGIN_BUILDERS["linear"](F(1)), -1)


def _argument_game(count: int):
    args = [f"a{i:02d}" for i in range(count)]
    return fp.ArgumentGame(args, {tuple(args): 1}, {"r1": args})


def test_argument_games_respect_the_player_cap(monkeypatch):
    monkeypatch.delenv("FAIRPRICE_MAX_PLAYERS", raising=False)
    big = _argument_game(17)
    with pytest.raises(ResourceCapError):
        fp.shapley_arguments(big)
    with pytest.raises(ResourceCapError):
        fp.anonymity_proof_shapley(big)
    monkeypatch.setenv("FAIRPRICE_MAX_PLAYERS", "17")
    assert len(fp.shapley_arguments(big)) == 17
    assert fp.anonymity_proof_shapley(big)[1] == {"r1": 1}


# ---------------------------------------------------------------------------
# Pinned outputs of the worth-table callers on fixed games
# ---------------------------------------------------------------------------

PINNED_GAMES = {
    "linear": lambda: fp.build_linear("1/2", 10, ["1/10", "1/5", "3/20"]),
    "threshold": lambda: fp.build_threshold("2/5", 6, 4, 2, "3/10"),
    "general": lambda: fp.build_general(
        "1/4", 8, {("s", "r1"): "1/2", ("s", "r2"): "1/3", ("s", "r1", "r2"): "1/5"},
        recommenders=["r1", "r2"],
    ),
}

# game: (v(N), v({s}), Shapley probe (truthful, best, grid index), the (n-1)-sets'
# balanced inequality); the zero rule never finds a deviation, singletons always hold
PINNED = {
    "linear": (F(19, 2), F(5), (F(29, 4), F(19, 2), 0), True),
    "threshold": (F(21, 5), F(12, 5), (F(87, 25), F(21, 5), 0), True),
    "general": (F(18, 5), F(2), (F(164, 45), F(166, 45), 2), False),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_caller_outputs(name):
    g = PINNED_GAMES[name]()
    total, alone, (truthful, best, index), big_sets_hold = PINNED[name]
    ids = sorted(g.player_ids)

    bp = fp.bargaining_problem(g)
    assert bp.total == total
    assert bp.disagreement == {i: alone if i == "s" else F(0) for i in ids}

    grid = scaled_report_grid(g)
    report = fp.truthfulness_probe(g, fp.shapley_rule)
    assert (report.found, report.truthful_utility, report.best_utility) == (True, truthful, best)
    assert (report.report.table(), report.report.scenario) == (grid[index].table(), grid[index].scenario)
    zero = fp.truthfulness_probe(g, fp.zero_rule)
    assert (zero.found, zero.report, zero.truthful_utility, zero.best_utility) == (
        False, None, total, total)

    phi = fp.shapley(g)
    assert phi["s"] == truthful  # the seller keeps v(N) less the recommenders' payments
    assert fp.core_contains(g, phi).feasible
    assert not fp.core_contains(g, {**phi, "s": phi["s"] + F(1, 1000)}).feasible

    singletons = {frozenset({i}): F(1) for i in ids}
    big_sets = {frozenset(ids) - {i}: F(1, len(ids) - 1) for i in ids}
    assert bondareva_shapley_oracle(g, singletons)
    assert bondareva_shapley_oracle(g, big_sets) == big_sets_hold
