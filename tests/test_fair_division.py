import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice import ValidationError
from fairprice.fair_division import scale_margin, scaled_report_grid
from fairprice.verification import random_table_game
from oracles import nash_product_grid_oracle, shapley_permutation_oracle


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
    return fp.ArgumentGame.create(
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
    ag = fp.ArgumentGame.create(["a"], {("a",): "7/3"}, {"r1": ["a"]})
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


def test_psi_normalization():
    rng = random.Random(7)
    for _ in range(40):
        args = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        from itertools import chain, combinations

        worths = {}
        for combo in chain.from_iterable(combinations(args, k) for k in range(1, len(args) + 1)):
            worths[combo] = F(rng.randint(0, 12), 4)
        declared = [a for a in args if rng.random() < 0.7] or [args[0]]
        ag = fp.ArgumentGame.create(args, worths, {"r1": declared})
        per_arg, per_rec = fp.anonymity_proof_shapley(ag)
        assert sum(per_arg.values(), F(0)) == ag.worth(ag.declared)
        assert per_rec["r1"] == sum(per_arg.values(), F(0))


def test_psi_zero_denominator_cases():
    quiet = fp.ArgumentGame.create(["a", "b"], {}, {"r1": ["a"], "r2": ["b"]})
    per_arg, per_rec = fp.anonymity_proof_shapley(quiet)
    assert all(v == 0 for v in per_arg.values())
    assert all(v == 0 for v in per_rec.values())

    # zero declared total but positive declared worth: inconsistent input
    ag = fp.ArgumentGame.create(
        ["a", "b", "c"],
        {("a",): 3, ("a", "b", "c"): 1},
        {"r1": ["a", "b", "c"]},
    )
    with pytest.raises(ValidationError):
        fp.anonymity_proof_shapley(ag)


def test_empty_declaration_rejected():
    ag = fp.ArgumentGame.create(["a"], {("a",): 1}, {})
    with pytest.raises(ValidationError):
        fp.shapley_arguments(ag)
    with pytest.raises(ValidationError):
        fp.anonymity_proof_shapley(ag)


def test_overlapping_ownership_rejected():
    with pytest.raises(ValidationError):
        fp.ArgumentGame.create(["a", "b"], {("a", "b"): 1}, {"r1": ["a", "b"], "r2": ["b"]})


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


def test_prices_zero_probability_rejected():
    g = fp.build_linear(0, 1, [0])
    with pytest.raises(ValidationError):
        fp.to_prices({"s": F(0), "r1": F(0)}, g, fp.PAY_PER_SALE)


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


def test_probe_empty_grid_rejected():
    g = fp.build_linear("0.5", 10, ["0.3"])
    with pytest.raises(ValidationError):
        fp.truthfulness_probe(g, fp.shapley_rule, [])


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
