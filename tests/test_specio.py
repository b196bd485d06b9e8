from fractions import Fraction as F

import pytest

from fairprice import ArgumentGame, Game, ValidationError
from fairprice.specio import (
    curves_to_csv,
    load_argument_game,
    load_game,
    load_payoff_vector,
    load_spec,
)
from fairprice.trust import RewardCurve
from oracles import read_curve_csv, read_results_csv


def test_load_linear_exact_decimals():
    g = load_game('{"players": ["s", "r1"], "scenario": "linear", "p": 0.1, "delta": 1, "q": [0.2]}')
    assert g.worth({"s"}) == F(1, 10)  # 0.1 parsed base-10, not as a binary float
    assert g.worth({"s", "r1"}) == F(3, 10)


def test_load_threshold_with_rational_strings():
    g = load_game(
        '{"players": ["s", "a", "b", "c"], "scenario": "threshold",'
        ' "p": "1/10", "delta": "10", "k": 2, "q": "2/5"}'
    )
    assert g.worth({"s", "a", "b"}) == F(5)
    assert g.worth({"s", "a"}) == F(1)


def test_load_general_f_table():
    g = load_game(
        '{"players": ["s", "r1", "r2"], "scenario": "general", "p": 0.5, "delta": 2,'
        ' "f": {"r1": 0.3, "r1,r2": "0.4"}}'
    )
    assert g.worth({"s", "r1"}) == F(8, 5)
    assert g.worth({"s", "r2"}) == F(1)  # unlisted coalition: uplift 0
    assert g.worth({"s", "r1", "r2"}) == F(9, 5)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"players": [], "scenario": "linear", "p": 0, "delta": 1, "q": []}',
        '{"players": ["s", "r1"], "scenario": "magic", "p": 0, "delta": 1}',
        '{"players": ["s", "r1"], "scenario": "linear", "p": 0, "delta": 1, "q": [0.1, 0.2]}',
        '{"players": ["s", "r1"], "scenario": "threshold", "p": 0, "delta": 1, "k": "two", "q": 0.1}',
        '{"players": ["s", "r1", "r2"], "scenario": "threshold", "p": 0, "delta": 1, "k": 2.5, "q": 0.1}',
        '{"players": ["s", "r1"], "scenario": "general", "p": 0, "delta": 1, "f": {"bogus": 0.1}}',
        '{"players": ["s", "r1"], "scenario": "linear", "p": "1/0", "delta": 1, "q": [0]}',
        '{"players": ["s", "r1"], "scenario": "general", "p": 0, "delta": 1, "f": [0.1]}',
    ],
)
def test_load_game_rejects_malformed(text):
    with pytest.raises(ValidationError):
        load_game(text)


GENERAL_R1_R2 = '{"players": ["s", "r1", "r2"], "scenario": "general", "p": "1/4", "delta": 4, '
ARGUMENTS_AB = '{"arguments": ["a", "b"], "ownership": {"r1": ["a"]}, '


@pytest.mark.parametrize("text, message", [
    (GENERAL_R1_R2 + '"f": {"r1,r2": "1/2", "r2,r1": "1/5"}}', "uplift key ['r1', 'r2', 's'] is given twice"),
    (GENERAL_R1_R2 + '"f": {"r1": "1/2", "s,r1": "1/5"}}', "uplift key ['r1', 's'] is given twice"),
    (ARGUMENTS_AB + '"worths": {"a,b": 1, "b,a": 7}}', "worth key ['a', 'b'] is given twice"),
    (ARGUMENTS_AB + '"worths": {"a,b": 1, "a,,b": 7}}', "worth key ['a', 'b'] is given twice"),
    (ARGUMENTS_AB + '"worths": {"a,b": 1, "a,b": 7}}', "spec: member 'a,b' is given twice"),
    (GENERAL_R1_R2 + '"p": "1/2", "f": {}}', "spec: member 'p' is given twice"),
    ('{"arguments": ["a", "a", "b"], "worths": {"a": 1, "a,b": 2}, '
     '"ownership": {"r1": ["a"], "r2": ["b"]}}', "argument 'a' is given twice"),
    ('{"arguments": ["a", "b"], "worths": {"a": 1, "a,b": 2}, '
     '"ownership": {"r1": ["a", "a"], "r2": ["b"]}}', "argument 'a' is given twice in the ownership of 'r1'"),
], ids=["uplift-order", "uplift-seller", "worth-order", "worth-empty-id", "member", "top-member",
        "argument", "owned-argument"])
def test_load_spec_refuses_a_key_given_twice(text, message):
    # each used to be read as last-wins, the general game priced with 1/5,
    # or, for a repeated argument, as one argument
    with pytest.raises(ValidationError) as exc:
        load_spec(text)
    assert str(exc.value) == message


def test_load_argument_game():
    ag = load_argument_game(
        '{"arguments": ["a", "b"], "worths": {"a,b": "1/2", "a": 0.25},'
        ' "ownership": {"r1": ["a"], "r2": ["b"]}}'
    )
    assert ag.worth({"a", "b"}) == F(1, 2)
    assert ag.worth({"a"}) == F(1, 4)
    assert ag.declared == frozenset({"a", "b"})


def test_load_spec_tells_the_kinds_apart():
    game = load_spec(
        '{"players": ["s", "r1"], "scenario": "linear", "p": 0.1, "delta": 1, "q": [0.2]}'
    )
    assert isinstance(game, Game) and game.seller == "s"
    ag = load_spec('{"arguments": ["a"], "worths": {"a": 1}, "ownership": {"r1": ["a"]}}')
    assert isinstance(ag, ArgumentGame) and ag.worth({"a"}) == 1
    with pytest.raises(ValidationError, match="^x.json: top level must be an object$"):
        load_spec("[1]", "x.json")
    with pytest.raises(ValidationError, match="'worths' and 'ownership' must be objects$"):
        load_spec('{"arguments": ["a"], "worths": [1], "ownership": {"r1": ["a"]}}')


def test_load_payoff_vector():
    x = load_payoff_vector('{"s": 0.5, "r1": "1/3"}')
    assert x == {"s": F(1, 2), "r1": F(1, 3)}
    with pytest.raises(ValidationError):
        load_payoff_vector("[]")
    # used to be read as last-wins
    with pytest.raises(ValidationError, match="^payoff vector: member 's' is given twice$"):
        load_payoff_vector('{"s": 1, "r1": 0, "s": 2}')


def test_curve_csv_round_trip():
    curves = [
        RewardCurve("exact", (0.5, 1.25, 1.75)),
        RewardCurve("mc", (0.4, 1.3, 1.8), (0.01, 0.02, 0.02)),
    ]
    text = curves_to_csv(curves)
    back = {c.policy: c for c in read_curve_csv(text)}
    assert back["exact"].values == (0.5, 1.25, 1.75)
    assert back["exact"].stderr is None
    assert back["mc"].stderr == (0.01, 0.02, 0.02)


def test_curve_csv_rejects_bad_header():
    with pytest.raises(ValidationError):
        read_curve_csv("a,b,c\n1,2,3\n")


def test_results_csv_round_trip():
    from fairprice.specio import results_to_csv

    rows = [{"id": "r1", "method": "shapley", "value_decimal": 0.1}]
    text = results_to_csv(rows, summary=[("core-check", "core-check", "1")])
    parsed = read_results_csv(text)
    assert parsed[0] == {"id": "r1", "method": "shapley", "value": "0.1"}
    assert parsed[1]["id"] == "core-check" and parsed[1]["value"] == "1"
    with pytest.raises(ValidationError):
        read_results_csv("x,y\n")
