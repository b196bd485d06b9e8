from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fairprice import (
    PAY_PER_SALE,
    ResourceCapError,
    ValidationError,
    add_games,
    build_general,
    build_linear,
    build_threshold,
    core_contains,
    from_table,
    to_prices,
)
from fairprice.games import Game
from fairprice.rational import as_fraction


def test_table1_linear_all_rows():
    p, q1, q2, d = F("1/2"), F("1/5"), F("1/10"), F(1)
    g = build_linear(p, d, [q1, q2])
    assert g.worth(set()) == 0
    assert g.worth({"s"}) == p * d
    assert g.worth({"r1"}) == 0
    assert g.worth({"r2"}) == 0
    assert g.worth({"s", "r1"}) == (p + q1) * d
    assert g.worth({"s", "r2"}) == (p + q2) * d
    assert g.worth({"r1", "r2"}) == 0
    assert g.worth({"s", "r1", "r2"}) == (p + q1 + q2) * d


def test_table1_threshold_all_rows():
    p, q, d = F("1/10"), F("2/5"), F(10)
    g = build_threshold(p, d, 2, 2, q)
    assert g.worth({"s"}) == p * d
    assert g.worth({"s", "r1"}) == p * d
    assert g.worth({"s", "r2"}) == p * d == F(1)
    assert g.worth({"s", "r1", "r2"}) == (p + q) * d
    assert g.worth({"r1", "r2"}) == 0


def test_table1_general_all_rows():
    p, d = F("1/2"), F(2)
    g = build_general(
        p, d,
        {("s", "r1"): F("3/10"), ("s", "r2"): F("1/10"), ("s", "r1", "r2"): F("2/5")},
        recommenders=["r1", "r2"],
    )
    assert g.worth({"s", "r1"}) == (p + F("3/10")) * d == F("8/5")
    assert g.worth({"s", "r2"}) == (p + F("1/10")) * d
    assert g.worth({"s", "r1", "r2"}) == (p + F("2/5")) * d
    assert g.worth({"s"}) == p * d
    assert g.worth({"r1"}) == 0


def test_general_sparse_default_zero():
    g = build_general("0.5", 10, {}, recommenders=["r1"])
    assert g.worth({"s", "r1"}) == F(5)
    assert g.worth({"s"}) == F(5)


def test_general_full_coalition_example():
    g = build_general("0.5", 10, {("s", "r1"): "0.4"}, recommenders=["r1"])
    assert g.worth({"s", "r1"}) == F(9)


def test_zero_margin_game_is_all_zero():
    g = build_linear(0, 0, [0])
    assert all(g.worth(s) == 0 for s in g.coalitions())


def test_threshold_met_by_one():
    g = build_threshold("0.1", 10, 2, 1, "0.4")
    assert g.worth({"s", "r1"}) == F(5)


def test_worth_rejects_unknown_ids():
    g = build_linear("0.5", 1, ["0.2"])
    with pytest.raises(ValidationError):
        g.worth({"s", "nope"})


def test_worth_reads_a_str_as_one_id():
    # "r1" used to be read as the ids "r" and "1"
    g = build_linear("0.5", 1, ["0.2"])
    assert g.worth("r1") == 0 and g.worth("s") == F(1, 2)
    with pytest.raises(ValidationError, match=r"^unknown player id\(s\) in coalition: \['sr1'\]$"):
        g.worth("sr1")


@pytest.mark.parametrize("build, what", [
    (lambda: build_linear("0.1", 1, ["0.1", "0.2"], recommenders="r1"), "recommenders"),
    (lambda: build_threshold("0.1", 1, 2, 1, "0.2", recommenders="ab"), "recommenders"),
    (lambda: build_general("0.1", 1, {}, recommenders="ab"), "recommenders"),
    (lambda: from_table("sab", {}), "players"),
], ids=["linear", "threshold", "general", "from-table"])
def test_builders_refuse_a_str_of_ids(build, what):
    # recommenders="r1" used to build the players s, r and 1
    with pytest.raises(ValidationError, match=rf"^{what} must be a list of ids, not a str$"):
        build()


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_linear("0.5", 1, ["0.4", "0.2"]),  # p + sum q > 1
        lambda: build_linear("0.5", 1, ["-0.1"]),
        lambda: build_linear("0.5", -1, ["0.1"]),
        lambda: build_linear("1.5", 1, ["0.1"]),
        lambda: build_threshold("0.5", 1, 2, 3, "0.1"),  # k > n
        lambda: build_threshold("0.5", 1, 2, 0, "0.1"),  # k < 1
        lambda: build_threshold("0.5", 1, 2, 1, "0.6"),  # p + q > 1
        lambda: build_threshold("0.5", 1, 2, 1, "0.1", recommenders=["r1"]),  # 1 id for n = 2
        lambda: build_threshold("0.5", 1, 3, 2.5, "0.1"),  # k not an int
        lambda: build_threshold("0.5", 1, 3, True, "0.1"),
        lambda: build_threshold("0.5", 1, 3.0, 1, "0.1"),  # n not an int
        lambda: build_threshold("0.5", 1, 3.0, 1, "0.1", recommenders=["r1", "r2", "r3"]),
        lambda: build_linear("0.5", 1, ["0.1"], recommenders=["r1", "r2"]),  # 1 q for 2 ids
        lambda: build_general("0.5", 1, {("s",): "0.1"}, recommenders=["r1"]),  # f({s}) != 0
        lambda: build_general("0.5", 1, {("s", "r1"): "0.7"}, recommenders=["r1"]),  # > 1-p
        lambda: build_general("0.5", 1, {("r1",): "0.2"}, recommenders=["r1"]),  # no seller
    ],
)
def test_builder_validation(builder):
    with pytest.raises(ValidationError):
        builder()


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        build_linear("0.1", 1, {"s": F(0)})  # recommender id collides with seller


rationals = st.fractions(min_value=0, max_value=1, max_denominator=20)


@given(
    p=rationals,
    d=st.fractions(min_value=0, max_value=5, max_denominator=10),
    qs=st.lists(rationals, min_size=1, max_size=4),
)
def test_linear_monotone_and_exact(p, d, qs):
    total = sum(qs, F(0))
    if p + total > 1:
        return
    g = build_linear(p, d, qs)
    coalitions = list(g.coalitions())
    for s in coalitions:
        w = g.worth(s)
        assert isinstance(w, F) and w >= 0
        if "s" not in s:
            assert w == 0
        for t in coalitions:
            if s <= t:
                assert g.worth(s) <= g.worth(t)


@given(
    p=rationals,
    q=rationals,
    k=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=3),
)
def test_threshold_monotone(p, q, k, n):
    if k > n or p + q > 1:
        return
    g = build_threshold(p, 2, n, k, q)
    coalitions = list(g.coalitions())
    for s in coalitions:
        for t in coalitions:
            if s <= t:
                assert g.worth(s) <= g.worth(t)


def test_player_cap(monkeypatch):
    with pytest.raises(ResourceCapError):
        build_linear(0, 1, [0] * 16)  # 17 players with the seller
    monkeypatch.setenv("FAIRPRICE_MAX_PLAYERS", "20")
    build_linear(0, 1, [0] * 16)
    monkeypatch.setenv("FAIRPRICE_MAX_PLAYERS", "3")
    with pytest.raises(ResourceCapError):
        build_linear(0, 1, [0] * 3)
    monkeypatch.setenv("FAIRPRICE_MAX_PLAYERS", "zero")
    with pytest.raises(ValidationError):
        build_linear(0, 1, [0])
    monkeypatch.setenv("FAIRPRICE_MAX_PLAYERS", "0")
    with pytest.raises(ValidationError, match="must be positive, got 0"):
        build_linear(0, 1, [0])


def test_from_table_validation():
    from_table(["s", "r1"], {("s", "r1"): 3, ("s",): 1})
    with pytest.raises(ValidationError):
        from_table(["s", "r1"], {("r1",): 1})  # worth without seller
    with pytest.raises(ValidationError):
        from_table(["s", "r1"], {("s",): -1})
    with pytest.raises(ValidationError):
        from_table(["s", "r1"], {(): 1})
    with pytest.raises(ValidationError, match="unknown player ids"):
        from_table(["s", "r1"], {("s", "r2"): 1})
    with pytest.raises(ValidationError, match="only defined for scenario-built games"):
        to_prices({"s": 1, "r1": 0}, from_table(["s", "r1"], {("s",): 1}), PAY_PER_SALE)


def test_a_coalition_named_twice_is_refused():
    # two keys for one coalition used to keep the last value
    with pytest.raises(ValidationError, match=r"^worth key \['r1', 's'\] is given twice$"):
        from_table(["s", "r1"], {("s", "r1"): 1, ("r1", "s"): 3})
    with pytest.raises(ValidationError, match=r"^worth key \['s'\] is given twice$"):
        from_table(["s"], {"s": 1, ("s",): 2})  # one id and its 1-tuple
    with pytest.raises(ValidationError, match=r"^uplift key \['r1', 'r2', 's'\] is given twice$"):
        build_general("1/4", 4, {("s", "r1", "r2"): "1/2", ("r2", "r1", "s"): "1/5"},
                      recommenders=["r1", "r2"])
    # each coalition once is still read as given
    g = from_table(["s", "r1"], {("r1", "s"): 3, ("s",): 1})
    assert g.worth({"s", "r1"}) == 3 and g.worth({"s"}) == 1


def test_from_table_players():
    # the first id is the seller
    g = from_table(["s", "r1", "r2"], {("s", "r1"): 1})
    assert g.players == ("s", "r1", "r2")
    assert g.seller == "s" and g.recommenders == ("r1", "r2")
    g = from_table(["r1", "s"], {("r1",): 2})
    assert g.seller == "r1" and g.worth({"r1"}) == 2
    assert from_table(["s"], {}).players == ("s",)
    with pytest.raises(ValidationError, match="at least one player"):
        from_table([], {})  # an IndexError before
    for players in (["s", "r1", "r1"], ["s", "r1", "s"]):
        with pytest.raises(ValidationError, match="unique"):
            from_table(players, {})
    with pytest.raises(ValidationError, match="unique"):
        build_linear(0, 1, [0, 0], recommenders=["r1", "r1"])
    with pytest.raises(ValidationError, match="unique"):
        build_linear(0, 1, [0], seller="r1", recommenders=["r1"])


def test_threshold_checks_the_cap_before_building_ids(monkeypatch):
    import fairprice.games as games

    def no_ids(n):
        raise AssertionError("default ids built before the cap check")

    monkeypatch.delenv("FAIRPRICE_MAX_PLAYERS", raising=False)
    monkeypatch.setattr(games, "_default_ids", no_ids)
    with pytest.raises(ResourceCapError) as err:
        build_threshold(0, 1, 17, 1, 0)
    assert str(err.value) == (
        "18 players exceeds the cap of 16 (override with FAIRPRICE_MAX_PLAYERS)"
    )


def test_cap_comes_before_any_value_is_checked(monkeypatch):
    # the q values and uplifts are invalid too; converting 10^5 of them
    # used to take ~0.5 s before the player cap refused the game
    from fairprice.specio import load_game

    monkeypatch.delenv("FAIRPRICE_MAX_PLAYERS", raising=False)
    n = 10**5
    recs = [f"r{i}" for i in range(1, n + 1)]
    message = f"{n + 1} players exceeds the cap of 16 (override with FAIRPRICE_MAX_PLAYERS)"
    bad = [
        lambda: build_linear(0, 1, ["x"] * n),
        lambda: build_linear(0, 1, [-1] * n, recommenders=recs),
        lambda: build_linear(0, 1, dict.fromkeys(recs, "x")),
        lambda: build_general(0, 1, {("s", r): "x" for r in recs}, recommenders=recs),
        lambda: load_game({"players": ["s", *recs], "scenario": "linear",
                           "p": 0, "delta": 1, "q": ["x"] * n}),
        lambda: load_game({"players": ["s", *recs], "scenario": "general",
                           "p": 0, "delta": 1, "f": {r: "x" for r in recs}}),
    ]
    for build in bad:
        with pytest.raises(ResourceCapError) as err:
            build()
        assert str(err.value) == message


def test_add_games_pointwise():
    a = from_table(["s", "r1"], {("s",): 1, ("s", "r1"): 3})
    b = from_table(["s", "r1"], {("s",): 2, ("s", "r1"): 1})
    c = add_games(a, b)
    assert c.worth({"s"}) == 3
    assert c.worth({"s", "r1"}) == 4
    with pytest.raises(ValidationError, match="same player set"):
        add_games(a, from_table(["s", "r2"], {("s",): 1}))


def test_is_feasible():
    g = build_linear("0.5", 1, ["0.2", "0.1"])
    assert core_contains(g, {"s": F("0.8"), "r1": F(0), "r2": F(0)}).feasible
    assert not core_contains(g, {"s": F("0.7"), "r1": F(0), "r2": F(0)}).feasible
    with pytest.raises(ValidationError):
        core_contains(g, {"s": F("0.8")})


def test_float_inputs_convert_base10():
    assert as_fraction(0.66) == F(33, 50)
    assert as_fraction("0.1") == F(1, 10)
    assert as_fraction("3/5") == F(3, 5)
    assert as_fraction("1e-3") == F(1, 1000)
    from decimal import Decimal

    assert as_fraction(Decimal("0.25")) == F(1, 4)
    assert build_linear(0.5, 1, [0.2]).worth({"s", "r1"}) == F(7, 10)
    with pytest.raises(ValidationError):
        as_fraction(float("nan"))
    with pytest.raises(ValidationError):
        as_fraction(True)
    with pytest.raises(ValidationError):
        as_fraction("one half")


def test_game_zeroes_coalitions_without_the_seller():
    # a fill_table need only get the coalitions that hold the seller right
    g = Game("s", ["r1", "r2"], lambda ids: (2, [3] * (1 << len(ids))), None)
    for s in g.coalitions():
        assert g.worth(s) == (F(3, 2) if "s" in s else 0)
