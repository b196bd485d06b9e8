import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from hypothesis import given, strategies as st

import fairprice as fp
from fairprice import corelp
from fairprice.corelp import satisfies
from fairprice.specio import load_game
from fairprice.verification import _brute_force_in_core, random_table_game
from oracles import (
    bondareva_shapley_oracle,
    dense_simplex_oracle,
    linear_system,
    satisfies_oracle,
    time_limit,
)

GOLDEN = Path(__file__).parent / "golden"


def test_lp_trivially_infeasible():
    sys_ = linear_system(["x"], inequalities=[({"x": 1}, 1), ({"x": -1}, 0)])
    res = fp.lp_feasible(sys_)
    assert not res.feasible
    assert fp.certificate_refutes(sys_, res.certificate)


def test_lp_trivially_feasible():
    sys_ = linear_system(
        ["x", "y"],
        equalities=[({"x": 1, "y": 1}, 1)],
        inequalities=[({"x": 1}, 0), ({"y": 1}, 0)],
    )
    res = fp.lp_feasible(sys_)
    assert res.feasible
    assert satisfies(sys_, res.point)


def test_lp_free_variables_decided():
    # x unconstrained below: still feasible
    sys_ = linear_system(["x"], inequalities=[({"x": -1}, 5)])  # -x >= 5
    res = fp.lp_feasible(sys_)
    assert res.feasible and res.point["x"] <= -5


def test_lp_planted_instances():
    # feasible systems are built around a planted point, infeasible ones
    # around a planted certificate; the solver must get every verdict right
    rng = random.Random(2718)
    for trial in range(60):
        nv = rng.randint(1, 4)
        names = [f"x{i}" for i in range(nv)]
        if trial % 2 == 0:
            planted = {v: F(rng.randint(-4, 4), rng.randint(1, 3)) for v in names}
            ineqs = []
            for _ in range(rng.randint(1, 6)):
                coeffs = {v: F(rng.randint(-3, 3)) for v in names}
                lhs = sum((c * planted[v] for v, c in coeffs.items()), F(0))
                ineqs.append((coeffs, lhs - F(rng.randint(0, 3))))
            eq_coeffs = {v: F(rng.randint(-2, 2)) for v in names}
            eq_rhs = sum((c * planted[v] for v, c in eq_coeffs.items()), F(0))
            sys_ = linear_system(names, [(eq_coeffs, eq_rhs)], ineqs)
            res = fp.lp_feasible(sys_)
            assert res.feasible and satisfies(sys_, res.point)
        else:
            # rows r1, r2 with r1 + r2 = 0 on coefficients but rhs sum > 0
            coeffs1 = {v: F(rng.randint(-3, 3)) for v in names}
            coeffs2 = {v: -coeffs1[v] for v in names}
            b1 = F(rng.randint(-2, 2))
            b2 = F(rng.randint(1, 3)) - b1
            extra = []
            for _ in range(rng.randint(0, 3)):
                coeffs = {v: F(rng.randint(-2, 2)) for v in names}
                extra.append((coeffs, F(-6)))  # slack rows, cannot rescue
            sys_ = linear_system(
                names, inequalities=[(coeffs1, b1), (coeffs2, b2)] + extra
            )
            res = fp.lp_feasible(sys_)
            assert not res.feasible
            assert fp.certificate_refutes(sys_, res.certificate)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
big_fractions = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))


@st.composite
def linear_systems(draw, big=False):
    """Systems over up to four variables, some in no row at all (free), with
    empty and all-zero rows, negative right-hand sides (flipped rows) and,
    half the time, right-hand sides planted around a point, so that feasible
    and degenerate systems come up as well as infeasible ones.

    With `big`, numerators and denominators reach 10^12: each value is either
    drawn at that size or is a small fraction times one shared big factor,
    so that large common factors and tied ratios both come up."""
    values = small_fractions
    slack = st.fractions(min_value=0, max_value=2, max_denominator=2)
    if big:
        scale = draw(big_fractions.filter(bool))
        values = st.one_of(big_fractions, small_fractions.map(lambda x: x * scale))
        slack = values.map(abs)
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coeffs = st.dictionaries(st.sampled_from(names), values)
    eqs = draw(st.lists(st.tuples(coeffs, values), max_size=3))
    ineqs = draw(st.lists(st.tuples(coeffs, values), max_size=7))
    if draw(st.booleans()):
        point = {v: draw(values) for v in names}

        def lhs(c):
            return sum((a * point[v] for v, a in c.items()), F(0))

        eqs = [(c, lhs(c)) for c, _ in eqs]
        ineqs = [(c, lhs(c) - draw(slack)) for c, _ in ineqs]
    return linear_system(names, eqs, ineqs)


@given(sys_=linear_systems())
def test_lp_matches_dense_simplex_oracle(sys_):
    # equal, not only valid: the same verdict, point and certificate
    with time_limit(2):
        got = fp.lp_feasible(sys_)
    assert got == dense_simplex_oracle(sys_)


@given(sys_=linear_systems(big=True))
def test_lp_matches_dense_simplex_oracle_on_big_numbers(sys_):
    # gcd reduction and cross-multiplied ratio ties are where an integer
    # tableau would part from the Fraction one
    with time_limit(2):
        got = fp.lp_feasible(sys_)
    assert got == dense_simplex_oracle(sys_)


@st.composite
def systems_and_points(draw):
    """A system and a point over small or 10^12-sized values; each row's
    right-hand side is the point's left-hand side, often shifted by a
    drawn value, so rows hold with equality, pass and fail."""
    values = draw(st.sampled_from([small_fractions, big_fractions]))
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    point = {v: draw(values) for v in names}

    def rows(max_size):
        out = []
        for coeffs in draw(st.lists(st.dictionaries(st.sampled_from(names), values),
                                    max_size=max_size)):
            lhs = sum((a * point[v] for v, a in coeffs.items()), F(0))
            out.append((coeffs, lhs + draw(st.just(F(0)) | values)))
        return out

    return linear_system(names, rows(3), rows(7)), point


@given(sys_point=systems_and_points())
def test_satisfies_matches_fraction_oracle(sys_point):
    # the integer re-check must give the Fraction sums' verdict
    sys_, point = sys_point
    assert satisfies(sys_, point) == satisfies_oracle(sys_, point)


def test_core_matches_dense_simplex_oracle(monkeypatch):
    rng = random.Random(8080)
    games = [random_table_game(rng, n_rec=rng.randint(1, 5)) for _ in range(60)]
    games += [fp.build_linear(F(1, 5), F(37, 2), [F(i % 7 + 1, 100) for i in range(n)])
              for n in (3, 6, 9)]
    games += [fp.build_threshold(F(1, 5), 30, n, k, F(3, 10))
              for n, k in ((4, 4), (6, 3), (9, 9), (9, 4))]
    with time_limit(20):
        sparse = [fp.core_is_nonempty(g) for g in games]
    monkeypatch.setattr(corelp, "lp_feasible", dense_simplex_oracle)
    assert [fp.core_is_nonempty(g) for g in games] == sparse


def test_core_matches_dense_simplex_oracle_at_benchmark_size(monkeypatch):
    # shaped like the price-large specs: 13-player linear and threshold
    # (k = 5) games with a Core point, and a 12-player general game whose
    # Core is empty (v(N) = v({s}) while some small coalitions gain)
    rng = random.Random(1313)
    recs = [f"r{i:02d}" for i in range(1, 13)]
    p = F(rng.randint(2, 8), 20)
    linear = fp.build_linear(p, F(rng.randint(20, 400), 4),
                             [(1 - p) * F(rng.randint(1, 60), 720) for _ in recs],
                             recommenders=recs)
    threshold = fp.build_threshold(p, F(rng.randint(20, 400), 4), 12, 5,
                                   (1 - p) * F(rng.randint(1, 20), 20))
    uplift = {("s", r): (1 - p) * F(rng.randint(1, 20), 20) for r in rng.sample(recs[:11], 6)}
    for pair in rng.sample(list(combinations(recs[:11], 2)), 10):
        uplift[("s", *pair)] = (1 - p) * F(rng.randint(1, 20), 20)
    general = fp.build_general(p, F(rng.randint(20, 400), 4), uplift, recommenders=recs[:11])
    games = [linear, threshold, general]
    with time_limit(20):
        got = [fp.core_is_nonempty(g) for g in games]
    assert [r.nonempty for r in got] == [True, True, False]
    # the zero-extended certificate refutes the full 2^n system
    assert fp.certificate_refutes(fp.core_system(general), got[2].certificate)
    monkeypatch.setattr(corelp, "lp_feasible", dense_simplex_oracle)
    assert [fp.core_is_nonempty(g) for g in games] == got


def test_row_generation_adds_the_membership_witness(monkeypatch):
    # each round's new row is the coalition core_contains names for the last
    # LP point, and the first round's rows are the singletons
    rng = random.Random(3030)
    games = [load_game((GOLDEN / "general6.json").read_text(encoding="utf-8"))]
    games += [random_table_game(rng, n_rec=rng.randint(1, 5)) for _ in range(20)]
    games += [fp.build_threshold(F(1, 5), 30, 6, 3, F(3, 10))]
    solve = corelp.lp_feasible
    for game in games:
        rounds = []

        def recording(sys_, rounds=rounds):
            rounds.append(([frozenset(c.coeffs) for c in sys_.inequalities], solve(sys_)))
            return rounds[-1][1]

        monkeypatch.setattr(corelp, "lp_feasible", recording)
        result = fp.core_is_nonempty(game)
        assert rounds[0][0] == [frozenset({i}) for i in sorted(game.player_ids)]
        for (rows, res), (next_rows, _) in zip(rounds, rounds[1:]):
            assert next_rows[:-1] == rows
            assert next_rows[-1] == fp.core_contains(game, res.point).violating_coalition
        assert result.nonempty == rounds[-1][1].feasible
        if result.nonempty:
            assert fp.core_contains(game, result.core_point).in_core


def test_core_system_of_table1_linear():
    g = fp.build_linear("0.5", 1, ["0.2", "0.1"])
    sys_ = fp.core_system(g)
    # direct substitution: the seller-takes-all vector satisfies every row
    assert satisfies(sys_, {"s": F("0.8"), "r1": F(0), "r2": F(0)})
    res = fp.lp_feasible(sys_)
    assert res.feasible and satisfies(sys_, res.point)


def test_deterministic_results():
    g = fp.build_linear("0.3", 2, ["0.25", "0.15"])
    first = fp.core_is_nonempty(g)
    second = fp.core_is_nonempty(g)
    assert first.core_point == second.core_point


def test_membership_agrees_with_brute_force():
    rng = random.Random(4242)
    for _ in range(200):
        game = random_table_game(rng)
        ids = sorted(game.player_ids)
        x = {i: F(rng.randint(-2, 8), 2) for i in ids}
        if rng.random() < 0.5:  # half the draws are feasible by construction
            total = game.worth(game.grand_coalition)
            x[ids[0]] += total - sum(x.values(), F(0))
        got = fp.core_contains(game, x)
        assert got.in_core == _brute_force_in_core(game, x)
        if got.violating_coalition is not None:
            s = got.violating_coalition
            assert game.worth(s) > sum((x[i] for i in s), F(0))


def test_witness_is_lexicographically_smallest():
    # every recommender singleton violates; the witness must be r1
    g = fp.build_threshold(0, 1, 3, 3, "0.9")
    x = {"s": F("0.9") + 3, "r1": F(-1), "r2": F(-1), "r3": F(-1)}
    got = fp.core_contains(g, x)
    assert got.violating_coalition == frozenset({"r1"})


def test_overpaying_vector_fails_without_witness():
    g = fp.build_linear("0.5", 1, ["0.2"])
    got = fp.core_contains(g, {"s": F(1), "r1": F(1)})
    assert not got.in_core and not got.feasible and got.violating_coalition is None


@given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=10),
    f=st.fractions(min_value=0, max_value=1, max_denominator=10),
    d=st.fractions(min_value=0, max_value=4, max_denominator=4),
    x=st.fractions(min_value=-1, max_value=5, max_denominator=8),
)
def test_two_player_membership_interval(p, f, d, x):
    # membership iff 0 <= x <= f * delta, with the seller taking the rest
    if f > 1 - p:
        return
    g = fp.build_general(p, d, {("s", "r"): f}, recommenders=["r"])
    payoff = {"s": (p + f) * d - x, "r": x}
    assert fp.core_contains(g, payoff).in_core == (0 <= x <= f * d)


@given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=8),
    f=st.fractions(min_value=0, max_value=1, max_denominator=8),
    d=st.fractions(min_value=0, max_value=4, max_denominator=4),
)
def test_two_player_shapley_in_core(p, f, d):
    if f > 1 - p:
        return
    g = fp.build_general(p, d, {("s", "r"): f}, recommenders=["r"])
    assert fp.core_contains(g, fp.shapley(g)).in_core


def test_linear_membership_condition():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = F(rng.randint(0, 4), 8)
        qs = [F(rng.randint(0, 2), 8) for _ in range(n)]
        if p + sum(qs, F(0)) > 1:
            continue
        d = F(rng.randint(1, 6), 2)
        g = fp.build_linear(p, d, qs)
        recs = g.recommenders
        x = {r: F(rng.randint(-1, 3), 4) for r in recs}
        x["s"] = g.worth(g.grand_coalition) - sum(x.values(), F(0))
        q_map = dict(zip(recs, qs))
        from itertools import chain, combinations

        cond = all(
            0 <= sum((x[r] for r in t), F(0)) <= sum((q_map[r] for r in t), F(0)) * d
            for t in chain.from_iterable(combinations(recs, k) for k in range(1, n + 1))
        ) and x["s"] >= p * d
        assert fp.core_contains(g, x).in_core == cond


def test_threshold_membership_condition():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        p = F(rng.randint(0, 4), 8)
        q = (1 - p) * F(rng.randint(0, 4), 4)
        d = F(rng.randint(1, 4), 2)
        g = fp.build_threshold(p, d, n, k, q)
        recs = g.recommenders
        x = {r: F(rng.randint(0, 2), 4) for r in recs}
        x["s"] = g.worth(g.grand_coalition) - sum(x.values(), F(0))
        from itertools import chain, combinations

        cond = x["s"] >= p * d
        for t in chain.from_iterable(combinations(recs, j) for j in range(1, n + 1)):
            cap = F(0) if len(t) <= n - k else q * d
            paid = sum((x[r] for r in t), F(0))
            cond = cond and 0 <= paid <= cap
        assert fp.core_contains(g, x).in_core == cond


def test_threshold_k_less_than_n_only_seller_takes_all():
    g = fp.build_threshold(0, 10, 2, 1, "0.4")
    total = g.worth(g.grand_coalition)
    assert fp.core_contains(g, {"s": total, "r1": F(0), "r2": F(0)}).in_core
    assert not fp.core_contains(g, {"s": total - F(1, 2), "r1": F(1, 2), "r2": F(0)}).in_core


def test_monotone_uplift_general_games_nonempty():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 3)
        recs = [f"r{i}" for i in range(1, n + 1)]
        p = F(rng.randint(0, 4), 8)
        cap = 1 - p
        from itertools import chain, combinations

        # grand-coalition uplift dominates every other entry
        table = {}
        for combo in chain.from_iterable(combinations(recs, j) for j in range(1, n + 1)):
            table[frozenset(combo) | {"s"}] = cap * F(rng.randint(0, 6), 12)
        grand = frozenset(recs) | {"s"}
        table[grand] = max(table.values(), default=F(0))
        g = fp.build_general(p, F(rng.randint(0, 6), 2), table, recommenders=recs)
        res = fp.core_is_nonempty(g)
        assert res.nonempty
        assert fp.core_contains(g, res.core_point).in_core


def test_empty_core_fixture_with_certificate():
    g = fp.build_general(
        0, 1,
        {("s", "r1"): "1/2", ("s", "r2"): "1/2", ("s", "r1", "r2"): 0},
        recommenders=["r1", "r2"],
    )
    res = fp.core_is_nonempty(g)
    assert not res.nonempty
    assert fp.certificate_refutes(fp.core_system(g), res.certificate)


def test_lazy_rows_handle_larger_games():
    # 10 players: the full system has 2^10 - 2 inequality rows
    g = fp.build_linear(F(1, 4), 2, [F(1, 50)] * 9)
    res = fp.core_is_nonempty(g)
    assert res.nonempty
    assert fp.core_contains(g, res.core_point).in_core

    # 6-player empty core; certificate must refute the full system
    uplift = {frozenset({"s", f"r{i}"}): F(1, 2) for i in range(1, 6)}
    uplift[frozenset({"s", "r1", "r2", "r3", "r4", "r5"})] = F(0)
    bad = fp.build_general(0, 1, uplift, recommenders=[f"r{i}" for i in range(1, 6)])
    res = fp.core_is_nonempty(bad)
    assert not res.nonempty
    assert fp.certificate_refutes(fp.core_system(bad), res.certificate)


def test_nonempty_core_point_is_exact():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = F(rng.randint(0, 5), 10)
        qs = [(1 - p) * F(rng.randint(0, 3), 9) for _ in range(n)]
        if p + sum(qs, F(0)) > 1:
            continue
        g = fp.build_linear(p, F(rng.randint(0, 6), 2), qs)
        res = fp.core_is_nonempty(g)
        assert res.nonempty
        assert fp.core_contains(g, res.core_point).in_core


# ---------------------------------------------------------------------------
# Balanced collections (small player counts, closed-form enumerable)
# ---------------------------------------------------------------------------

def minimal_balanced_collections(ids):
    """Minimal balanced collections for up to three players."""
    ids = sorted(ids)
    n = len(ids)
    one = F(1)
    if n == 1:
        return [{frozenset(ids): one}]
    if n == 2:
        a, b = ids
        return [
            {frozenset({a, b}): one},
            {frozenset({a}): one, frozenset({b}): one},
        ]
    if n == 3:
        a, b, c = ids
        half = F(1, 2)
        return [
            {frozenset(ids): one},
            {frozenset({a}): one, frozenset({b}): one, frozenset({c}): one},
            {frozenset({a}): one, frozenset({b, c}): one},
            {frozenset({b}): one, frozenset({a, c}): one},
            {frozenset({c}): one, frozenset({a, b}): one},
            {frozenset({a, b}): half, frozenset({a, c}): half, frozenset({b, c}): half},
        ]
    raise ValueError("enumerable only for up to 3 players")


def test_balancedness_matches_lp_verdict():
    rng = random.Random(77)
    for _ in range(80):
        game = random_table_game(rng, n_rec=rng.randint(1, 2))
        balanced = all(
            bondareva_shapley_oracle(game, w)
            for w in minimal_balanced_collections(game.player_ids)
        )
        assert balanced == fp.core_is_nonempty(game).nonempty


def test_balanced_inequality_detects_empty_core():
    g = fp.build_general(
        0, 1,
        {("s", "r1"): "1/2", ("s", "r2"): "1/2", ("s", "r1", "r2"): 0},
        recommenders=["r1", "r2"],
    )
    verdicts = [
        bondareva_shapley_oracle(g, w)
        for w in minimal_balanced_collections(g.player_ids)
    ]
    assert not all(verdicts)
