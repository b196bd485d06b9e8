"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold (run `pytest -rA` or `-s` to
see them)."""

import math
import random
import time
from fractions import Fraction as F

import fairprice as fp
from fairprice import TrustParams
from fairprice.trust import AllPolicy, expected_curve
from fairprice.verification import run_suite
from oracles import shapley_permutation_oracle


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def _suite_must_pass(criterion: str, name: str, seed=None) -> None:
    results = run_suite(name, seed)
    for r in results:
        assert r.passed, f"{criterion} / {r.name}: {r.detail}"
    _report(criterion, "; ".join(r.name for r in results))


def test_criterion_1_figure2_regression():
    started = time.perf_counter()
    no_reset = TrustParams("0.5", "0.66", 1, 1, reset=False)
    with_reset = TrustParams("0.5", "0.66", 1, 1, reset=True)

    series = fp.no_reset_total(no_reset)
    curve_nr = expected_curve(no_reset, AllPolicy(), 200).final
    assert abs(series - 2.25) <= 0.05
    assert abs(curve_nr - 2.25) <= 0.05

    total = fp.with_reset_total(with_reset)
    curve_r = expected_curve(with_reset, AllPolicy(), 200).final
    assert abs(total - 5.0) <= 0.10
    assert abs(curve_r - 5.0) <= 0.10

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(
        "criterion-1 figure2",
        f"no-reset {series:.4f} in 2.25+/-0.05, reset {total:.4f} in 5+/-0.10, "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_heuristic_dichotomy():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    n = 200

    a2 = fp.every_k_reward(tp, 2, n)
    increments = [a2.value_at(t) - a2.value_at(t - 2) for t in range(4, n + 1, 2)]
    assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))
    limit = fp.with_reset_total(TrustParams(tp.p0, tp.l * tp.g, 1, tp.r, reset=True))
    assert float(a2.final) <= limit + 1e-9

    a3 = fp.every_k_reward(tp, 3, n)
    a4 = fp.every_k_reward(tp, 4, n)
    per = tp.p0 * tp.r
    assert all(a3.value_at(t) - a3.value_at(t - 3) == per for t in range(4, n + 1))
    assert all(a4.value_at(t) - a4.value_at(t - 4) == per for t in range(5, n + 1))
    assert a3.final == F(33) and a4.final == F(25)
    assert a3.final > a4.final
    _report(
        "criterion-2 heuristic dichotomy",
        f"every-2 bounded (final {float(a2.final):.2f} <= {limit:.2f}), "
        f"every-3 slope p0*r/3 exact, finals 33.0 > 25.0 exact",
    )


def test_criterion_3_optimal_policy_divergence():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    n = 200
    curve, policy = fp.dp_optimal(tp, n)
    a3 = fp.every_k_reward(tp, 3, n)
    assert all(curve.value_at(t) + 1e-9 >= float(a3.value_at(t)) for t in range(1, n + 1))
    growth = curve.value_at(200) - curve.value_at(100)
    a3_growth = float(a3.value_at(200) - a3.value_at(100))
    assert growth > 0.9 * a3_growth

    mc = fp.mc_simulate(tp, policy, n, trials=100_000, seed=42)
    gap = abs(mc.final - curve.final)
    assert gap <= 3 * mc.stderr[-1]
    _report(
        "criterion-3 optimal divergence",
        f"M_n >= every-3 for n<=200, M_200-M_100 = {growth:.2f} > "
        f"0.9*{a3_growth:.2f}, MC gap {gap:.4f} <= 3 sigma "
        f"({3 * mc.stderr[-1]:.4f}) at 1e5 trials",
    )


def test_criterion_4_bound_suite():
    _suite_must_pass("criterion-4 bounds", "bounds")


def test_criterion_5_fair_price_constants():
    ag_full = fp.ArgumentGame(
        ["a", "b", "c"],
        {("a", "b"): 1, ("a", "c"): 1, ("a", "b", "c"): 1},
        {"r1": ["a"], "r2": ["b", "c"]},
    )
    ag_withheld = fp.ArgumentGame(
        ["a", "b", "c"],
        {("a", "b"): 1, ("a", "c"): 1, ("a", "b", "c"): 1},
        {"r1": ["a"], "r2": ["b"]},
    )
    _, payout_full = fp.anonymity_proof_shapley(ag_full)
    _, payout_withheld = fp.anonymity_proof_shapley(ag_withheld)
    assert payout_full == {"r1": F(3, 5), "r2": F(2, 5)}
    assert payout_withheld == {"r1": F(3, 4), "r2": F(1, 4)}

    plain_full = fp.shapley_arguments(ag_full)
    plain_withheld = fp.shapley_arguments(ag_withheld)
    r2_full = plain_full["b"] + plain_full["c"]
    r2_withheld = plain_withheld["b"]
    assert r2_full == F(1, 3) and r2_withheld == F(1, 2)
    assert r2_full < r2_withheld  # plain value rewards withholding...
    assert payout_full["r2"] > payout_withheld["r2"]  # ...the rescaled value reverses it

    q, d = F("2/5"), F(10)
    for n, k in [(2, 2), (3, 2), (4, 3)]:
        game = fp.build_threshold("1/10", d, n, k, q)
        phi = fp.shapley(game)
        oracle = shapley_permutation_oracle(game)
        # a recommender is pivotal when the seller and exactly k-1 of the
        # other n-1 recommenders precede, so the share carries C(n-1, k-1)
        share = (
            F(math.comb(n - 1, k - 1))
            * F(math.factorial(k) * math.factorial(n - k), math.factorial(n + 1))
            * q * d
        )
        for r in game.recommenders:
            assert phi[r] == share == oracle[r]

    nash_game = fp.build_general(
        "0.2", 5, {("s", "r1", "r2", "r3"): "0.6"}, recommenders=["r1", "r2", "r3"]
    )
    nb = fp.nash_bargaining(fp.bargaining_problem(nash_game))
    assert all(nb[r] == F("0.6") * 5 / 4 for r in nash_game.recommenders)
    _report(
        "criterion-5 constants",
        "psi 3/5 & 2/5 and 3/4 & 1/4; plain 1/3 < 1/2 reversed; threshold shares "
        "match enumeration for (2,2),(3,2),(4,3); nash share f(N)d/(n+1)",
    )


def test_criterion_5_threshold_share_pinned_constants():
    """Pinned threshold shares C(n-1,k-1) * k!(n-k)!/(n+1)! * q * delta for
    p = 1/10, delta = 10, q = 2/5, checked against the subset-sum Shapley
    value and the permutation-enumeration oracle.

    A recommender is pivotal when the seller and exactly k-1 of the other
    n-1 recommenders precede it: C(n-1,k-1) sets, each of weight
    k!(n-k)!/(n+1)!. The paper-form k!(n-k)!/(n+1)! * q * delta leaves out
    that count; the two agree only for k = 1 and k = n. The seller keeps
    p*delta + q*delta*(n-k+1)/(n+1), and all shares sum to worth(N).
    """
    p, q, d = F("1/10"), F("2/5"), F(10)
    pinned = {(2, 2): F(4, 3), (3, 2): F(2, 3), (4, 3): F(3, 5), (3, 1): F(1, 3)}
    for (n, k), share in pinned.items():
        game = fp.build_threshold(p, d, n, k, q)
        phi = fp.shapley(game)
        oracle = shapley_permutation_oracle(game)
        paper_form = F(math.factorial(k) * math.factorial(n - k), math.factorial(n + 1)) * q * d
        assert share == math.comb(n - 1, k - 1) * paper_form, (
            f"(n={n},k={k}): pinned {share} is not C(n-1,k-1) * {paper_form}"
        )
        for r in game.recommenders:
            assert phi[r] == share == oracle[r], (
                f"(n={n},k={k}) {r}: pinned {share}, shapley {phi[r]}, enumerated {oracle[r]}"
            )
        seller_share = p * d + q * d * F(n - k + 1, n + 1)
        assert phi[game.seller] == seller_share == oracle[game.seller]
        assert seller_share + n * share == game.worth(game.grand_coalition)
    _report(
        "criterion-5 threshold pinned constants",
        ", ".join(f"(n={n},k={k}) {s}" for (n, k), s in pinned.items())
        + " = C(n-1,k-1)*k!(n-k)!/(n+1)!*q*delta, equal to shapley and enumeration; "
        "seller plus shares = worth(N)",
    )


def test_criterion_6_two_player_coincidence():
    rng = random.Random(2024)
    for _ in range(1000):
        p = F(rng.randint(0, 16), 16)
        f = (1 - p) * F(rng.randint(0, 8), 8)
        d = F(rng.randint(0, 24), 4)
        g = fp.build_general(p, d, {("s", "r"): f}, recommenders=["r"])
        assert fp.shapley(g) == fp.nash_bargaining(fp.bargaining_problem(g))
    _report("criterion-6 coincidence", "nash == shapley exactly on 1000 random 2-player games")


def test_criterion_7_core_laws():
    _suite_must_pass("criterion-7 core laws", "core-laws")


def test_criterion_8_truthfulness_probe():
    _suite_must_pass("criterion-8 truthfulness", "truthfulness")


def test_criterion_9_shapley_axioms():
    _suite_must_pass("criterion-9 shapley axioms", "shapley-axioms")
