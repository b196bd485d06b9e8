"""Named verification suites bundling the checkable claims of the model.

Each suite runs a set of claims and reports one pass/fail line per claim
with the measured values.  Suites: figure2, bounds, truthfulness,
core-laws, shapley-axioms.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple

from . import corelp, fair_division as fd, games, trust
from .errors import ValidationError

# The named experiment: n=200, r=1, p0=0.5, l=0.66, g in {1, 1.33}.
FIGURE2 = {"n": 200, "r": "1", "p0": "0.5", "l": "0.66", "g_recovery": "1.33"}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# Random game generators (seeded, exact rationals)
# ---------------------------------------------------------------------------

def random_general_game(rng: random.Random, n_rec: int | None = None) -> games.Game:
    """Random general-scenario game with small exact rational parameters."""
    if n_rec is None:
        n_rec = rng.randint(1, 3)
    p = Fraction(rng.randint(0, 8), 16)
    delta = Fraction(rng.randint(0, 12), 4)
    recs = [f"r{i}" for i in range(1, n_rec + 1)]
    cap = 1 - p
    uplift = {}
    for combo in chain.from_iterable(combinations(recs, k) for k in range(1, n_rec + 1)):
        if rng.random() < 0.8:
            uplift[frozenset(combo) | {"s"}] = cap * Fraction(rng.randint(0, 12), 12)
    return games.build_general(p, delta, uplift, seller="s", recommenders=recs)


def random_table_game(rng: random.Random, n_rec: int | None = None) -> games.Game:
    """Random worth-table game: nonnegative, zero without the seller."""
    if n_rec is None:
        n_rec = rng.randint(1, 3)
    ids = ["s"] + [f"r{i}" for i in range(1, n_rec + 1)]
    table = {}
    for combo in chain.from_iterable(combinations(ids, k) for k in range(1, len(ids) + 1)):
        if "s" in combo:
            table[frozenset(combo)] = Fraction(rng.randint(0, 24), 8)
    return games.from_table(ids, table)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_figure2() -> list[CheckResult]:
    out = []
    n = FIGURE2["n"]
    started = time.perf_counter()
    no_reset = trust.TrustParams(FIGURE2["p0"], FIGURE2["l"], 1, FIGURE2["r"], reset=False)
    with_reset = trust.TrustParams(FIGURE2["p0"], FIGURE2["l"], 1, FIGURE2["r"], reset=True)
    series = trust.no_reset_total(no_reset)
    curve_nr = trust.expected_curve(no_reset, trust.AllPolicy(), n).final
    out.append(_check(
        "no-reset asymptote 2.25 +/- 0.05",
        abs(series - 2.25) <= 0.05 and abs(curve_nr - 2.25) <= 0.05,
        f"series={series:.6f}, curve@{n}={curve_nr:.6f}",
    ))
    total = trust.with_reset_total(with_reset)
    curve_r = trust.expected_curve(with_reset, trust.AllPolicy(), n).final
    out.append(_check(
        "reset asymptote 5 +/- 0.10",
        abs(total - 5.0) <= 0.10 and abs(curve_r - 5.0) <= 0.10,
        f"fixed point={total:.6f}, curve@{n}={curve_r:.6f}",
    ))
    elapsed = time.perf_counter() - started
    out.append(_check("asymptote runtime < 5 s", elapsed < 5.0, f"elapsed={elapsed:.3f}s"))

    recov = trust.TrustParams(
        FIGURE2["p0"], FIGURE2["l"], FIGURE2["g_recovery"], FIGURE2["r"], reset=True
    )
    a3 = trust.every_k_reward(recov, 3, n)
    a4 = trust.every_k_reward(recov, 4, n)
    out.append(_check(
        "every-3 final 33.0 > every-4 final 25.0, exact",
        a3.final == Fraction(33) and a4.final == Fraction(25) and a3.final > a4.final,
        f"every-3={float(a3.final)}, every-4={float(a4.final)}",
    ))
    a2 = trust.every_k_reward(recov, 2, n)
    increments = [a2.value_at(t) - a2.value_at(t - 2) for t in range(4, n + 1, 2)]
    bounded = all(
        increments[i + 1] <= increments[i] + 1e-12 for i in range(len(increments) - 1)
    )
    limit = trust.with_reset_total(
        trust.TrustParams(recov.p0, recov.l * recov.g, 1, recov.r, reset=True)
    )
    out.append(_check(
        "every-2 curve bounded (Cauchy)",
        bounded and float(a2.final) <= limit + 1e-9,
        f"final={float(a2.final):.4f} <= limit={limit:.4f}, increments decreasing={bounded}",
    ))
    curve, _policy = trust.dp_optimal(recov, n)
    dominated = all(
        curve.value_at(t) + 1e-9 >= float(a3.value_at(t)) for t in range(1, n + 1)
    )
    growth = curve.value_at(n) - curve.value_at(n // 2)
    a3_growth = float(a3.value_at(n) - a3.value_at(n // 2))
    out.append(_check(
        "optimal dominates every-3 and keeps growing",
        dominated and growth > 0.9 * a3_growth,
        f"M_200={curve.final:.3f}, M_200-M_100={growth:.3f} vs 0.9*{a3_growth:.3f}",
    ))
    return out


def suite_bounds() -> list[CheckResult]:
    out = []
    grid = [Fraction(i, 10) for i in range(1, 10)]
    worst_gap = None
    ok_lower = ok_bound = True
    for p0 in grid:
        for l in grid:
            tp = trust.TrustParams(p0, l, 1, 1, reset=True)
            q = trust.zero_success_probability(tp)
            lower = trust.zero_success_lower_bound(tp)
            if not (q >= lower > 0):
                ok_lower = False
            total = trust.with_reset_total(tp)
            bound = trust.with_reset_total_bound(tp)
            if not total <= bound * (1 + 1e-12):
                ok_bound = False
            gap = q - lower
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
    out.append(_check(
        "never-succeed probability >= analytic lower bound > 0 on 9x9 grid",
        ok_lower,
        f"smallest slack={worst_gap:.3e}",
    ))
    out.append(_check("reset total <= analytic upper bound on 9x9 grid", ok_bound, "all points"))

    xs = [i / 50 for i in range(51)]
    vals = [trust.dilog(x) for x in xs]
    monotone = all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    cap = min(2 * math.exp(-1) + 1, math.pi**2 / 6) + 1e-9
    in_bounds = all(-1e-12 <= v <= cap for v in vals)
    h = 1e-5  # d/dx dilog(x) = ln(x)/(1-x): central differences on the grid's interior
    gap = max(abs((trust.dilog(x + h) - trust.dilog(x - h)) / (2 * h) - math.log(x) / (1 - x))
              for x in xs[1:-1])
    out.append(_check("dilog monotone decreasing on [0,1]", monotone, "51-point grid"))
    out.append(_check("0 <= dilog <= min(2/e+1, pi^2/6)", in_bounds, f"max={max(vals):.6f}"))
    out.append(_check("dilog' = ln x/(1-x) within 1e-6 (central difference)", gap <= 1e-6,
                      f"max gap={gap:.2e}"))
    return out


def suite_truthfulness(seed: int = 7) -> list[CheckResult]:
    rng = random.Random(seed)
    found = 0
    attempts = 0
    sound = True
    while attempts < 100:
        game = random_general_game(rng)
        payments = fd.shapley_rule(game)
        if sum(payments.values(), Fraction(0)) <= 0:
            continue
        attempts += 1
        report = fd.truthfulness_probe(game, fd.shapley_rule)
        if report.found and report.gain > 0:
            found += 1
            # soundness: re-evaluate the claimed gain independently
            truth = game.worth(game.grand_coalition) - sum(
                fd.shapley_rule(game).values(), Fraction(0)
            )
            dev = game.worth(game.grand_coalition) - sum(
                fd.shapley_rule(report.report).values(), Fraction(0)
            )
            if not dev > truth:
                sound = False
    out = [
        _check(
            "profitable misreport found for Shapley pricing on 100 games",
            found == 100,
            f"found {found}/100",
        ),
        _check("every reported deviation strictly improves the seller", sound, ""),
    ]
    zero_ok = True
    rng = random.Random(seed + 1)
    for _ in range(20):
        game = random_general_game(rng)
        report = fd.truthfulness_probe(game, fd.zero_rule)
        if report.found:
            zero_ok = False
    out.append(_check("zero-payment rule admits no deviation", zero_ok, "20 games"))
    return out


def suite_core_laws(seed: int = 11) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    agree = True
    for _ in range(500):
        game = random_table_game(rng)
        x = _random_payoff(rng, game)
        got = corelp.core_contains(game, x)
        want = _brute_force_in_core(game, x)
        if got.in_core != want:
            agree = False
            break
    out.append(_check("membership agrees with brute force on 500 games", agree, ""))

    nonempty_ok = True
    for _ in range(30):
        n_rec = rng.randint(1, 3)
        p = Fraction(rng.randint(0, 5), 10)
        delta = Fraction(rng.randint(1, 8), 2)
        qs = [(1 - p) * Fraction(rng.randint(0, 3), 12) for _ in range(n_rec)]
        if p + sum(qs, Fraction(0)) > 1:
            continue
        linear = games.build_linear(p, delta, qs)
        k = rng.randint(1, n_rec)
        q = (1 - p) * Fraction(rng.randint(0, 11), 11)
        thresh = games.build_threshold(p, delta, n_rec, k, q)
        for g in (linear, thresh):
            res = corelp.core_is_nonempty(g)
            if not res.nonempty or not corelp.core_contains(g, res.core_point).in_core:
                nonempty_ok = False
    out.append(
        _check("linear/threshold games always have a non-empty core", nonempty_ok, "30 draws")
    )

    fixture = games.build_general(
        0, 1,
        {frozenset({"s", "r1"}): "1/2", frozenset({"s", "r2"}): "1/2", frozenset({"s", "r1", "r2"}): 0},
        seller="s", recommenders=["r1", "r2"],
    )
    res = corelp.core_is_nonempty(fixture)
    cert_ok = (
        not res.nonempty
        and res.certificate is not None
        and corelp.certificate_refutes(corelp.core_system(fixture), res.certificate)
    )
    out.append(_check("non-monotone fixture has an empty core with a valid certificate", cert_ok, ""))

    thr = games.build_threshold("1/10", 10, 3, 2, "2/5")
    total = thr.worth(thr.grand_coalition)
    seller_all = {"s": total, "r1": Fraction(0), "r2": Fraction(0), "r3": Fraction(0)}
    ok = corelp.core_contains(thr, seller_all).in_core
    for _ in range(50):
        x = dict(seller_all)
        lucky = rng.choice(thr.recommenders)
        amount = Fraction(rng.randint(1, 20), 20)
        x[lucky] = amount
        x["s"] = total - amount
        if corelp.core_contains(thr, x).in_core:
            ok = False
    out.append(
        _check("threshold k<n admits only the seller-takes-all vector", ok, "50 random splits")
    )
    return out


def suite_shapley_axioms(seed: int = 5) -> list[CheckResult]:
    rng = random.Random(seed)
    eff = dummy = sym = add = True
    for _ in range(100):
        game = random_table_game(rng)
        phi = fd.shapley(game)
        if sum(phi.values(), Fraction(0)) != game.worth(game.grand_coalition):
            eff = False
        other = random_table_game(rng, n_rec=len(game.recommenders))
        phi_other = fd.shapley(other)
        phi_sum = fd.shapley(games.add_games(game, other))
        if any(phi_sum[i] != phi[i] + phi_other[i] for i in phi):
            add = False

    for _ in range(100):
        game = _game_with_dummy_and_twins(rng)
        phi = fd.shapley(game)
        if phi["dummy"] != 0:
            dummy = False
        if phi["t1"] != phi["t2"]:
            sym = False

    return [
        _check("efficiency: payoffs sum to v(N) on 100 random games", eff, ""),
        _check("additivity over 100 random game pairs", add, ""),
        _check("dummy player receives 0 on 100 games", dummy, ""),
        _check("interchangeable players paid equally on 100 games", sym, ""),
    ]


_SEEDLESS = ("figure2", "bounds")  # suites that draw nothing at random
SUITES = {
    "bounds": suite_bounds,
    "truthfulness": suite_truthfulness,
    "figure2": suite_figure2,
    "core-laws": suite_core_laws,
    "shapley-axioms": suite_shapley_axioms,
}


def run_suite(name: str, seed: int | None = None) -> list[CheckResult]:
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if seed is None:
        return SUITES[name]()
    if name in _SEEDLESS:
        raise ValidationError(f"suite {name!r} takes no seed")
    return SUITES[name](seed)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _random_payoff(rng: random.Random, game: games.Game) -> dict[str, Fraction]:
    total = game.worth(game.grand_coalition)
    ids = sorted(game.player_ids)
    # Mix feasible splits (mostly) with occasional infeasible vectors.
    weights = [Fraction(rng.randint(0, 6)) for _ in ids]
    s = sum(weights, Fraction(0))
    if s == 0 or rng.random() < 0.15:
        return {i: Fraction(rng.randint(-2, 6), 2) for i in ids}
    return {i: total * w / s for i, w in zip(ids, weights)}


def _brute_force_in_core(game: games.Game, payoff: dict[str, Fraction]) -> bool:
    total = sum(payoff.values(), Fraction(0))
    if total != game.worth(game.grand_coalition):
        return False
    for s in game.coalitions():
        if s and game.worth(s) > sum((payoff[i] for i in s), Fraction(0)):
            return False
    return True


def _game_with_dummy_and_twins(rng: random.Random) -> games.Game:
    """Linear game with one zero-increment recommender and two equal ones."""
    p = Fraction(rng.randint(0, 4), 8)
    delta = Fraction(rng.randint(1, 8), 2)
    q = (1 - p) * Fraction(rng.randint(0, 4), 10)
    if p + 2 * q > 1:
        q = (1 - p) / 2
    return games.build_linear(
        p, delta, {"t1": q, "t2": q, "dummy": Fraction(0)}, seller="s"
    )
