#!/usr/bin/env python3
"""Walk through the fair-price solution concepts on small worked games.

Prints, with exact rationals:
- the two-recommender linear game's worth table and its Shapley, Nash and
  Core answers,
- the threshold game where the Core collapses to seller-takes-all,
- the argument-withholding story: plain per-argument values reward hiding
  an argument, the rescaled (anonymity-proof) values reverse that,
- a seller misreport found by the truthfulness probe.
"""

from fairprice import (
    ArgumentGame,
    anonymity_proof_shapley,
    bargaining_problem,
    build_linear,
    build_threshold,
    core_contains,
    core_is_nonempty,
    nash_bargaining,
    shapley,
    shapley_arguments,
    shapley_rule,
    truthfulness_probe,
)


def show(title: str, mapping) -> None:
    body = ", ".join(f"{k}={v}" for k, v in sorted(mapping.items()))
    print(f"  {title}: {body}")


def main() -> None:
    print("== linear game: p=1/2, delta=1, q=(1/5, 1/10) ==")
    linear = build_linear("0.5", 1, ["0.2", "0.1"])
    for s in linear.coalitions():
        print(f"  v({{{','.join(sorted(s)) or ' '}}}) = {linear.worth(s)}")
    show("shapley", shapley(linear))
    show("nash", nash_bargaining(bargaining_problem(linear)))
    core = core_is_nonempty(linear)
    show("a core point", core.core_point)
    seller_all = {"s": linear.worth(linear.grand_coalition), "r1": 0, "r2": 0}
    print(f"  seller-takes-all in core: {core_contains(linear, seller_all).in_core}")

    print("\n== threshold game, k=1 < n=2: the core pays recommenders nothing ==")
    thr = build_threshold(0, 10, 2, 1, "0.4")
    show("shapley", shapley(thr))
    split = {"s": thr.worth(thr.grand_coalition) - 1, "r1": 1, "r2": 0}
    verdict = core_contains(thr, split)
    print(f"  paying r1 one unit: in_core={verdict.in_core}, "
          f"blocked by {sorted(verdict.violating_coalition)}")

    print("\n== argument withholding ==")
    worths = {("a", "b"): 1, ("a", "c"): 1, ("a", "b", "c"): 1}
    full = ArgumentGame(["a", "b", "c"], worths, {"r1": ["a"], "r2": ["b", "c"]})
    hidden = ArgumentGame(["a", "b", "c"], worths, {"r1": ["a"], "r2": ["b"]})
    show("plain values, all declared", shapley_arguments(full))
    show("plain values, c withheld", shapley_arguments(hidden))
    print("  -> plain values pay r2 more for hiding c (1/3 vs 1/2)")
    _, full_pay = anonymity_proof_shapley(full)
    _, hidden_pay = anonymity_proof_shapley(hidden)
    show("rescaled payout, all declared", full_pay)
    show("rescaled payout, c withheld", hidden_pay)
    print("  -> the rescaled payout reverses it (2/5 vs 1/4)")

    print("\n== seller misreport against shapley pricing ==")
    game = build_linear("0.5", 10, ["0.3"])
    report = truthfulness_probe(game, shapley_rule)
    print(f"  truthful utility {report.truthful_utility}, "
          f"deviating utility {report.best_utility} "
          f"(reported margin {report.report.scenario.delta})")


if __name__ == "__main__":
    main()
