"""Command-line interface: price, simulate, verify.

Exit codes: 0 success (for verify: all claims pass), 1 failed verification
claims, 2 input/validation errors, 3 resource caps.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import fair_division as fd
from . import specio, trust, verification
from .errors import FairpriceError, ResourceCapError, ValidationError
from .games import Game
from .rational import decimal_str

EXIT_OK = 0
EXIT_CLAIMS_FAILED = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3

GAME_METHODS = ("shapley", "nash", "core-check", "core-nonempty")
ARGUMENT_METHODS = ("shapley", "anon-shapley")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairprice",
        description="Fair recommendation prices and strategic-recommending simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="compute fair payoffs/prices for a game spec")
    p_price.add_argument("--game", required=True, help="path to a game or argument-game JSON spec")
    p_price.add_argument(
        "--method",
        required=True,
        help="comma-separated: shapley, anon-shapley, nash, core-check, core-nonempty",
    )
    p_price.add_argument(
        "--payment",
        choices=[fd.PAY_PER_RECOMMENDATION, fd.PAY_PER_SALE],
        help="also emit per-recommender prices under this payment mode",
    )
    p_price.add_argument(
        "--vector",
        help="payoff vector for core-check: JSON object, a path to one, or 'seller-all'",
    )
    p_price.add_argument("--out", help="output path (default: stdout)")
    p_price.add_argument("--format", choices=["csv", "json"], default="json")

    p_sim = sub.add_parser("simulate", help="expected reward curves under trust decay")
    p_sim.add_argument("--p0", required=True, help="initial success probability in (0,1)")
    p_sim.add_argument("--l", required=True, help="loss rate in [0,1)")
    p_sim.add_argument("--g", default="1", help="recovery factor >= 1 (default 1)")
    p_sim.add_argument("--r", default="1", help="per-success reward (default 1)")
    p_sim.add_argument("--n", required=True, type=int, help="number of steps")
    p_sim.add_argument(
        "--policy", required=True, help="one of: all, optimal, every-k:<k>"
    )
    p_sim.add_argument(
        "--reset",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reset trust to p0 on success (default on)",
    )
    p_sim.add_argument("--trials", type=int, help="also run a Monte-Carlo estimate")
    p_sim.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed (default 0)")
    p_sim.add_argument("--tol", type=float, default=1e-12, help="series/product truncation tol")
    p_sim.add_argument("--out", help="output path (default: stdout); directory with --split")
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sim.add_argument(
        "--split", action="store_true", help="write one file per policy into --out"
    )

    p_ver = sub.add_parser("verify", help="run a named claim suite")
    p_ver.add_argument("--suite", required=True, help=", ".join(verification.SUITES))
    p_ver.add_argument("--seed", type=int, help="override the suite's default seed")
    return parser


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

def _payoff_rows(method: str, payoff: dict) -> list[dict]:
    rows = []
    for pid in sorted(payoff):
        rows.append({"id": pid, "method": method, **specio.render_value(payoff[pid])})
    return rows


def _price_rows(method: str, payment: str, payoff: dict, game: Game) -> list[dict]:
    schedule = fd.to_prices(payoff, game, payment)
    return [
        {"id": rid, "method": f"{method}+{payment}", **specio.render_value(price)}
        for rid, price in sorted(schedule.prices.items())
    ]


def _core_check_vector(args, game: Game) -> dict[str, Fraction]:
    if args.vector is None:
        raise ValidationError("core-check requires --vector (JSON object or 'seller-all')")
    if args.vector == "seller-all":
        x = {pid: Fraction(0) for pid in game.player_ids}
        x[game.seller] = game.worth(game.grand_coalition)
        return x
    text = args.vector
    candidate = Path(args.vector)
    if candidate.exists():
        text = candidate.read_text(encoding="utf-8")
    return specio.load_payoff_vector(text, "--vector")


def cmd_price(args) -> int:
    from . import corelp

    text = Path(args.game).read_text(encoding="utf-8")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise ValidationError("no methods given")

    doc: dict = {"input": args.game, "results": []}
    rows = doc["results"]

    spec = specio.load_spec(text, args.game)
    if isinstance(spec, fd.ArgumentGame):
        for method in methods:
            if method not in ARGUMENT_METHODS:
                raise ValidationError(
                    f"method {method!r} needs a player-game spec, got an argument game"
                )
            if method == "shapley":
                rows.extend(_payoff_rows("shapley", fd.shapley_arguments(spec)))
            else:
                per_arg, per_rec = fd.anonymity_proof_shapley(spec)
                rows.extend(_payoff_rows("anon-shapley:argument", per_arg))
                rows.extend(_payoff_rows("anon-shapley", per_rec))
    else:
        game = spec
        for method in methods:
            if method not in GAME_METHODS:
                raise ValidationError(
                    f"method {method!r} needs an argument-game spec (with 'arguments')"
                )
            if method == "shapley":
                payoff = fd.shapley(game)
                rows.extend(_payoff_rows("shapley", payoff))
                if args.payment:
                    rows.extend(_price_rows("shapley", args.payment, payoff, game))
            elif method == "nash":
                payoff = fd.nash_bargaining(fd.bargaining_problem(game))
                rows.extend(_payoff_rows("nash", payoff))
                if args.payment:
                    rows.extend(_price_rows("nash", args.payment, payoff, game))
            elif method == "core-check":
                x = _core_check_vector(args, game)
                result = corelp.core_contains(game, x)
                doc["core_check"] = {
                    "in_core": result.in_core,
                    "feasible": result.feasible,
                    "witness": (
                        None
                        if result.violating_coalition is None
                        else sorted(result.violating_coalition)
                    ),
                    "vector": {k: str(v) for k, v in sorted(x.items())},
                }
            elif method == "core-nonempty":
                result = corelp.core_is_nonempty(game)
                doc["core_nonempty"] = {
                    "nonempty": result.nonempty,
                    "core_point": (
                        None
                        if result.core_point is None
                        else {k: str(v) for k, v in sorted(result.core_point.items())}
                    ),
                    "certificate": (
                        None
                        if result.certificate is None
                        else {
                            "equality_multipliers": [
                                str(m) for m in result.certificate.eq_multipliers
                            ],
                            "inequality_multipliers": [
                                str(m) for m in result.certificate.ineq_multipliers
                            ],
                        }
                    ),
                }

    if args.format == "json":
        payload = specio.results_to_json(doc)
    else:
        summary = []
        for key in ("core_check", "core_nonempty"):
            if key in doc:
                flag = key.replace("_", "-")
                value = doc[key].get("in_core", doc[key].get("nonempty"))
                summary.append((flag, flag, str(int(value))))
        payload = specio.results_to_csv(rows, summary)
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_policy(spec: str, tp: trust.TrustParams, n: int):
    if spec == "all":
        return trust.AllPolicy(), None
    if spec == "optimal":
        curve, policy = trust.dp_optimal(tp, n)
        return policy, curve
    if spec.startswith("every-k:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad every-k policy {spec!r}")
        return trust.EveryK(k), None
    raise ValidationError(f"unknown policy {spec!r} (use all, optimal, every-k:<k>)")


def cmd_simulate(args) -> int:
    tp = trust.TrustParams(args.p0, args.l, args.g, args.r, reset=args.reset)
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    policy, dp_curve = _parse_policy(args.policy, tp, args.n)

    if dp_curve is not None:
        curve = dp_curve
    elif isinstance(policy, trust.EveryK) and tp.reset:
        curve = trust.every_k_reward(tp, policy.k, args.n)
    else:
        curve = trust.expected_curve(tp, policy, args.n, prune=args.tol)

    curves = [curve]
    if args.trials:
        curves.append(trust.mc_simulate(tp, policy, args.n, args.trials, args.seed))

    if args.split:
        if not args.out:
            raise ValidationError("--split requires --out <directory>")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for c in curves:
            name = c.policy.replace(":", "-")
            _write_curves([c], args.format, outdir / f"{name}.{args.format}")
    else:
        _write_curves(curves, args.format, args.out)
    return EXIT_OK


def _write_curves(curves, fmt: str, out) -> None:
    if fmt == "csv":
        payload = specio.curves_to_csv(curves)
    else:
        payload = specio.results_to_json(
            {
                "curves": [
                    {
                        "policy": c.policy,
                        "values": [decimal_str(v) for v in c.values],
                        "stderr": None if c.stderr is None else [decimal_str(e) for e in c.stderr],
                    }
                    for c in curves
                ]
            }
        )
    _emit(payload, out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    results = verification.run_suite(args.suite, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:<{width}}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} claims passed")
    return EXIT_OK if failed == 0 else EXIT_CLAIMS_FAILED


# ---------------------------------------------------------------------------

def _emit(payload: str, out) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "price":
            return cmd_price(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_verify(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, FairpriceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
