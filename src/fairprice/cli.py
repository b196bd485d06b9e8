"""Command-line interface: price, simulate, verify.

Exit codes: 0 success (for verify: all claims pass), 1 failed verification
claims, 2 input/validation errors, 3 resource caps.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import corelp, specio, verification
from . import fair_division as fd
from .errors import FairpriceError, ResourceCapError, ValidationError
from .games import Game, check_covers
from .rational import decimal_str, frac_str

if TYPE_CHECKING:
    from . import trust

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
    p_sim.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="exact expectation: drop states carrying less probability (default 1e-12)",
    )
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
    return [{"id": pid, "method": method, **specio.render_value(x)}
            for pid, x in sorted(payoff.items())]


def _fracs(values: dict | None) -> dict[str, str] | None:
    """Exact strings of a map of rationals, sorted by key."""
    return None if values is None else {k: frac_str(v) for k, v in sorted(values.items())}


def _core_check_vector(args, game: Game) -> dict[str, Fraction]:
    if args.vector is None:
        raise ValidationError("core-check requires --vector (JSON object or 'seller-all')")
    if args.vector == "seller-all":
        x = {pid: Fraction(0) for pid in game.player_ids}
        x[game.seller] = game.worth(game.grand_coalition)
        return x
    # a path or inline JSON; Path.exists, unlike os.path.exists, raises on overlong names
    text = _read_text(args.vector) if os.path.exists(args.vector) else args.vector
    x = specio.load_payoff_vector(text, "--vector")
    check_covers(game, x)
    return x


def cmd_price(args) -> int:
    text = _read_text(args.game)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise ValidationError("no methods given")
    spec = specio.load_spec(text, args.game)

    # every method, --payment and --vector are checked before any pricing work
    arguments = isinstance(spec, fd.ArgumentGame)
    if arguments:
        allowed, needs = ARGUMENT_METHODS, "a player-game spec, got an argument game"
    else:
        allowed, needs = GAME_METHODS, "an argument-game spec (with 'arguments')"
    for method in methods:
        if method not in allowed:
            raise ValidationError(f"method {method!r} needs {needs}")
    if args.payment:
        if arguments:
            raise ValidationError(f"--payment needs {needs}")
        fd.payment_divisor(spec, args.payment)
    if args.vector is not None and "core-check" not in methods:
        raise ValidationError("--vector needs core-check among the methods")
    vector = _core_check_vector(args, spec) if "core-check" in methods else None

    doc: dict = {"input": args.game, "results": []}
    rows = doc["results"]
    for method in methods:
        if method == "anon-shapley":
            per_arg, per_rec = fd.anonymity_proof_shapley(spec)
            rows += _payoff_rows("anon-shapley:argument", per_arg)
            rows += _payoff_rows("anon-shapley", per_rec)
        elif arguments:  # shapley over the arguments
            rows += _payoff_rows("shapley", fd.shapley_arguments(spec))
        elif method == "core-check":
            result = corelp.core_contains(spec, vector)
            witness = result.violating_coalition
            doc["core_check"] = {
                "in_core": result.in_core,
                "feasible": result.feasible,
                "witness": None if witness is None else sorted(witness),
                "vector": _fracs(vector),
            }
        elif method == "core-nonempty":
            result = corelp.core_is_nonempty(spec)
            cert = result.certificate
            doc["core_nonempty"] = {
                "nonempty": result.nonempty,
                "core_point": _fracs(result.core_point),
                "certificate": None if cert is None else {
                    "equality_multipliers": [frac_str(m) for m in cert.eq_multipliers],
                    "inequality_multipliers": [frac_str(m) for m in cert.ineq_multipliers],
                },
            }
        else:  # shapley or nash over the players
            if method == "shapley":
                payoff = fd.shapley(spec)
            else:
                payoff = fd.nash_bargaining(fd.bargaining_problem(spec))
            rows += _payoff_rows(method, payoff)
            if args.payment:
                prices = fd.to_prices(payoff, spec, args.payment).prices
                rows += _payoff_rows(f"{method}+{args.payment}", prices)

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

def _policy_curve(args, tp: trust.TrustParams):
    """The policy named by --policy and its curve: the DP's for optimal, else
    the exact expectation (closed form for every-k with reset when it applies)."""
    from . import trust

    if args.policy == "optimal":
        curve, policy = trust.dp_optimal(tp, args.n)
        return policy, curve
    if args.policy == "all":
        policy = trust.AllPolicy()
    elif args.policy.startswith("every-k:"):
        try:
            k = int(args.policy.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad every-k policy {args.policy!r}")
        policy = trust.EveryK(k)
        if tp.reset:
            return policy, trust.every_k_reward(tp, k, args.n, prune=args.tol)
    else:
        raise ValidationError(f"unknown policy {args.policy!r} (use all, optimal, every-k:<k>)")
    return policy, trust.expected_curve(tp, policy, args.n, prune=args.tol)


def cmd_simulate(args) -> int:
    from . import trust

    tp = trust.TrustParams(args.p0, args.l, args.g, args.r, reset=args.reset)
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    if args.trials is not None:
        trust.check_monte_carlo(args.trials, args.seed, prefix="--")
    trust.check_tolerance("--tol", args.tol, zero_ok=True)
    if args.split and not args.out:
        raise ValidationError("--split requires --out <directory>")
    policy, curve = _policy_curve(args, tp)

    curves = [curve]
    if args.trials is not None:
        curves.append(trust.mc_simulate(tp, policy, args.n, args.trials, args.seed))

    if args.split:
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
        payload = specio.results_to_json({"curves": [
            {"policy": c.policy,
             "values": [decimal_str(v) for v in c.values],
             "stderr": None if c.stderr is None else [decimal_str(e) for e in c.stderr]}
            for c in curves
        ]})
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

def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def _emit(payload: str, out) -> None:
    try:
        payload.encode("utf-8")
    except UnicodeEncodeError as exc:  # ids with lone surrogates, from JSON escapes
        raise ValidationError(f"output is not UTF-8 text: {exc.reason}")
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
