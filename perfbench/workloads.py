"""Seeded inputs for the benchmark workloads.

Every workload has fixed structural sizes (player counts, k, horizons,
trials, l and g).  The seed only changes rational values and Monte-Carlo
seeds, so the amount of work does not depend on it.  The program sees only
the spec files written here and the ``--seed`` values in the argument lists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("price-large", "trust-horizon", "cold-small")

# Figure-2 trust parameters shared by every simulate invocation.
FIG2 = ["--p0", "0.5", "--l", "0.66", "--r", "1"]


@dataclass
class Invocation:
    """One cold ``python -m fairprice ...`` call and what its output must be."""

    name: str
    argv: list[str]
    kind: str  # "price-json", "price-csv", "simulate" or "verify"
    expect: dict = field(default_factory=dict)


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write(run_dir: Path, name: str, spec: dict) -> str:
    path = run_dir / name
    path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return str(path)


def linear_spec(rng: random.Random, n_rec: int, ids=None) -> dict:
    ids = ids or [f"r{i:02d}" for i in range(1, n_rec + 1)]
    p = Fraction(rng.randint(2, 8), 20)
    # each q_i <= (1-p)/n_rec keeps p + sum(q) <= 1
    qs = [(1 - p) * Fraction(rng.randint(1, 60), 60 * n_rec) for _ in ids]
    delta = Fraction(rng.randint(20, 400), 4)
    return {"players": ["s"] + ids, "scenario": "linear",
            "p": _q(p), "delta": _q(delta), "q": [_q(q) for q in qs]}


def threshold_spec(rng: random.Random, n_rec: int, k: int) -> dict:
    p = Fraction(rng.randint(2, 8), 20)
    q = (1 - p) * Fraction(rng.randint(1, 20), 20)
    delta = Fraction(rng.randint(20, 400), 4)
    return {"players": ["s"] + [f"r{i:02d}" for i in range(1, n_rec + 1)],
            "scenario": "threshold", "k": k,
            "p": _q(p), "delta": _q(delta), "q": _q(q)}


def empty_core_general_spec(rng: random.Random, n_rec: int) -> dict:
    """General game whose uplift is positive on some coalitions of one or two
    recommenders and 0 on the grand coalition.  With the seller's stand-alone
    worth p*delta equal to v(N), every recommender must get 0, so the
    seller-plus-one-recommender coalitions with uplift are violated by every
    efficient vector: the Core is empty for any seed."""
    ids = [f"r{i:02d}" for i in range(1, n_rec + 1)]
    p = Fraction(rng.randint(2, 8), 20)
    delta = Fraction(rng.randint(20, 400), 4)
    singles = rng.sample(ids, 6)
    pairs = rng.sample(list(combinations(ids, 2)), 10)
    f = {}
    for key in [(r,) for r in singles] + pairs:
        f[",".join(sorted(key))] = _q((1 - p) * Fraction(rng.randint(1, 20), 20))
    return {"players": ["s"] + ids, "scenario": "general",
            "p": _q(p), "delta": _q(delta), "f": f}


def argument_spec(rng: random.Random, n_args: int, n_worths: int, n_owners: int) -> dict:
    """Sparse argument game; one argument is withheld (owned by nobody)."""
    args = [f"a{i:02d}" for i in range(1, n_args + 1)]
    worths = {}
    while len(worths) < n_worths:
        size = rng.randint(1, 6)
        key = ",".join(sorted(rng.sample(args, size)))
        worths[key] = _q(Fraction(rng.randint(1, 40), 8))
    worths[",".join(args)] = _q(Fraction(rng.randint(41, 80), 8))
    withheld = rng.choice(args)
    declared = [a for a in args if a != withheld]
    rng.shuffle(declared)
    ownership = {f"r{j}": sorted(declared[j - 1::n_owners]) for j in range(1, n_owners + 1)}
    return {"arguments": args, "worths": worths, "ownership": ownership}


def _price(name: str, spec_path: str, spec: dict, methods: str, *extra: str,
           **expect) -> Invocation:
    argv = ["price", "--game", spec_path, "--method", methods, *extra]
    kind = "price-csv" if "csv" in extra else "price-json"
    payment = extra[extra.index("--payment") + 1] if "--payment" in extra else None
    return Invocation(name, argv, kind,
                      {"spec": spec, "methods": methods.split(","), "payment": payment, **expect})


def price_large(rng: random.Random, run_dir: Path) -> list[Invocation]:
    lin = linear_spec(rng, 12)
    thr = threshold_spec(rng, 12, 5)
    gen = empty_core_general_spec(rng, 11)
    arg = argument_spec(rng, 13, 40, 4)
    return [
        _price("linear13", _write(run_dir, "linear13.json", lin), lin,
               "shapley,nash,core-nonempty", "--payment", "per-sale", core_nonempty=True),
        _price("threshold13", _write(run_dir, "threshold13.json", thr), thr,
               "shapley,core-nonempty", core_nonempty=True),
        _price("general12", _write(run_dir, "general12.json", gen), gen,
               "shapley,core-nonempty,core-check", "--vector", "seller-all",
               core_nonempty=False, vector="seller-all"),
        _price("arguments13", _write(run_dir, "arguments13.json", arg), arg, "anon-shapley"),
    ]


def trust_horizon(rng: random.Random, run_dir: Path) -> list[Invocation]:
    s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
    return [
        Invocation("optimal500", ["simulate", *FIG2, "--g", "1.33", "--n", "500",
                                  "--policy", "optimal", "--reset",
                                  "--trials", "20000", "--seed", str(s1)],
                   "simulate", {"exact": "optimal500", "mc": True}),
        Invocation("every2-500", ["simulate", *FIG2, "--g", "1.33", "--n", "500",
                                  "--policy", "every-k:2", "--no-reset"],
                   "simulate", {"exact": "every2-500", "mc": False}),
        Invocation("all500", ["simulate", *FIG2, "--g", "1", "--n", "500",
                              "--policy", "all", "--no-reset",
                              "--trials", "100000", "--seed", str(s2)],
                   "simulate", {"exact": "all500", "mc": True}),
    ]


def cold_small(rng: random.Random, run_dir: Path) -> list[Invocation]:
    # README-shaped inputs: the 3-player linear game and the 3-argument game
    lin = linear_spec(rng, 2, ids=["r1", "r2"])
    arg = {"arguments": ["a", "b", "c"],
           "worths": {key: _q(Fraction(rng.randint(1, 12), 4)) for key in ("a,b", "a,c", "a,b,c")},
           "ownership": {"r1": ["a"], "r2": ["b", "c"]}}
    lin_path = _write(run_dir, "readme_linear.json", lin)
    vector = {"s": _q(Fraction(rng.randint(0, 40), 40)),
              "r1": _q(Fraction(rng.randint(0, 20), 40)), "r2": _q(Fraction(rng.randint(0, 20), 40))}
    arg_path = _write(run_dir, "readme_arguments.json", arg)
    invs = [
        _price("readme-price", lin_path, lin, "shapley,nash,core-nonempty", core_nonempty=True),
        _price("readme-per-sale-csv", lin_path, lin, "shapley", "--payment", "per-sale",
               "--format", "csv"),
        _price("readme-core-check", lin_path, lin, "core-check", "--vector", json.dumps(vector),
               vector=vector),
        _price("readme-arguments", arg_path, arg, "anon-shapley"),
        Invocation("all200", ["simulate", *FIG2, "--g", "1", "--n", "200",
                              "--policy", "all", "--reset"],
                   "simulate", {"exact": "all200", "mc": False}),
        Invocation("every3-200", ["simulate", *FIG2, "--g", "1.33", "--n", "200",
                                  "--policy", "every-k:3"],
                   "simulate", {"exact": "every3-200", "mc": False}),
        Invocation("optimal200", ["simulate", *FIG2, "--g", "1.33", "--n", "200",
                                  "--policy", "optimal"],
                   "simulate", {"exact": "optimal200", "mc": False}),
    ]
    for suite in ("figure2", "bounds", "core-laws", "truthfulness", "shapley-axioms"):
        invs.append(Invocation(f"verify-{suite}", ["verify", "--suite", suite], "verify"))
    return invs


BUILDERS = {"price-large": price_large, "trust-horizon": trust_horizon, "cold-small": cold_small}


def generate(workload: str, seed: int, run_dir: Path) -> list[Invocation]:
    """Write the workload's spec files into run_dir and return its invocations."""
    run_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    invs = BUILDERS[workload](rng, run_dir)
    manifest = [{"name": i.name, "argv": i.argv, "kind": i.kind} for i in invs]
    (run_dir / "invocations.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                              encoding="utf-8")
    return invs
