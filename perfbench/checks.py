"""Independent references and output checks.

References are computed here from the generated specs with short bitmask
sums in exact arithmetic, never through the program's own pricing code.
The one exception the check needs is a Farkas certificate, which is
re-checked with the program's ``certificate_refutes(core_system(game), ...)``
because the certificate is indexed by that system's rows.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

CURVE_RTOL = 1e-9
MC_SIGMAS = 5
REFERENCE_CURVES = Path(__file__).with_name("reference_curves.json")


# ---------------------------------------------------------------------------
# Games as worth tables indexed by bitmask over sorted player ids
# ---------------------------------------------------------------------------

class RefGame:
    """Worth table of a generated player-game spec."""

    def __init__(self, spec: dict):
        self.seller = spec["players"][0]
        self.ids = sorted(spec["players"])
        self.n = len(self.ids)
        bit = {pid: 1 << j for j, pid in enumerate(self.ids)}
        self.bit = bit
        p, delta = Fraction(spec["p"]), Fraction(spec["delta"])
        recs = spec["players"][1:]
        kind = spec["scenario"]
        if kind == "linear":
            q = dict(zip(recs, (Fraction(x) for x in spec["q"])))
            self.uplift_n = sum(q.values(), Fraction(0))
        elif kind == "threshold":
            k, qt = spec["k"], Fraction(spec["q"])
            self.uplift_n = qt if len(recs) >= k else Fraction(0)
        else:
            f = {}
            for key, val in spec.get("f", {}).items():
                mask = bit[self.seller]
                for r in filter(None, key.split(",")):
                    mask |= bit[r]
                f[mask] = Fraction(val)
            self.uplift_n = f.get((1 << self.n) - 1, Fraction(0))
        self.p = p
        worth = [Fraction(0)] * (1 << self.n)
        sbit = bit[self.seller]
        for mask in range(1 << self.n):
            if not mask & sbit:
                continue
            members = [pid for pid in recs if mask & bit[pid]]
            if kind == "linear":
                up = sum((q[r] for r in members), Fraction(0))
            elif kind == "threshold":
                up = qt if len(members) >= k else Fraction(0)
            else:
                up = f.get(mask, Fraction(0))
            worth[mask] = (p + up) * delta
        self.worth = worth

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def mask(self, ids) -> int:
        return sum(self.bit[i] for i in ids)

    def sums(self, x: dict[str, Fraction]) -> list[Fraction]:
        """x(S) for every coalition, by lowest-bit recurrence."""
        out = [Fraction(0)] * (1 << self.n)
        vals = [x[pid] for pid in self.ids]
        for mask in range(1, 1 << self.n):
            low = (mask & -mask).bit_length() - 1
            out[mask] = out[mask & (mask - 1)] + vals[low]
        return out

    def lex_order(self) -> list[int]:
        """Nonempty coalitions in the program's order: sorted id tuples."""
        tuples = sorted(
            t for r in range(1, self.n + 1) for t in combinations(self.ids, r)
        )
        return [self.mask(t) for t in tuples]


def _common_denominator(values: list[Fraction]) -> tuple[list[int], int]:
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def shapley_ref(worth: list[Fraction], n: int) -> list[Fraction]:
    """Shapley value by the subset-sum formula over bitmasks."""
    w, den = _common_denominator(worth)
    fact = [math.factorial(k) for k in range(n + 1)]
    out = []
    for i in range(n):
        bi = 1 << i
        by_size = [0] * n
        for mask in range(1 << n):
            if not mask & bi:
                by_size[mask.bit_count()] += w[mask | bi] - w[mask]
        total = sum(fact[s] * fact[n - 1 - s] * by_size[s] for s in range(n))
        out.append(Fraction(total, fact[n] * den))
    return out


def uniform_value_ref(worth: list[Fraction], n: int) -> list[Fraction]:
    """Argument-game marginal value: every coalition term weighted 1/n!."""
    w, den = _common_denominator(worth)
    out = []
    for i in range(n):
        bi = 1 << i
        total = sum(w[m | bi] - w[m] for m in range(1 << n) if not m & bi)
        out.append(Fraction(total, math.factorial(n) * den))
    return out


def game_expectations(spec: dict, methods, payment: str | None) -> dict[tuple[str, str], Fraction]:
    """Expected exact (method, id) -> value rows for shapley, nash and prices."""
    g = RefGame(spec)
    recs = spec["players"][1:]
    payoffs = {}
    if "shapley" in methods:
        if spec["scenario"] == "linear":
            # closed form: each recommender gets q_i * delta / 2, the seller the rest
            delta = Fraction(spec["delta"])
            phi = {r: Fraction(q) * delta / 2 for r, q in zip(recs, spec["q"])}
            phi[g.seller] = g.worth[g.full] - sum(phi.values(), Fraction(0))
        else:
            phi = dict(zip(g.ids, shapley_ref(g.worth, g.n)))
        payoffs["shapley"] = phi
    if "nash" in methods:
        # equal split of the surplus over the seller's stand-alone worth
        seller_alone = g.worth[g.bit[g.seller]]
        share = (g.worth[g.full] - seller_alone) / g.n
        nash = {pid: share for pid in g.ids}
        nash[g.seller] += seller_alone
        payoffs["nash"] = nash
    out = {}
    for method, payoff in payoffs.items():
        for pid, v in payoff.items():
            out[(method, pid)] = v
        if payment == "per-sale":
            prob = g.p + g.uplift_n
            for r in recs:
                out[(f"{method}+per-sale", r)] = payoff[r] / prob
    return out


def argument_expectations(spec: dict) -> dict[tuple[str, str], Fraction]:
    args = sorted(spec["arguments"])
    bit = {a: 1 << j for j, a in enumerate(args)}
    worth = [Fraction(0)] * (1 << len(args))
    for key, val in spec["worths"].items():
        worth[sum(bit[a] for a in filter(None, key.split(",")))] = Fraction(val)
    full = dict(zip(args, uniform_value_ref(worth, len(args))))
    declared = [a for owned in spec["ownership"].values() for a in owned]
    denom = sum((full[a] for a in declared), Fraction(0))
    v_declared = worth[sum(bit[a] for a in declared)]
    out = {}
    for a in declared:
        out[("anon-shapley:argument", a)] = full[a] / denom * v_declared
    for rec, owned in spec["ownership"].items():
        out[("anon-shapley", rec)] = sum((out[("anon-shapley:argument", a)] for a in owned),
                                         Fraction(0))
    return out


# ---------------------------------------------------------------------------
# Core re-checks by brute force over all coalitions
# ---------------------------------------------------------------------------

def core_verdict(g: RefGame, x: dict[str, Fraction]) -> tuple[bool, bool, list[str] | None]:
    """(in_core, feasible, witness) with the lexicographically first violated
    coalition as witness, recomputed over all coalitions."""
    sums = g.sums(x)
    feasible = sums[g.full] == g.worth[g.full]
    witness = None
    for mask in g.lex_order():
        if g.worth[mask] > sums[mask]:
            witness = sorted(pid for pid in g.ids if mask & g.bit[pid])
            break
    return feasible and witness is None, feasible, witness


def certificate_problems(spec: dict, cert: dict) -> list[str]:
    from fairprice.corelp import FarkasCertificate, certificate_refutes, core_system
    from fairprice.specio import load_game

    game = load_game(json.dumps(spec))
    c = FarkasCertificate(
        tuple(Fraction(m) for m in cert["equality_multipliers"]),
        tuple(Fraction(m) for m in cert["inequality_multipliers"]),
    )
    return [] if certificate_refutes(core_system(game), c) else ["certificate does not refute the Core system"]


def _frac_map(raw: dict) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in raw.items()}


# ---------------------------------------------------------------------------
# Per-kind output checks
# ---------------------------------------------------------------------------

def check_price_json(expect: dict, out: str) -> list[str]:
    spec = expect["spec"]
    doc = json.loads(out)
    problems = []
    if "arguments" in spec:
        want = argument_expectations(spec)
    else:
        want = game_expectations(spec, expect["methods"], expect.get("payment"))
    got = {(r["method"], r["id"]): r for r in doc["results"]}
    if set(got) != set(want):
        problems.append(f"result rows {sorted(set(got) ^ set(want))} differ from the reference")
    for key in set(got) & set(want):
        ref, row = want[key], got[key]
        if row["value"] != str(ref) or row["value_decimal"] != float(ref):
            problems.append(f"{key}: got {row['value']}, reference {ref}")

    if "core_nonempty" in expect:
        problems += _check_core_nonempty(spec, expect["core_nonempty"], doc.get("core_nonempty"))
    if "vector" in expect:
        problems += _check_core_check(spec, expect["vector"], doc.get("core_check"))
    return problems


def _check_core_nonempty(spec: dict, want_nonempty: bool, res: dict | None) -> list[str]:
    if res is None:
        return ["missing core_nonempty"]
    if res["nonempty"] != want_nonempty:
        return [f"core_nonempty is {res['nonempty']}, expected {want_nonempty}"]
    if res["nonempty"]:
        point = _frac_map(res["core_point"])
        g = RefGame(spec)
        if set(point) != set(g.ids):
            return ["core point does not cover the players"]
        in_core, _, witness = core_verdict(g, point)
        return [] if in_core else [f"core point violates coalition {witness}"]
    if res["certificate"] is None:
        return ["empty Core reported without a certificate"]
    return certificate_problems(spec, res["certificate"])


def _check_core_check(spec: dict, vector, res: dict | None) -> list[str]:
    if res is None:
        return ["missing core_check"]
    g = RefGame(spec)
    if vector == "seller-all":
        x = {pid: Fraction(0) for pid in g.ids}
        x[g.seller] = g.worth[g.full]
    else:
        x = _frac_map(vector)
    if _frac_map(res["vector"]) != x:
        return ["core_check echoed a different vector"]
    in_core, feasible, witness = core_verdict(g, x)
    got = (res["in_core"], res["feasible"], res["witness"])
    if got != (in_core, feasible, witness):
        return [f"core_check {got} != brute force {(in_core, feasible, witness)}"]
    return []


def check_price_csv(expect: dict, out: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["id", "method", "value"]:
        return ["bad CSV header"]
    want = game_expectations(expect["spec"], expect["methods"], expect.get("payment"))
    want = {key: format(float(v), ".12g") for key, v in want.items()}
    got = {(m, pid): v for pid, m, v in rows[1:]}
    if got != want:
        return [f"CSV rows differ from the reference: {sorted(set(got.items()) ^ set(want.items()))[:4]}"]
    return []


@lru_cache(maxsize=None)
def reference_curves() -> dict[str, list[float]]:
    return json.loads(REFERENCE_CURVES.read_text(encoding="utf-8"))


def parse_curves(out: str) -> dict[str, list[tuple[float, float | None]]]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["step", "policy", "expected_cumulative_reward", "stderr"]:
        raise ValueError("bad curve CSV header")
    curves: dict[str, list] = {}
    for step, policy, value, err in rows[1:]:
        curve = curves.setdefault(policy, [])
        if int(step) != len(curve) + 1:
            raise ValueError(f"non-contiguous steps for {policy}")
        curve.append((float(value), None if err == "" else float(err)))
    return curves


def check_simulate(expect: dict, out: str) -> list[str]:
    curves = parse_curves(out)
    ref = reference_curves()[expect["exact"]]
    exact = [c for name, c in curves.items() if not name.endswith(":mc")]
    mc = [c for name, c in curves.items() if name.endswith(":mc")]
    if len(exact) != 1 or len(mc) != int(expect["mc"]):
        return [f"unexpected curves {sorted(curves)}"]
    values = [v for v, _ in exact[0]]
    problems = []
    if len(values) != len(ref):
        problems.append(f"exact curve has {len(values)} steps, reference {len(ref)}")
    else:
        bad = [t for t, (a, b) in enumerate(zip(values, ref), 1) if abs(a - b) > CURVE_RTOL * abs(b)]
        if bad:
            problems.append(f"exact curve off the reference at {len(bad)} steps, first {bad[0]}")
    if mc:
        mean, err = mc[0][-1]
        if not abs(mean - values[-1]) <= MC_SIGMAS * err:
            problems.append(f"MC final {mean} not within {MC_SIGMAS} sigma ({err}) of {values[-1]}")
    return problems


_CLAIMS = re.compile(r"^(\d+)/(\d+) claims passed$")


def check_verify(out: str) -> list[str]:
    lines = out.splitlines()
    m = _CLAIMS.match(lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2) or m.group(2) == "0":
        return [f"bad verify summary {lines[-1:]}"]
    bad = [ln for ln in lines[:-1] if not ln.startswith("PASS  ")]
    return [f"failed claim: {ln}" for ln in bad]


# figure2 prints its own measured runtime; everything else is deterministic
_ELAPSED = re.compile(rb"elapsed=[0-9.]+s")


def stable_stdout(out: bytes) -> bytes:
    """stdout with the one timing field masked, for byte comparisons."""
    return _ELAPSED.sub(b"elapsed=<t>s", out)


def check_output(kind: str, expect: dict, code: int, out: bytes) -> list[str]:
    """All problems with one invocation's exit code and stdout."""
    if code != 0:
        return [f"exit code {code}"]
    check = {"price-json": check_price_json, "price-csv": check_price_csv,
             "simulate": check_simulate}.get(kind)
    try:
        text = out.decode("utf-8")
        return check(expect, text) if check else check_verify(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # json and csv decoding errors are ValueErrors
        return [f"malformed output: {type(exc).__name__}: {exc}"]
