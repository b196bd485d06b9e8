"""Reading game/argument specification files and writing result documents.

Game spec (UTF-8 JSON): `players` (array of ids, first is the seller),
`scenario` in {"linear", "threshold", "general"}, `p`, `delta`, and the
scenario parameters: `q` array for linear, `k` plus scalar `q` for
threshold, `f` object keyed by comma-joined sorted recommender ids for
general.  Numbers may be JSON decimals or rational strings "a/b"; decimals
convert exactly (base-10).

Argument-game spec: `arguments` array, `worths` object keyed by
comma-joined sorted argument ids, `ownership` object recommender id ->
array of argument ids.  `load_spec` reads either kind, telling them apart
by the `arguments` field.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from typing import Any

from .errors import ResourceCapError, ValidationError
from .fair_division import ArgumentGame
from .games import Game, build_general, build_linear, build_threshold, check_size, coalition_items
from .rational import as_fraction, brief_str, decimal_str, frac_str
from .trust import RewardCurve

CSV_HEADER = ["step", "policy", "expected_cumulative_reward", "stderr"]


def _loads(text: str, where: str) -> Any:
    try:
        # parse_float=Fraction keeps JSON decimals exact (base-10 scaling)
        return json.loads(text, parse_float=Fraction, object_pairs_hook=_members)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}")
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise ValidationError(f"{where}: invalid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"{where}: invalid JSON: nested too deeply")


def _members(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object; ValidationError where a member name repeats, which
    json.loads would read as last-wins."""
    doc = {}
    for name, value in pairs:
        if name in doc:
            raise ValidationError(f"member {name!r} is given twice")
        doc[name] = value
    return doc


def _coalitions(raw: dict, what: str, *extra: str) -> dict:
    """A table keyed by comma-joined ids, keyed by coalitions of those ids
    plus `extra`; ValidationError where two keys name one coalition."""
    return dict(coalition_items(
        (([x for x in key.split(",") if x] + list(extra), val) for key, val in raw.items()), what))


def _document(src: str | dict, where: str) -> dict:
    doc = _loads(src, where) if isinstance(src, str) else src
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: top level must be an object")
    return doc


def _field(doc: dict, name: str, where: str) -> Any:
    if name not in doc:
        raise ValidationError(f"{where}: missing field {name!r}")
    return doc[name]


def load_spec(text: str, where: str = "spec") -> Game | ArgumentGame:
    """A player game, or an argument game when the spec has `arguments`."""
    doc = _document(text, where)
    if "arguments" in doc:
        return load_argument_game(doc, where)
    return load_game(doc, where)


def load_game(src: str | dict, where: str = "game spec") -> Game:
    """A player game from spec text or from its parsed JSON document."""
    doc = _document(src, where)
    players = _field(doc, "players", where)
    if not isinstance(players, list) or not players or not all(isinstance(p, str) for p in players):
        raise ValidationError(f"{where}: 'players' must be a non-empty array of id strings")
    check_size(len(players), "players")  # before the uplift keys are read
    seller, recommenders = players[0], players[1:]
    scenario = _field(doc, "scenario", where)
    p = _field(doc, "p", where)
    delta = _field(doc, "delta", where)

    if scenario == "linear":
        q = _field(doc, "q", where)
        if not isinstance(q, list) or len(q) != len(recommenders):
            raise ValidationError(f"{where}: 'q' must be an array of length {len(recommenders)}")
        return build_linear(p, delta, q, seller=seller, recommenders=recommenders)
    if scenario == "threshold":
        k = _field(doc, "k", where)
        q = _field(doc, "q", where)
        return build_threshold(
            p, delta, len(recommenders), k, q, seller=seller, recommenders=recommenders
        )
    if scenario == "general":
        f_raw = doc.get("f", {})
        if not isinstance(f_raw, dict):
            raise ValidationError(f"{where}: 'f' must be an object")
        uplift = _coalitions(f_raw, "uplift key", seller)
        return build_general(p, delta, uplift, seller=seller, recommenders=recommenders)
    raise ValidationError(f"{where}: unknown scenario {scenario!r}")


def load_argument_game(src: str | dict, where: str = "argument spec") -> ArgumentGame:
    """An argument game from spec text or from its parsed JSON document."""
    doc = _document(src, where)
    arguments = _field(doc, "arguments", where)
    worths_raw = _field(doc, "worths", where)
    ownership_raw = _field(doc, "ownership", where)
    if not isinstance(arguments, list) or not all(isinstance(a, str) for a in arguments):
        raise ValidationError(f"{where}: 'arguments' must be an array of strings")
    if not isinstance(worths_raw, dict) or not isinstance(ownership_raw, dict):
        raise ValidationError(f"{where}: 'worths' and 'ownership' must be objects")
    worths = _coalitions(worths_raw, "worth key")
    ownership = {}
    for rec, lst in ownership_raw.items():
        if not isinstance(lst, list) or not all(isinstance(a, str) for a in lst):
            raise ValidationError(f"{where}: ownership of {rec!r} must be an array of strings")
        ownership[rec] = lst
    return ArgumentGame.create(arguments, worths, ownership)


def load_payoff_vector(text: str, where: str = "payoff vector") -> dict[str, Fraction]:
    doc = _loads(text, where)
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: must be an object of id -> value")
    return {k: as_fraction(v, f"{where}[{k}]") for k, v in doc.items()}


# ---------------------------------------------------------------------------
# Result rendering
# ---------------------------------------------------------------------------

def render_value(x: Fraction) -> dict:
    """Exact string plus decimal rendering of one rational value."""
    if abs(x) > sys.float_info.max:
        raise ResourceCapError(f"result {brief_str(x)} lies beyond the float range")
    return {"value": frac_str(x), "value_decimal": float(x)}


def results_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


RESULTS_HEADER = ["id", "method", "value"]


def results_to_csv(rows: list[dict], summary: list[tuple[str, str, str]] = ()) -> str:
    """CSV for per-id results: id, method, value (decimal rendering only).

    `summary` rows (id, method, value) are appended verbatim, e.g. core
    verdicts.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for row in rows:
        writer.writerow([row["id"], row["method"], decimal_str(row["value_decimal"])])
    for row in summary:
        writer.writerow(row)
    return buf.getvalue()


def curves_to_csv(curves: list[RewardCurve]) -> str:
    """Long-format curve CSV with the fixed header; empty stderr when exact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for curve in curves:
        for step, policy, value, err in curve.rows():
            writer.writerow(
                [step, policy, decimal_str(value), "" if err is None else decimal_str(err)]
            )
    return buf.getvalue()
