"""Fuzzing the spec loader through the CLI: whatever the bytes of the --game
and --vector files, `fairprice price` ends in exit 0, 2 or 3 with at most
one line on stderr, and never raises."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from fairprice.cli import main

LINEAR = {"players": ["s", "r1", "r2"], "scenario": "linear", "p": 0.5, "delta": 1, "q": [0.2, 0.1]}
VALID_SPECS = [
    LINEAR,
    {"players": ["s", "r1", "r2"], "scenario": "threshold", "p": "1/4", "delta": 2, "k": 2, "q": 0.5},
    {"players": ["s", "a", "b"], "scenario": "general", "p": 0, "delta": 3, "f": {"a": 0.5, "a,b": 0.25}},
    {"arguments": ["a", "b", "c"], "worths": {"a,b": 1, "a,c": 1, "a,b,c": 1},
     "ownership": {"r1": ["a"], "r2": ["b", "c"]}},
]
METHODS = ["shapley", "nash", "core-check", "core-nonempty", "anon-shapley", "bogus"]

# "r\ud800" holds a lone surrogate, which JSON can escape but UTF-8 cannot encode
ids = st.sampled_from(["s", "r1", "r2", "a", "b", "", "r\ud800"]) | st.text(max_size=3)
numbers = (
    st.integers(-3, 3)
    | st.fractions(-2, 2, max_denominator=8).map(str)
    | st.floats()
    | st.sampled_from(["1/0", "0.5", "x", "1e100000"])
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | ids,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ids, inner, max_size=4),
    max_leaves=10,
)
keys = st.lists(ids, max_size=3).map(",".join)
field_values = {
    "players": st.lists(ids, max_size=5),
    "scenario": st.sampled_from(["linear", "threshold", "general", "magic"]),
    "p": numbers,
    "delta": numbers,
    "q": numbers | st.lists(numbers, max_size=5),
    "k": st.integers(-1, 6),
    "f": st.dictionaries(keys, numbers, max_size=5),
    "arguments": st.lists(ids, max_size=5),
    "worths": st.dictionaries(keys, numbers, max_size=5),
    "ownership": st.dictionaries(ids, st.lists(ids | json_values, max_size=3), max_size=3),
}


@st.composite
def specs(draw):
    """A valid spec with up to three fields deleted or replaced."""
    doc = dict(draw(st.sampled_from(VALID_SPECS)))
    for name in draw(st.lists(st.sampled_from(sorted(field_values)), max_size=3)):
        if draw(st.booleans()):
            doc.pop(name, None)
        else:
            doc[name] = draw(field_values[name] | json_values)
    return doc


payoffs = st.fixed_dictionaries(
    {}, optional={pid: numbers | json_values for pid in ["s", "r1", "r2", "a", "b", "x"]}
)


def encoded(docs):
    """JSON documents as UTF-8 bytes, or arbitrary bytes."""
    return docs.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=40)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    game=encoded(specs() | json_values),
    vector=encoded(payoffs | json_values),
    methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=3).map(",".join),
    extra=st.sampled_from([[], ["--payment", "per-sale"], ["--format", "csv"]]),
)
@example(
    game=json.dumps({"arguments": ["a"], "worths": {"a": 1}, "ownership": {"r1": [["a"]]}}).encode(),
    vector=b"{}", methods="anon-shapley", extra=[],
)
@example(game=b"\xff\xfe" + json.dumps(LINEAR).encode(), vector=b"{}", methods="shapley", extra=[])
@example(game=b"[" * 100_000, vector=b"{}", methods="shapley", extra=[])
@example(
    game=json.dumps({**LINEAR, "players": ["s", "r\ud800", "r2"]}).encode(),
    vector=b"{}", methods="shapley", extra=["--format", "csv"],
)
@example(game=json.dumps(LINEAR).encode(), vector=b"[" * 100_000, methods="core-check", extra=[])
# results past the float range or with more than 4300 digits used to raise on output
@example(game=json.dumps({**LINEAR, "delta": "1e100000"}).encode(), vector=b"{}",
         methods="shapley", extra=[])
@example(game=json.dumps({**LINEAR, "delta": "1e400"}).encode(), vector=b"{}",
         methods="nash", extra=["--format", "csv"])
@example(game=json.dumps({**LINEAR, "delta": "1e-5000"}).encode(), vector=b"{}",
         methods="shapley", extra=["--payment", "per-sale"])
@example(game=json.dumps(LINEAR).encode(), vector=b'{"s": "1e100000", "r1": 0, "r2": 0}',
         methods="core-check", extra=[])
def test_price_survives_any_spec_bytes(game, vector, methods, extra):
    with tempfile.TemporaryDirectory() as tmp:
        game_path, vector_path = Path(tmp) / "game.json", Path(tmp) / "vector.json"
        game_path.write_bytes(game)
        vector_path.write_bytes(vector)
        argv = ["price", "--game", str(game_path), "--method", methods, *extra]
        if "core-check" in methods:  # --vector is refused without it
            argv += ["--vector", str(vector_path)]
        # a process's stdout encodes strictly to UTF-8; stderr never fails
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
            out.flush()
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in (2, 3)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
