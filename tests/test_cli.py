import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fairprice.cli import main
from oracles import read_curve_csv, read_results_csv

LINEAR_SPEC = """\
{"players": ["s", "r1", "r2"], "scenario": "linear",
 "p": 0.5, "delta": 1, "q": [0.2, 0.1]}
"""

# p + f(N) = 0: no sale, so pay-per-sale is undefined
ZERO_SALE_SPEC = """\
{"players": ["s", "r1", "r2"], "scenario": "linear", "p": 0, "delta": 1, "q": [0, 0]}
"""

EXAMPLE1_SPEC = """\
{"arguments": ["a", "b", "c"],
 "worths": {"a,b": 1, "a,c": 1, "a,b,c": 1},
 "ownership": {"r1": ["a"], "r2": ["b", "c"]}}
"""


@pytest.fixture
def linear_spec(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(LINEAR_SPEC, encoding="utf-8")
    return path


@pytest.fixture
def example1_spec(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(EXAMPLE1_SPEC, encoding="utf-8")
    return path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name", ["linear10", "general6", "threshold12"])
def test_price_shapley_core_golden(name, capsys, monkeypatch):
    """Byte-exact stdout: Shapley values plus a Core point (linear10, and
    threshold12 after 12 row-generation LPs) or a Farkas certificate over all
    62 proper coalitions (general6)."""
    golden = Path(__file__).parent / "golden"
    monkeypatch.chdir(golden.parent.parent)
    argv = ["price", "--game", f"tests/golden/{name}.json", "--method", "shapley,core-nonempty"]
    code, out = run(argv, capsys)
    assert code == 0
    assert out == (golden / f"{name}.out").read_text(encoding="utf-8")


def test_simulate_optimal_golden(capsys):
    """Byte-exact stdout of the optimal-policy DP and its Monte-Carlo run:
    pins both the DP curve and how the draws are consumed."""
    golden = Path(__file__).parent / "golden" / "simulate_optimal120.out"
    argv = ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--n", "120",
            "--policy", "optimal", "--trials", "2000", "--seed", "5"]
    code, out = run(argv, capsys)
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_price_shapley_rows(linear_spec, capsys):
    code, out = run(["price", "--game", str(linear_spec), "--method", "shapley"], capsys)
    assert code == 0
    doc = json.loads(out)
    values = {r["id"]: r["value"] for r in doc["results"]}
    assert values == {"s": "13/20", "r1": "1/10", "r2": "1/20"}


def test_price_anon_shapley(example1_spec, capsys):
    code, out = run(["price", "--game", str(example1_spec), "--method", "anon-shapley"], capsys)
    assert code == 0
    doc = json.loads(out)
    recs = {r["id"]: r["value"] for r in doc["results"] if r["method"] == "anon-shapley"}
    assert recs == {"r1": "3/5", "r2": "2/5"}


def test_price_per_sale(linear_spec, capsys):
    code, out = run(
        ["price", "--game", str(linear_spec), "--method", "shapley",
         "--payment", "per-sale"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    prices = {r["id"]: r["value"] for r in doc["results"] if r["method"] == "shapley+per-sale"}
    assert prices == {"r1": "1/8", "r2": "1/16"}


def test_price_core_check_seller_all(linear_spec, capsys):
    code, out = run(
        ["price", "--game", str(linear_spec), "--method", "core-check",
         "--vector", "seller-all"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["core_check"]["in_core"] is True


def test_price_core_check_explicit_vector(linear_spec, capsys):
    code, out = run(
        ["price", "--game", str(linear_spec), "--method", "core-check",
         "--vector", '{"s": 0.5, "r1": "0.3", "r2": 0}'],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["core_check"]["in_core"] is False
    # {s, r2} gets 0.5 together but is worth 0.6 on its own
    assert doc["core_check"]["witness"] == ["r2", "s"]


def test_price_core_check_long_inline_vector(tmp_path, capsys):
    # 13 players: the inline JSON is longer than a file name may be (255 bytes)
    recs = [f"recommender{i:02d}" for i in range(12)]
    spec = {"players": ["s", *recs], "scenario": "linear", "p": 0.5, "delta": 2, "q": [0.01] * 12}
    game = tmp_path / "g13.json"
    game.write_text(json.dumps(spec), encoding="utf-8")
    vector = json.dumps({"s": "1.24", **{r: "0" for r in recs}})  # v(N) = (0.5 + 0.12) * 2
    assert len(vector.encode()) > 255 and "/" not in vector  # one path component
    path = tmp_path / "vector.json"
    path.write_text(vector, encoding="utf-8")
    base = ["price", "--game", str(game), "--method", "core-check", "--vector"]
    outs = []
    for given in (vector, str(path), "seller-all"):
        code, out = run(base + [given], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["core_check"]["in_core"] is True


def test_price_core_nonempty(linear_spec, capsys):
    code, out = run(["price", "--game", str(linear_spec), "--method", "core-nonempty"], capsys)
    assert code == 0
    assert json.loads(out)["core_nonempty"]["nonempty"] is True


def test_price_method_mismatch(linear_spec, example1_spec, capsys):
    assert main(["price", "--game", str(linear_spec), "--method", "anon-shapley"]) == 2
    assert main(["price", "--game", str(example1_spec), "--method", "nash"]) == 2


@pytest.mark.parametrize("spec, argv, err", [
    ("linear", ["--method", "shapley,anon-shapley"],
     "method 'anon-shapley' needs an argument-game spec (with 'arguments')"),
    ("example1", ["--method", "anon-shapley,nash"],
     "method 'nash' needs a player-game spec, got an argument game"),
    ("linear", ["--method", "shapley,core-nonempty,core-check"],
     "core-check requires --vector (JSON object or 'seller-all')"),
    ("linear", ["--method", "shapley,core-nonempty,core-check", "--vector", "[1"],
     "--vector: invalid JSON at line 1: Expecting ',' delimiter"),
    ("linear", ["--method", "shapley,core-check", "--vector", '{"s": "x"}'],
     "--vector[s]: cannot parse rational 'x'"),
    ("linear", ["--method", "nash,core-check", "--vector", '{"s": 1, "r1": 0}'],
     "payoff vector must cover exactly the game's players"),
    # these three used to exit 0, dropping the option unread, or to fail
    # only after the Core LPs and Shapley had run
    ("example1", ["--method", "anon-shapley", "--payment", "per-sale"],
     "--payment needs a player-game spec, got an argument game"),
    ("zero-sale", ["--method", "core-nonempty,shapley", "--payment", "per-sale"],
     "pay-per-sale undefined: selling probability is 0"),
    ("linear", ["--method", "shapley", "--vector", "[1"],
     "--vector needs core-check among the methods"),
], ids=["player-spec", "argument-spec", "no-vector", "vector-json", "vector-value", "vector-ids",
        "payment-arguments", "payment-zero-sale", "vector-without-core-check"])
def test_price_checks_methods_and_vector_before_any_work(
    linear_spec, example1_spec, tmp_path, capsys, monkeypatch, spec, argv, err
):
    # a wrong-kind method, a bad --vector or --payment used to fail only
    # after the methods before it had run (Shapley over 2^n coalitions, the
    # Core LPs)
    from fairprice import corelp
    from fairprice import fair_division as fd

    def no_work(*args, **kwargs):
        raise AssertionError("pricing started before the methods and --vector were checked")

    for name in ("shapley", "nash_bargaining", "anonymity_proof_shapley"):
        monkeypatch.setattr(fd, name, no_work)
    monkeypatch.setattr(corelp, "core_is_nonempty", no_work)
    paths = {"linear": linear_spec, "example1": example1_spec, "zero-sale": tmp_path / "zero.json"}
    paths["zero-sale"].write_text(ZERO_SALE_SPEC, encoding="utf-8")
    assert main(["price", "--game", str(paths[spec]), *argv]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_price_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": ["s"], "scenario": "linear"', encoding="utf-8")
    code = main(["price", "--game", str(bad), "--method", "shapley"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {bad}: invalid JSON at line 1: Expecting ',' delimiter\n"


def test_price_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": ["s", "r1"], "scenario": "linear", "p": 0.5}', encoding="utf-8")
    code = main(["price", "--game", str(bad), "--method", "shapley"])
    err = capsys.readouterr().err
    assert code == 2
    assert "delta" in err


def test_price_csv_format(example1_spec, capsys):
    code, out = run(
        ["price", "--game", str(example1_spec), "--method", "anon-shapley",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,method,value"
    assert "r1,anon-shapley,0.6" in lines


def test_price_csv_round_trips_through_reader(linear_spec, capsys):
    code, out = run(
        ["price", "--game", str(linear_spec), "--method", "shapley,core-nonempty",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = read_results_csv(out)
    assert {"id": "s", "method": "shapley", "value": "0.65"} in rows
    assert rows[-1] == {"id": "core-nonempty", "method": "core-nonempty", "value": "1"}


def test_price_rejects_top_level_array(tmp_path, capsys):
    bad = tmp_path / "arr.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["price", "--game", str(bad), "--method", "shapley"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: top level must be an object\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"players": ["s", "r1"], "scenario": "linear", "p": 1e100000, "delta": 1, "q": [0.1]}',
         "p must lie in [0, 1], got ~1e+100000"),
        ('{"players": ["s", "r1"], "scenario": "linear", "p": 0.5, "delta": -1e5000, "q": [0.1]}',
         "delta must be >= 0, got ~-1e+5000"),
        ('{"players": ["s", "r1"], "scenario": "threshold", "k": 1' + "0" * 5000
         + ', "p": 0.5, "delta": 1, "q": 0.1}', "Exceeds the limit (4300 digits)"),
    ],
)
def test_price_huge_exponents_end_in_one_line(tmp_path, capsys, spec, message):
    path = tmp_path / "huge.json"
    path.write_text(spec, encoding="utf-8")
    assert main(["price", "--game", str(path), "--method", "shapley"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"arguments": ["a"], "worths": {"a": 1}, "ownership": {"r1": [["a"]]}}',
         "ownership of 'r1' must be an array of strings"),
        (b"\xff\xfe{}", "not UTF-8 text: invalid start byte at byte 0"),
        (b"[" * 100_000, "invalid JSON: nested too deeply"),
    ],
)
def test_price_unreadable_spec_ends_in_one_line(tmp_path, capsys, content, message):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert main(["price", "--game", str(path), "--method", "anon-shapley"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_price_unreadable_vector_ends_in_one_line(linear_spec, tmp_path, capsys):
    vector = tmp_path / "x.json"
    vector.write_bytes(b"[" * 100_000)
    argv = ["price", "--game", str(linear_spec), "--method", "core-check", "--vector", str(vector)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --vector: invalid JSON: nested too deeply\n"


def test_price_argument_game_over_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FAIRPRICE_MAX_PLAYERS", raising=False)
    args = [f"a{i:02d}" for i in range(17)]
    path = tmp_path / "args17.json"
    path.write_text(json.dumps({"arguments": args, "worths": {",".join(args): 1},
                                "ownership": {"r1": args}}), encoding="utf-8")
    assert main(["price", "--game", str(path), "--method", "anon-shapley"]) == 3
    assert capsys.readouterr().err == (
        "error: 17 arguments exceeds the cap of 16 (override with FAIRPRICE_MAX_PLAYERS)\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p0", "1e100000", "--l", "0.5"], "p0 must lie in (0, 1), got ~1e+100000"),
        (["--p0", "0.5", "--l", "1e5000"], "l must lie in [0, 1), got ~1e+5000"),
        (["--p0", "0.5", "--l", "0.5", "--r", "1e400"],
         "r must be > 0 and within the float range, got ~1e+400"),
    ],
)
def test_simulate_huge_exponents_end_in_one_line(capsys, flags, message):
    assert main(["simulate", *flags, "--n", "5", "--policy", "all"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_single_step_optimal(capsys):
    code, out = run(
        ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--r", "1",
         "--n", "1", "--policy", "optimal"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "1,optimal,0.5,"


def test_simulate_reset_all_converges_near_five(capsys):
    code, out = run(
        ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1", "--r", "1",
         "--n", "200", "--policy", "all", "--reset"],
        capsys,
    )
    assert code == 0
    final = float(out.strip().splitlines()[-1].split(",")[2])
    assert abs(final - 4.94) < 0.1


def test_simulate_every_k_values(capsys):
    code, out = run(
        ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--r", "1",
         "--n", "6", "--policy", "every-k:3"],
        capsys,
    )
    assert code == 0
    curves = read_curve_csv(out)
    assert curves[0].values == (0.0, 0.0, 0.5, 0.5, 0.5, 1.0)


def test_simulate_every_k_with_reset_honours_tol(capsys):
    # l * g < 1, so every-k:2 with reset takes the expectation, which used to
    # drop --tol and keep every state
    from fairprice import trust

    finals = {}
    for tol in ("0", "1e-3"):
        code, out = run(["simulate", "--p0", "0.5", "--l", "0.1", "--g", "1.5", "--n", "60",
                         "--policy", "every-k:2", "--tol", tol], capsys)
        assert code == 0
        finals[tol] = read_curve_csv(out)[0].values[-1]
    tp = trust.TrustParams("0.5", "0.1", "1.5", 1, reset=True)
    pruned = trust.expected_curve(tp, trust.EveryK(2), 60, prune=1e-3).values[-1]
    assert finals["1e-3"] == pytest.approx(pruned, rel=1e-9)
    assert finals["0"] - finals["1e-3"] > 1e-4


def test_simulate_csv_round_trip_with_mc(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1", "--r", "1",
         "--n", "20", "--policy", "all", "--trials", "300", "--seed", "5",
         "--out", str(out)]
    )
    assert code == 0
    curves = read_curve_csv(out.read_text(encoding="utf-8"))
    by_name = {c.policy: c for c in curves}
    assert set(by_name) == {"all", "all:mc"}
    assert by_name["all:mc"].stderr is not None
    assert len(by_name["all"]) == 20


def test_simulate_optimal_with_mc(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(
        ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--r", "1",
         "--n", "30", "--policy", "optimal", "--trials", "4000", "--seed", "11",
         "--out", str(out)]
    )
    assert code == 0
    by_name = {c.policy: c for c in read_curve_csv(out.read_text(encoding="utf-8"))}
    dp, mc = by_name["optimal"], by_name["optimal:mc"]
    assert abs(dp.final - mc.final) <= 4 * mc.stderr[-1]


def test_simulate_byte_identical_reruns(tmp_path):
    args = ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--r", "1",
            "--n", "15", "--policy", "every-k:2", "--trials", "100", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_split_files(tmp_path):
    outdir = tmp_path / "curves"
    code = main(
        ["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1", "--r", "1",
         "--n", "10", "--policy", "all", "--trials", "50", "--seed", "1",
         "--split", "--out", str(outdir)]
    )
    assert code == 0
    assert (outdir / "all.csv").exists() and (outdir / "all-mc.csv").exists()


def test_simulate_validation_exit_codes(capsys):
    assert main(["simulate", "--p0", "2", "--l", "0.66", "--g", "1", "--r", "1",
                 "--n", "5", "--policy", "all"]) == 2
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1", "--r", "1",
                 "--n", "501", "--policy", "optimal"]) == 3
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1", "--r", "1",
                 "--n", "5", "--policy", "sometimes"]) == 2


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("policy", ["all", "optimal"])
def test_simulate_trials_checked_up_front(capsys, monkeypatch, trials, policy):
    # --trials 0 used to skip Monte Carlo silently, -1 to fail after the whole DP
    from fairprice import trust

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --trials was checked")

    monkeypatch.setattr(trust, "_kernel", no_work)
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--n", "50",
                 "--policy", policy, "--trials", trials]) == 2
    assert capsys.readouterr().err == "error: --trials must be >= 1\n"


@pytest.mark.parametrize("mc_args, code, err", [
    # --seed -1 used to end in numpy's ValueError traceback, after the whole DP
    (["--trials", "10", "--seed", "-1"], 2, "--seed must be an integer >= 0, got -1"),
    (["--trials", "101"], 3, "101 Monte-Carlo trials exceed the cap of 100"),
])
def test_simulate_seed_and_trial_cap_checked_up_front(capsys, monkeypatch, mc_args, code, err):
    from fairprice import trust

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the Monte-Carlo arguments were checked")

    monkeypatch.setattr(trust, "_kernel", no_work)
    monkeypatch.setattr(trust, "MC_TRIAL_CAP", 100)
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--n", "50",
                 "--policy", "optimal", *mc_args]) == code
    assert capsys.readouterr().err == f"error: {err}\n"


def test_simulate_split_without_out_checked_up_front(capsys, monkeypatch):
    # used to run the DP and Monte Carlo (~1.4 s at n = 500, 10^5 trials) first
    from fairprice import trust

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --split was checked")

    monkeypatch.setattr(trust, "dp_optimal", no_work)
    monkeypatch.setattr(trust, "mc_simulate", no_work)
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--n", "500",
                 "--policy", "optimal", "--trials", "100000", "--split"]) == 2
    assert capsys.readouterr().err == "error: --split requires --out <directory>\n"


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-0.5", "-0.5")])
@pytest.mark.parametrize("policy", ["all", "optimal"])
def test_simulate_tol_must_be_finite(capsys, tol, shown, policy):
    # --tol nan|inf used to drop every state and print p0 at each step
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--n", "4",
                 "--policy", policy, "--tol", tol]) == 2
    assert capsys.readouterr().err == f"error: --tol must be finite and >= 0, got {shown}\n"


def test_simulate_over_the_kernel_state_cap(capsys):
    # ~118.6M states (~12 GB of kernel arrays) at Figure 2 and n = 20000
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33",
                 "--n", "20000", "--policy", "all"]) == 3
    assert capsys.readouterr().err == (
        "error: horizon 20000 needs more than 4194304 trust states (the cap)\n"
    )


def test_simulate_every_k_over_the_kernel_state_cap(capsys, monkeypatch, fig2_recovery):
    # every-k:3 with reset built n exact rationals without a horizon bound
    from fairprice import trust

    cap = len(trust._kernel(fig2_recovery, 99).p)
    monkeypatch.setattr(trust, "KERNEL_STATE_CAP", cap)
    trust._kernel.cache_clear()  # rebuild under the lowered cap
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33",
                 "--n", "100", "--policy", "every-k:3"]) == 3
    assert capsys.readouterr().err == (
        f"error: horizon 100 needs more than {cap} trust states (the cap)\n"
    )
    assert main(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33",
                 "--n", "99", "--policy", "every-k:3", "--format", "csv"]) == 0
    assert len(read_curve_csv(capsys.readouterr().out)[0].values) == 99


@pytest.mark.parametrize("policy", ["all", "every-k:3"])
def test_simulate_every_k_shares_the_horizon_bound(capsys, policy):
    # every-k:3 takes the exact floor(t/k) branch at Figure 2; it ran for
    # seconds at n = 10^6, where every kernel curve is refused at once
    code, std = _timed(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33", "--r", "1",
                        "--n", "1000000", "--policy", policy], capsys, seconds=2)
    assert code == 3
    assert std.err == "error: horizon 1000000 needs more than 4194304 trust states (the cap)\n"


FIG2_MANY_DIGITS = ["simulate", "--p0", "0.5", "--l", "1e-5000", "--g", "1e4000"]


def _timed(argv, capsys, seconds=5):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < seconds
    return code, capsys.readouterr()


def test_simulate_many_digits_optimal_in_bounded_time(capsys):
    """l and g of ~5,000 digits took ~30 s in the clamp's big-integer loop.
    Trust after a failure underflows to 0 and 2 skips restore it
    (l * g^2 >= 1 > l * g), so V(t) = 0.5 (1 + V(t-1)) + 0.5 V(t-3)."""
    code, std = _timed(FIG2_MANY_DIGITS + ["--n", "500", "--policy", "optimal"], capsys)
    assert code == 0
    v = [0.0, 0.0, 0.0]
    for _ in range(500):
        v.append(0.5 * (1.0 + v[-1]) + 0.5 * v[-3])
    got = read_curve_csv(std.out)[0].values
    assert got == pytest.approx(v[3:], rel=1e-10)  # the CSV keeps 12 digits


def test_simulate_many_digits_every_k_in_bounded_time(capsys):
    # the spacing test raised 1e4000 to the 1999th power (~11 s)
    code, std = _timed(FIG2_MANY_DIGITS + ["--n", "2000", "--policy", "every-k:2000"], capsys)
    assert code == 0
    assert read_curve_csv(std.out)[0].values == (0.0,) * 1999 + (0.5,)


def test_simulate_refused_horizon_exits_at_once(capsys):
    # the refusal used to wait ~13 s for the clamp's big-integer loop
    code, std = _timed(["simulate", "--p0", "0.5", "--l", "0.66", "--g", "1.33",
                        "--n", "100000", "--policy", "all"], capsys, seconds=2)
    assert code == 3
    assert std.err == "error: horizon 100000 needs more than 4194304 trust states (the cap)\n"


def test_verify_suite_runs(capsys):
    code, out = run(["verify", "--suite", "shapley-axioms"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_figure2_suite(capsys):
    code, out = run(["verify", "--suite", "figure2"], capsys)
    assert code == 0
    assert "no-reset asymptote" in out and "FAIL" not in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_module_entry_point(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(LINEAR_SPEC, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fairprice", "price", "--game", str(spec),
         "--method", "shapley", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "s,shapley,0.65" in proc.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy.integrate alone cost ~0.65 s a process
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fairprice.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_NUMPY_PROBE = """
import contextlib, io, json, sys
from fairprice import cli

def heavy():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]

loaded = {"import": heavy()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded[name] = [cli.main(argv), heavy()]
print(json.dumps(loaded))
"""


def test_pricing_path_loads_no_numpy(linear_spec):
    # numpy is ~0.14 s of a cold process; only the trust layer uses it.
    # dataclasses (~10 ms, with inspect, ast, dis and tokenize) is used by none
    steps = [
        ["price", ["price", "--game", str(linear_spec),
                   "--method", "shapley,nash,core-nonempty"]],
        ["core-laws", ["verify", "--suite", "core-laws"]],
        ["simulate", ["simulate", "--p0", "0.5", "--l", "0.66", "--n", "5",
                      "--policy", "all"]],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(steps)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [],
        "price": [0, []],
        "core-laws": [0, []],
        "simulate": [0, ["numpy", "inspect"]],  # numpy imports inspect itself
    }
