import json
import subprocess
import sys
from pathlib import Path

import pytest

from fairprice.cli import main
from fairprice.specio import read_curve_csv

LINEAR_SPEC = """\
{"players": ["s", "r1", "r2"], "scenario": "linear",
 "p": 0.5, "delta": 1, "q": [0.2, 0.1]}
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


@pytest.mark.parametrize("name", ["linear10", "general6"])
def test_price_shapley_core_golden(name, capsys, monkeypatch):
    """Byte-exact stdout: Shapley values plus a Core point (linear10) or a
    Farkas certificate over all 62 proper coalitions (general6)."""
    golden = Path(__file__).parent / "golden"
    monkeypatch.chdir(golden.parent.parent)
    argv = ["price", "--game", f"tests/golden/{name}.json", "--method", "shapley,core-nonempty"]
    code, out = run(argv, capsys)
    assert code == 0
    assert out == (golden / f"{name}.out").read_text(encoding="utf-8")


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


def test_price_core_nonempty(linear_spec, capsys):
    code, out = run(["price", "--game", str(linear_spec), "--method", "core-nonempty"], capsys)
    assert code == 0
    assert json.loads(out)["core_nonempty"]["nonempty"] is True


def test_price_method_mismatch(linear_spec, example1_spec, capsys):
    assert main(["price", "--game", str(linear_spec), "--method", "anon-shapley"]) == 2
    assert main(["price", "--game", str(example1_spec), "--method", "nash"]) == 2


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
    from fairprice.specio import read_results_csv

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
