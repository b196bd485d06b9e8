"""Tests of the benchmark itself: its generator, its checks and its tracing."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracing
import workloads
from fairprice.cli import main as fairprice_main


def cli_stdout(argv, capsys) -> bytes:
    assert fairprice_main(argv) == 0
    return capsys.readouterr().out.encode()


def by_name(invs):
    return {inv.name: inv for inv in invs}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    runs = {key: workloads.generate(workload, seed, tmp_path / key)
            for key, seed in (("a", 7), ("b", 7), ("c", 8))}
    files = {key: {p.name: p.read_text().replace(str(tmp_path / key), "")
                   for p in (tmp_path / key).iterdir()} for key in runs}
    assert files["a"] == files["b"]
    assert files["a"].keys() == files["c"].keys()
    assert files["a"] != files["c"]
    # a new seed changes values and Monte-Carlo seeds, never the sizes of the work
    for inv_a, inv_c in zip(runs["a"], runs["c"]):
        spec_a, spec_c = inv_a.expect.get("spec"), inv_c.expect.get("spec")
        if spec_a:
            assert {k: len(v) for k, v in spec_a.items() if isinstance(v, list)} == \
                   {k: len(v) for k, v in spec_c.items() if isinstance(v, list)}
            assert len(spec_a.get("worths", ())) == len(spec_c.get("worths", ()))


@pytest.fixture
def small(tmp_path):
    return by_name(workloads.generate("cold-small", 3, tmp_path))


def _corrupt_value(out: bytes, method: str, delta: Fraction) -> bytes:
    doc = json.loads(out)
    row = next(r for r in doc["results"] if r["method"] == method)
    value = Fraction(row["value"]) + delta
    row["value"], row["value_decimal"] = str(value), float(value)
    return json.dumps(doc).encode()


def test_shapley_off_by_1e9_is_rejected(small, capsys):
    inv = small["readme-price"]
    out = cli_stdout(inv.argv, capsys)
    assert checks.check_output(inv.kind, inv.expect, 0, out) == []
    bad = _corrupt_value(out, "shapley", Fraction(1, 10**9))
    assert checks.check_output(inv.kind, inv.expect, 0, bad)


def test_argument_value_off_by_1e9_is_rejected(small, capsys):
    inv = small["readme-arguments"]
    out = cli_stdout(inv.argv, capsys)
    assert checks.check_output(inv.kind, inv.expect, 0, out) == []
    bad = _corrupt_value(out, "anon-shapley", Fraction(1, 10**9))
    assert checks.check_output(inv.kind, inv.expect, 0, bad)


def test_point_outside_the_core_is_rejected(small, capsys):
    inv = small["readme-price"]
    doc = json.loads(cli_stdout(inv.argv, capsys))
    point = {k: Fraction(v) for k, v in doc["core_nonempty"]["core_point"].items()}
    # hand the seller's payoff to a recommender: the seller alone is then violated
    point["r1"] += point["s"]
    point["s"] = Fraction(0)
    doc["core_nonempty"]["core_point"] = {k: str(v) for k, v in point.items()}
    problems = checks.check_output(inv.kind, inv.expect, 0, json.dumps(doc).encode())
    assert any("violates" in p for p in problems)


def test_wrong_witness_is_rejected(small, capsys):
    inv = small["readme-core-check"]
    doc = json.loads(cli_stdout(inv.argv, capsys))
    assert checks.check_output(inv.kind, inv.expect, 0, json.dumps(doc).encode()) == []
    doc["core_check"]["witness"] = ["r1", "r2", "s"] if doc["core_check"]["witness"] is None else None
    assert checks.check_output(inv.kind, inv.expect, 0, json.dumps(doc).encode())


def test_tampered_certificate_is_rejected(tmp_path, capsys):
    import random

    spec = workloads.empty_core_general_spec(random.Random(1), 6)
    path = tmp_path / "general.json"
    path.write_text(json.dumps(spec))
    inv = workloads._price("g", str(path), spec, "core-nonempty", core_nonempty=False)
    out = cli_stdout(inv.argv, capsys)
    assert checks.check_output(inv.kind, inv.expect, 0, out) == []
    doc = json.loads(out)
    mults = doc["core_nonempty"]["certificate"]["inequality_multipliers"]
    i = next(j for j, m in enumerate(mults) if Fraction(m) != 0)
    mults[i] = str(Fraction(mults[i]) * 2)
    assert checks.check_output(inv.kind, inv.expect, 0, json.dumps(doc).encode())


def test_curve_and_monte_carlo_checks_reject_drift():
    ref = checks.reference_curves()["all200"]

    def csv(values, mc=None):
        rows = ["step,policy,expected_cumulative_reward,stderr"]
        rows += [f"{t},all,{v!r}," for t, v in enumerate(values, 1)]
        if mc:
            rows += [f"{t},all:mc,{v!r},{e!r}" for t, (v, e) in enumerate(mc, 1)]
        return "\n".join(rows) + "\n"

    exact = {"exact": "all200", "mc": False}
    assert checks.check_simulate(exact, csv(ref)) == []
    drifted = list(ref)
    drifted[100] *= 1 + 1e-8
    assert checks.check_simulate(exact, csv(drifted))

    with_mc = {"exact": "all200", "mc": True}
    near = [(v, 0.01) for v in ref[:-1]] + [(ref[-1] + 0.04, 0.01)]
    far = near[:-1] + [(ref[-1] + 0.06, 0.01)]
    assert checks.check_simulate(with_mc, csv(ref, near)) == []
    assert checks.check_simulate(with_mc, csv(ref, far))


def test_verify_check_needs_every_claim():
    assert checks.check_output("verify", {}, 0, b"PASS  a\nPASS  b\n2/2 claims passed\n") == []
    assert checks.check_output("verify", {}, 0, b"PASS  a\nFAIL  b\n1/2 claims passed\n")
    assert checks.check_output("verify", {}, 1, b"PASS  a\n1/1 claims passed\n")


def test_trace_counts_repeat_exactly(small, tmp_path):
    env = run.child_env()
    picked = [small["readme-price"], small["optimal200"]]

    def traced_pass(tag):
        traces, outs = [], []
        for inv in picked:
            spans = tmp_path / f"{tag}-{inv.name}.json"
            res = subprocess.run([sys.executable, str(run.TRACER), str(spans), inv.name, *inv.argv],
                                 env=env, capture_output=True, check=True)
            plain = subprocess.run([sys.executable, "-m", "fairprice", *inv.argv],
                                   env=env, capture_output=True, check=True)
            assert res.stdout == plain.stdout
            outs.append(res.stdout)
            traces.append(json.loads(spans.read_text()))
        return tracing.layer_metrics(traces, [1.0] * len(traces))

    first, second = traced_pass("a"), traced_pass("b")
    counts = ["games.worth.calls", "games.coalitions.calls", "corelp.lp_feasible.calls",
              "corelp.lp_feasible.rows_max", "trust.dp_optimal.cells", "fair_division.shapley.calls"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["games.worth.calls"] > 0 and first["trust.dp_optimal.cells"] == 200 * 202**2
    assert first["corelp.lp_feasible.calls"] > 0


def test_layer_metrics_self_time_and_nesting():
    spans = [
        ["cli.import", 0.0, 1.0, -1, {}],
        ["cli.main", 1.0, 5.0, -1, {}],
        ["corelp.core_is_nonempty", 1.5, 4.5, 1, {}],
        ["corelp.lp_feasible", 2.0, 3.0, 2, {"rows": 3, "vars": 3}],
        ["corelp.core_contains", 3.5, 4.0, 2, {}],
        ["trust.closed_forms", 4.6, 4.9, 1, {}],
        ["trust.closed_forms", 4.7, 4.8, 5, {}],
    ]
    m = tracing.layer_metrics([{"spans": spans, "counts": {"games.worth": 5}}], [5.5])
    assert m["cli.import_s"] == 1.0
    assert m["cli.self_s"] == pytest.approx(4.0 - 3.0 - 0.3)
    assert m["corelp.separation.self_s"] == pytest.approx(3.0 - 1.0 - 0.5)
    assert m["corelp.rows_active_frac"] == pytest.approx(3 / 6)
    assert m["trust.closed_forms.s"] == pytest.approx(0.3)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["games.worth.calls"] == 5


def test_run_values_use_every_child_and_tables_whole_passes():
    def child(wall, rss=10.0):
        return run.Child(out=None, code=0, wall=wall, cpu=wall / 2, rss_mb=rss)

    # the run stopped after the first invocation of its third pass
    runs = {"a": [child(1.0), child(3.0), child(2.0)], "b": [child(4.0, 30.0), child(6.0, 50.0)]}
    values = run.cycle_metrics(runs, [0.5, 0.9, 0.7])
    assert values["wall_s"] == pytest.approx(2.0 + 5.0)
    assert values["cpu_s"] == pytest.approx(3.5)
    assert values["max_request_s"] == pytest.approx(5.0)
    assert values["setup_s"] == 0.7
    assert values["peak_rss_mb"] == 40.0
    samples = run.pass_samples(runs, [0.5, 0.9, 0.7])
    assert samples["wall_s"] == [5.0, 9.0]
    assert samples["peak_rss_mb"] == [30.0, 50.0]
