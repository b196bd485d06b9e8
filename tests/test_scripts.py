"""Smoke tests: the example scripts run end to end on the library's public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def test_fair_prices_demo():
    proc = run_script("fair_prices_demo.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in [
        "  v({r1,r2,s}) = 4/5",
        "  v({r2}) = 0",
        "  shapley: r1=1/10, r2=1/20, s=13/20",
        "  paying r1 one unit: in_core=False, blocked by ['r2', 's']",
        "  rescaled payout, c withheld: r1=3/4, r2=1/4",
        "  truthful utility 13/2, deviating utility 8 (reported margin 0)",
    ]:
        assert line in lines


def test_run_figure2(tmp_path):
    out = tmp_path / "f.csv"
    proc = run_script("run_figure2.py", "--n", "20", "--trials", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "step,policy,expected_cumulative_reward,stderr"
    assert len(rows) == 1 + 10 * 20  # six exact curves and four Monte-Carlo curves
    assert "1,optimal-no-reset,0.5," in rows
