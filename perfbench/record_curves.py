"""Record the exact reward curves the simulate checks compare against.

    python3 perfbench/record_curves.py

Runs every simulate invocation of the benchmark once, without Monte Carlo
(the exact curves do not depend on the seed), through this checkout's CLI
and writes the parsed curves to reference_curves.json.  Re-record only when
a change is meant to alter the curves.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    curves = {}
    with tempfile.TemporaryDirectory(dir=run.RUNS.parent) as tmp:
        for name in ("trust-horizon", "cold-small"):
            for inv in workloads.generate(name, 0, Path(tmp)):
                if inv.kind != "simulate":
                    continue
                argv = inv.argv[: inv.argv.index("--trials")] if "--trials" in inv.argv else inv.argv
                out = subprocess.run([sys.executable, "-m", "fairprice", *argv], env=run.child_env(),
                                     check=True, capture_output=True, text=True).stdout
                (curve,) = checks.parse_curves(out).values()
                curves[inv.expect["exact"]] = [v for v, _ in curve]
    checks.REFERENCE_CURVES.write_text(json.dumps(curves) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
