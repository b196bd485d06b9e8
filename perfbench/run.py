"""fairprice benchmark: cold CLI processes, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is a closed loop with one
client: the invocations run in turn as cold ``python -m fairprice ...``
processes against this checkout's ``src/``, one child at a time, until
``--seconds`` is used up.  Outputs are checked outside the timed region.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a traced one and reports the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"
TRACER = Path(__file__).resolve().with_name("tracing.py")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "FAIRPRICE_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Child:
    """One finished child process."""

    out: Path  # its stdout; stderr is next to it as .err
    code: int
    wall: float  # spawn to reap
    cpu: float  # user plus system, from rusage
    rss_mb: float


def spawn(argv: list[str], out: Path, env: dict[str, str]) -> Child:
    """Run `python argv` to completion with stdout and stderr in files.

    The harness does nothing but wait in os.wait4 while the child runs.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out.with_suffix(".err")), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Child(out, os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.env = child_env()
        self.run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.invs = workloads.generate(workload, seed, self.run_dir / "inputs")
        self.first_stdout: dict[str, bytes] = {}
        self.verdicts: dict[tuple[str, bytes], list[str]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def setup_wall(self, tag: str) -> float:
        """Wall time of a cold process that imports fairprice.cli and exits."""
        child = spawn(["-c", "import fairprice.cli"], self.run_dir / f"{tag}.out", self.env)
        if child.code != 0:
            raise SystemExit(f"importing fairprice.cli failed, see {child.out.with_suffix('.err')}")
        return child.wall

    def run_cycle(self, seconds: float) -> tuple[dict[str, list[Child]], list[float]]:
        """Run the invocations in turn until the next one is predicted to end
        after `seconds`, and at least one whole pass.

        The run stops after any invocation, not only at the end of a pass, so
        little of `seconds` goes unmeasured.  A set-up sample runs each time
        the cycle starts a pass, so slow phases of the host weigh on set-up as
        on the invocations.  Returns each invocation's children, by name, and
        the set-up samples.
        """
        runs: dict[str, list[Child]] = {inv.name: [] for inv in self.invs}
        setups: list[float] = []
        start = time.perf_counter()
        for i in itertools.count():
            passes, at = divmod(i, len(self.invs))
            if at == 0:
                setups.append(self.setup_wall(f"setup{passes}"))
                (self.run_dir / f"pass{passes}").mkdir(parents=True)
            inv = self.invs[at]
            out = self.run_dir / f"pass{passes}" / f"{inv.name}.out"
            runs[inv.name].append(spawn(["-m", "fairprice", *inv.argv], out, self.env))
            nxt = self.invs[(at + 1) % len(self.invs)]
            if runs[nxt.name]:
                predicted = statistics.mean(c.wall for c in runs[nxt.name])
                if at + 1 == len(self.invs):
                    predicted += statistics.mean(setups)
                if time.perf_counter() - start + predicted > seconds:
                    break
        for inv in self.invs:
            for child in runs[inv.name]:
                self.check(inv, child)
        return runs, setups

    def run_pass(self, tag: str, traced: bool = False) -> tuple[list[Child], float]:
        """Run every invocation back to back, then check the outputs.

        Returns the children and the pass wall time, which ends when the
        last child is reaped and so excludes the checks.
        """
        out_dir = self.run_dir / tag
        out_dir.mkdir(parents=True)
        argvs = []
        for inv in self.invs:
            out = out_dir / f"{inv.name}.out"
            if traced:
                argvs.append(([str(TRACER), str(out.with_suffix(".spans.json")), inv.name, *inv.argv], out))
            else:
                argvs.append((["-m", "fairprice", *inv.argv], out))
        start = time.perf_counter()
        children = [spawn(argv, out, self.env) for argv, out in argvs]
        wall = time.perf_counter() - start
        for inv, child in zip(self.invs, children):
            self.check(inv, child)
        return children, wall

    def check(self, inv: workloads.Invocation, child: Child) -> None:
        """Check one output; identical stdout is checked once per run."""
        self.attempted += 1
        out = checks.stable_stdout(child.out.read_bytes())
        first = self.first_stdout.setdefault(inv.name, out)
        key = (inv.name, hashlib.sha256(out).digest(), child.code)
        if key not in self.verdicts:
            self.verdicts[key] = checks.check_output(inv.kind, inv.expect, child.code, out)
            if child.code != 0:
                err = child.out.with_suffix(".err").read_text(errors="replace").strip()
                self.verdicts[key].append(err.splitlines()[-1] if err else "no stderr")
        found = list(self.verdicts[key])
        if out != first:
            found.append("stdout differs from the first pass of this run")
        if found:
            self.problems.append(f"{child.out.relative_to(ROOT)}: {'; '.join(found)}")


def cycle_metrics(runs: dict[str, list[Child]], setups: list[float]) -> dict[str, float]:
    """The run's value of each end-to-end metric.

    A pass's wall and CPU time are the sums over invocations of each
    invocation's mean over the run.  Means, not medians: the host's speed
    wanders, and a mean over every child uses all of the run's samples.
    """
    means = [statistics.mean(c.wall for c in cs) for cs in runs.values()]
    return {
        "wall_s": sum(means),
        "cpu_s": sum(statistics.mean(c.cpu for c in cs) for cs in runs.values()),
        "max_request_s": max(means),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(statistics.median(c.rss_mb for c in cs) for cs in runs.values()),
    }


def pass_samples(runs: dict[str, list[Child]], setups: list[float]) -> dict[str, list[float]]:
    """The same metrics per whole pass, for the quartiles in the table."""
    passes = list(zip(*runs.values()))  # stops at the last whole pass
    return {
        "wall_s": [sum(c.wall for c in p) for p in passes],
        "cpu_s": [sum(c.cpu for c in p) for p in passes],
        "max_request_s": [max(c.wall for c in p) for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [max(c.rss_mb for c in p) for p in passes],
    }


def traced_metrics(traced: list[Child], traced_wall: float, wall: float) -> dict[str, float]:
    spans = [json.loads(c.out.with_suffix(".spans.json").read_text()) if c.code == 0
             else {"spans": [], "counts": {}} for c in traced]
    metrics = tracing.layer_metrics(spans, [c.wall for c in traced])
    metrics["trace.overhead_s"] = traced_wall - wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairprice" / "cli.py").is_file():
        print(f"error: no fairprice sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))  # for the certificate re-check

    bench = Bench(args.workload, args.seed, bool(args.trace))
    bench.setup_wall("warmup")  # untimed: compiles the .pyc files
    if args.trace:
        samples: dict[str, list[float]] = {}
        start = time.perf_counter()
        passes = 0
        while True:
            _, wall = bench.run_pass(f"pass{passes}")
            traced, traced_wall = bench.run_pass(f"traced{passes}", traced=True)
            for name, value in traced_metrics(traced, traced_wall, wall).items():
                samples.setdefault(name, []).append(value)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > args.seconds:
                break
        values = {name: quartiles(v)[1] for name, v in samples.items()}
        report(args, bench, f"traced passes {passes}", values, samples, spec["per_layer"])
    else:
        runs, setups = bench.run_cycle(args.seconds)
        counts = " ".join(f"{name}={len(cs)}" for name, cs in runs.items())
        report(args, bench, f"children {counts}", cycle_metrics(runs, setups), pass_samples(runs, setups),
               spec["end_to_end"] + [{"name": "max_request_s", "unit": "s", "table_only": True}])
    return 0


def report(args, bench: Bench, header: str, values: dict[str, float],
           samples: dict[str, list[float]], wanted) -> None:
    """Readable table, then the result line with the run's value of each
    metric BENCHMARK.json lists."""
    failed = len(bench.problems)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {header}")
    print(f"{'metric':34} {'unit':6} {'value':>13} {'median':>13} {'q1':>13} {'q3':>13} {'n':>3}")
    metrics = {}
    for m in wanted:
        name = m["name"]
        (q1, med, q3), n = quartiles(samples[name]), len(samples[name])
        if not m.get("table_only"):
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{name:34} {m['unit']:6} {values[name]:13.6g} {med:13.6g} {q1:13.6g} {q3:13.6g} {n:3}")
    print(f"{'failed_frac':34} {'ratio':6} {failed / bench.attempted:13.6g} "
          f"{'':13} {'':13} {'':13} {bench.attempted:3}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"inputs and outputs: {bench.run_dir.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
