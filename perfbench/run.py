"""Sweep benchmark for bernblend.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root; bernblend is imported from ./src.  One
workload runs as a closed loop in one fresh child process: a warm-up sweep,
then sweeps back to back, each starting when the previous one has ended,
for T seconds (a sweep that would likely end after T is not started,
unless fewer than three sweeps have been measured).
Load comes from that one process and thread.

With --trace 0 the last stdout line reports the end-to-end metrics:
  sweep_s      median wall seconds per sweep after the warm-up sweep, each
               sweep's time rescaled to a reference CPU speed by the speed
               probe sampled while it ran (child.py says why and how)
  sweep_cpu_s  median process CPU seconds per sweep, rescaled the same way
  setup_s      median, over fresh interpreters with OpenBLAS held to one
               thread, of importing bernblend and building the workload's
               inputs with every cache cold (SETUP_CHILDREN says why), each
               rescaled by the speed probe run just after it
  peak_rss_mb  peak RSS of the child that ran the sweeps
With --trace 1 it reports the per-layer metrics of spans.py, from traced
sweeps that alternate with plain ones, plus trace.overhead_frac.

Checks, each a failed operation when it fails: every sweep renders the same
bytes as the warm-up sweep, and a traced sweep the same bytes as a plain
one; a traced sweep's top-level spans cover at least 90% of it, and none of
its blended f samples lies nearer xi than the blend geometry allows; the
numbers match reference.json.gz within rel 1e-9 (for the seeds it records,
with a warning on stderr for any other seed); at seed 0, singular-sweep's
rows n=64..1024 equal tests/golden.json; and the workload's
`python -m bernblend` commands print the in-process render exactly (once
per run, untimed).  failed_frac, the
share of sweeps that failed, is failed/attempted over sweeps and is given
in the provenance line, since a metric that is normally 0 has no relative
bound.

The line before the result is a provenance record; it also gives the
medians of the sweep and set-up times as measured, before rescaling.  Spans are
written to perfbench/out/.  Exit status 2 means the benchmark could not run
at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Fresh interpreters that only set up.  They run with OpenBLAS held to one
# thread: starting its second thread is half of numpy's import on this 2-vCPU
# VM, and how long the import waits for it depends on whether the host is
# running the other vCPU at that moment.  The median set-up time moved from
# 0.11 s to 0.18 s between two sets of runs a few minutes apart; in a slow
# stretch numpy's import took 0.13-0.17 s with two threads and 0.06-0.07 s
# with one.  No change to bernblend can move that thread's start.  The sweep child keeps the
# default, so the program may still use both cores while it sweeps.
SETUP_CHILDREN = 10
# every child is killed if the run would otherwise pass this many seconds
DEADLINE_S = 170.0
GOLDEN_NS = (64, 128, 256, 512, 1024)


class Runner:
    """Starts the children of one run against a shared deadline."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
        self.setup_env = dict(self.env, OPENBLAS_NUM_THREADS="1")

    def _run(self, argv, env=None) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.monotonic() - self.t0)
        # subprocess.run kills and waits for the child on timeout
        return subprocess.run(argv, cwd=self.root, env=env or self.env, capture_output=True,
                              timeout=max(left, 1.0))

    def child(self, mode: str, *extra: str) -> dict:
        proc = self._run([sys.executable, str(HERE / "child.py"), mode,
                          "--workload", self.workload, "--seed", str(self.seed), *extra],
                         env=self.setup_env if mode == "setup" else None)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"child.py {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def cli(self, argv) -> tuple[int, str]:
        proc = self._run([sys.executable, "-m", "bernblend", *argv])
        return proc.returncode, proc.stdout.decode(errors="replace")


def _cli_mismatch(runner: Runner, inp, pieces: dict) -> str | None:
    for name, argv in inputs.cli_commands(inp).items():
        code, stdout = runner.cli(argv)
        if code != 0:
            return f"`bernblend {' '.join(argv)}` exited with {code}"
        if stdout != pieces[name]:
            return f"`bernblend {' '.join(argv)}` stdout differs from the in-process render"
    return None


def _median_wall(sweeps, traced: bool) -> float:
    return statistics.median(s["wall_s"] for s in sweeps if s["traced"] == traced)


def _median_scaled(samples, key: str, scale: str = "scale") -> float:
    return statistics.median(s[key] * s[scale] for s in samples)


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "bernblend" / "__init__.py").is_file():
        print("perfbench: ./src/bernblend not found; run from the repository root",
              file=sys.stderr)
        return 2
    inp = inputs.make_inputs(args.workload, args.seed)
    runner = Runner(root, args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"

    def setups():
        return ([] if args.trace else
                [runner.child("setup") for _ in range(SETUP_CHILDREN // 2)])

    # half the set-up samples come before the sweeps and half after, so a
    # machine that slows down for a while does not skew them all
    setup = setups()
    res = runner.child("sweeps", "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--spans", str(spans_path))
    sweeps = res["sweeps"]
    pieces = dict(res["pieces"] or [])

    problems = {}
    recorded, commit = checks.load_reference(args.workload, args.seed)
    if res["pieces"] is None:
        problems["warm-up"] = next(s["error"] for s in sweeps if s["warmup"])
    else:
        if recorded is not None:
            problems["reference"] = checks.compare(checks.numbers(res["pieces"]), recorded)
        if args.workload == "singular-sweep" and args.seed == 0:
            problems["golden"] = checks.golden_rows(
                pieces["approx"], root / "tests" / "golden.json", GOLDEN_NS)
    # a wrong render makes every sweep wrong, since all match the warm-up's
    output_bad = any(problems.values())
    failed_sweeps = sum(1 for s in sweeps if s["error"] or output_bad)
    problems["cli"] = _cli_mismatch(runner, inp, pieces) if pieces else "no render"
    setup += setups()
    failed = failed_sweeps + (1 if problems["cli"] else 0)
    attempted = len(sweeps) + 1

    measured = [s for s in sweeps if not s["warmup"]]
    if args.trace:
        metrics = res["layers"]
        overhead = _median_wall(measured, True) / _median_wall(measured, False) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "sweep_s": {"value": _median_scaled(measured, "wall_s"), "unit": "s"},
            "sweep_cpu_s": {"value": _median_scaled(measured, "cpu_s"), "unit": "s"},
            "setup_s": {"value": _median_scaled(setup, "setup_s", "setup_scale"),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "xi": inp.xi,
        "trace": args.trace, "run_seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": res["python"], "numpy": res["numpy"],
        "commit": checks.git_commit(root),
        "grid_points": res["grid_points"],
        "sweeps_per_run": len(measured), "warmup_sweeps": len(sweeps) - len(measured),
        "measured_wall_s": _median_wall(measured, False),
        "measured_cpu_s": statistics.median(s["cpu_s"] for s in measured),
        "speed_scale": statistics.median(s["scale"] for s in measured),
        "setup_samples": len(setup),
        "measured_setup_s": statistics.median(s["setup_s"] for s in setup) if setup else None,
        "failed_frac": failed_sweeps / len(sweeps),
        "reference": (f"recorded at {commit}" if recorded is not None
                      else "no reference recorded for this seed"),
        "problems": {k: v for k, v in problems.items() if v},
        "sweep_errors": sorted({s["error"] for s in sweeps if s["error"]}),
        "spans": str(spans_path.relative_to(root)) if args.trace else None,
    }
    print(json.dumps({"provenance": provenance}))
    if recorded is None:
        print(f"perfbench: warning: seed {args.seed} is not among the recorded "
              f"seeds {checks.REFERENCE_SEEDS.start}-{checks.REFERENCE_SEEDS.stop - 1}; "
              "the reference check was skipped", file=sys.stderr)
    for name, problem in provenance["problems"].items():
        print(f"perfbench: {name} check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bernblend sweep benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
