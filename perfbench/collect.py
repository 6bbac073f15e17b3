#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads desk-train,desk-eval --seeds 1-10 \\
        --seconds 30 --trace 0 --out perfbench/out/summary.json

For every workload and metric it prints the median over seeds and the
quartile spread as a share of the median, computed as
``statistics.quantiles(values, n=4)`` gives them.  Runs are sequential, one
process at a time.  With ``--out`` it also writes the summary and every
run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"seed": seed, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                     "unit": units[name], "n": len(vals)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        correct = all(r["result"]["correct"] for r in runs)
        summary = summarise(runs)
        report[workload] = {"correct": correct, "metrics": summary, "runs": runs}
        print(f"== {workload} trace={args.trace} seeds={args.seeds} correct={correct}")
        for name, s in summary.items():
            print(f"  {name:42s} {s['median']:14.6g} {s['unit']:6s} spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
