#!/usr/bin/env python3
"""timecaps benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports per-layer metrics for the same
workload's configuration.  ``--quick`` shrinks inputs and sample counts so a
run ends in seconds (for the benchmark's own tests; its numbers are not
comparable).  BLAS is pinned to one thread and TIMECAPS_THREADS is unset
before numpy loads.  The program is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def pin_threads():
    """Must run before numpy is imported: BLAS reads these once, at load."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("TIMECAPS_THREADS", None)


def find_program() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not (ROOT / "src" / "timecaps" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def finite(value: float):
    return value if math.isfinite(value) else None


def run(args) -> dict:
    """Set up, measure and check one workload; returns the result object
    and prints the environment and sample counts on the lines before it."""
    import harness
    import workloads
    from harness import RefClock, Tracer
    from workloads import Checks, Sizes, run_workload, set_up

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = Sizes.quick() if args.quick else Sizes()
    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    checks = Checks()
    clock = RefClock()
    try:
        setup = set_up(workload, args.seed, sizes, workdir, tracer, checks, clock)
        if args.trace:
            from layers import LayerRun

            metrics = LayerRun(setup, workdir, tracer, checks).run(args.seconds, args.quick)
            counts = {"examples": int(metrics.pop("trace.examples")[0])}
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            metrics, counts = run_workload(setup, args.seed, args.seconds, sizes, checks, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": harness.environment(ROOT, BLAS_VARS)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "info": counts, "failures": checks.notes[:10]}))
    values = [v for v, _ in metrics.values()]
    correct = checks.failed == 0 and all(math.isfinite(v) for v in values)
    return {
        "correct": bool(correct),
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {name: {"value": finite(float(v)), "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if not find_program():
        print(f"timecaps source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
