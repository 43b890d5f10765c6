"""Benchmark entry point.

    python3 perfbench/run.py --workload {solve,circuit,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from
``src/``.  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics (see README.md) and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
own validity guards fail exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "circuit", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from common import InvalidRun

    # The workload module imports the whole program here, before any
    # set-up is timed, so import and first-run bytecode compilation
    # stay out of setup_s.
    module = importlib.import_module(args.workload)
    gc.collect()
    try:
        metrics, outcome, tracer = module.run(args.seed, args.seconds, bool(args.trace))
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")
    for problem in outcome.problems:
        print(f"failed: {problem}", file=sys.stderr)
    for name, metric in metrics.values.items():
        print(f"{args.workload:8s} {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics.values,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
