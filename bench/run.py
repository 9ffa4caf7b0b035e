"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cartel_spatial --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1`` (which also writes ``bench/out/trace_<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--verbose", action="store_true",
                        help="also print run details (to standard error)")
    args = parser.parse_args(argv)

    # The program under test lives in src/ and is used in place, unbuilt.
    for entry in (ROOT, os.path.join(ROOT, "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from bench import harness
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale, out_dir)
    info = result.pop("info")
    if args.verbose:
        print(json.dumps(info, indent=1), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
