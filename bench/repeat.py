"""Run the benchmark as the driver does and report how steady it is.

    python3 bench/repeat.py --runs 10 --out bench/out/A.json

For every workload in ``BENCHMARK.json`` this runs its ``command`` once per
seed (``--first-seed`` upward), with ``--trace 0`` and the file's
``run_seconds``, in a subprocess. It writes every result to ``--out`` and
prints, per workload and end-to-end metric, the median, the quartiles and
the spread (interquartile range as a share of the median) beside the
metric's bound. ``bench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(values: list[float]) -> dict:
    """Median, quartiles and spread (interquartile range ÷ median)."""
    if len(values) == 1:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {}
    for name in args.workload or names:
        results[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
                "--verbose",
            ]
            t0 = perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["info"] = json.loads(done.stderr)
            result["seed"], result["wall_s"] = seed, perf_counter() - t0
            results[name].append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"{'workload':<18}{'metric':<14}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>8}{'bound':>7}{'raw spread':>12}")
    for name, runs in results.items():
        for metric in bounds:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            # Timings are scaled to reference speed (bench/speed.py); show
            # what the spread of the unscaled clock readings would have been.
            raw = [r["info"].get("raw." + metric) for r in runs]
            raw_spread = (f"{summarize(raw)['spread']:>12.3f}"
                          if None not in raw else "")
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 \
                else (" >bound/3" if s["spread"] <= bounds[metric] else " >BOUND")
            print(f"{name:<18}{metric:<14}{s['median']:>11.4f}{s['q1']:>11.4f}"
                  f"{s['q3']:>11.4f}{s['spread']:>8.3f}{bounds[metric]:>7.2f}"
                  f"{raw_spread}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
