"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.json B.json

``A.json`` (the base, e.g. the parent commit) and ``B.json`` are files
written by ``bench/repeat.py``. For every workload and end-to-end metric one
row gives both medians with their quartiles, the ratio B/A (A is the base),
and a verdict taken with the metric's own bound from ``BENCHMARK.json``:

* ``unresolved`` — either side's interquartile range is wider than the bound,
  so the runs cannot tell a regression of that size from noise;
* ``worse``  — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's own spread
  and B wins at least nine tenths of the runs paired by seed (ties count
  for neither side);
* ``same``   — otherwise.

Exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.repeat import summarize  # noqa: E402


def _wins(a: list[float], b: list[float], better: str) -> float:
    """Share of the paired runs (same position = same seed) that B wins."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    lost = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    return won / (won + lost) if won + lost else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float):
    sa, sb = summarize(a), summarize(b)
    ratio = sb["median"] / sa["median"] if sa["median"] else float("inf")
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(sa["spread"], sb["spread"]) > bound:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    elif -worsening > sa["spread"] and _wins(a, b, better) >= 0.9:
        word = "better"
    else:
        word = "same"
    return sa, sb, ratio, word


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        other = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    worse = 0
    print(f"{'workload':<18}{'metric':<14}{'A q1':>10}{'A median':>11}{'A q3':>10}"
          f"{'B q1':>10}{'B median':>11}{'B q3':>10}{'B/A':>8}  verdict")
    for workload in base:
        if workload not in other:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in other[workload]]
            sa, sb, ratio, word = verdict(a, b, m["better"], m["bound"])
            worse += word == "worse"
            print(f"{workload:<18}{m['name']:<14}"
                  f"{sa['q1']:>10.4g}{sa['median']:>11.4g}{sa['q3']:>10.4g}"
                  f"{sb['q1']:>10.4g}{sb['median']:>11.4g}{sb['q3']:>10.4g}"
                  f"{ratio:>8.3f}  {word} (bound {m['bound']:g}, base A)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
