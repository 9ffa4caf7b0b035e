"""Relative CPU speed of the sandbox, sampled with a fixed reference loop.

The sandbox's execution speed drifts by about ±10% for seconds at a time
(frequency and neighbour effects: CPU time moves with wall time). Measured
on the reference sandbox, the time of a fixed pure-Python loop correlates
0.97 with the wall time of the ``cartel_spatial`` op loop run beside it, and
dividing by it cuts that workload's run-to-run spread from 12.6% to 3.2%.

So every timed interval of the benchmark is reported *at reference speed*:
its wall time multiplied by ``NOMINAL_S / local loop time``, where the local
loop time is sampled every ``SAMPLE_INTERVAL_S`` between (never inside) the
timed intervals. The loop shares no code with ``src/repro``, so a change to
the program under test cannot move it; the raw wall-clock figures are kept
beside the scaled ones (``run.py --verbose``).
"""

from __future__ import annotations

from time import perf_counter

#: The reference loop's time on the reference sandbox at its usual speed:
#: the scale on which "reference speed" is 1.0.
NOMINAL_S = 0.000470
SAMPLE_INTERVAL_S = 0.025


def reference_loop() -> int:
    rows = [(i * 7919 % 1009, i) for i in range(1500)]
    rows.sort()
    seen: dict[int, int] = {}
    total = 0
    for key, i in rows:
        seen[key] = seen.get(key, 0) + i
        total += key * i % 13
    return total + len(seen)


def sample() -> float:
    """Seconds the reference loop takes now (best of three: the first
    pass refills the caches the work before it emptied, and a timer
    interrupt inside one pass is not a change of speed)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Speed samples taken around the timed intervals of one phase.

    ``position`` is the index of the next interval (op) when a sample is
    taken, so that each interval can be scaled by the samples around it.
    """

    def __init__(self):
        self.positions: list[int] = []
        self.costs: list[float] = []
        self._next = 0.0

    def take(self, position: int = 0) -> None:
        self.positions.append(position)
        self.costs.append(sample())
        self._next = perf_counter() + SAMPLE_INTERVAL_S

    def tick(self, position: int) -> None:
        """Take a sample if the last one is older than the interval."""
        if perf_counter() >= self._next:
            self.take(position)

    def factor(self) -> float:
        """Scale for a phase timed as a whole: mean of all its samples."""
        return NOMINAL_S * len(self.costs) / sum(self.costs)

    def factors(self, n: int) -> list[float]:
        """Scale for each of ``n`` intervals: the mean of the last sample
        taken before it and the first taken after it."""
        out = [1.0] * n
        k = 0  # index of the first sample taken after interval i
        last = len(self.costs) - 1
        for i in range(n):
            while k <= last and self.positions[k] <= i:
                k += 1
            before = self.costs[max(0, k - 1)]
            after = self.costs[min(k, last)]
            out[i] = 2.0 * NOMINAL_S / (before + after)
        return out
