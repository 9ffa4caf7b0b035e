"""Live workload monitoring for the adaptive loop (paper §5, closed online).

The design optimizer consumes a :class:`~repro.optimizer.workload.Workload`
— a weighted bag of (fieldlist, predicate, order) access templates. Offline,
a designer hand-writes that bag; online, every access-method call *is* a
template instance, so the :class:`WorkloadMonitor` materializes the workload
for free: each ``Table.scan`` / ``scan_batches`` / ``scan_column_batches``
call — the one read path — is folded into a pattern keyed by its access
shape, weighted with exponential decay so the model tracks workload
*shifts* (a pattern not seen for a while fades; yesterday's point-lookups
stop outvoting today's analytics).

Decay runs on a logical clock (one tick per observation), not wall time, so
the math is deterministic and testable: observing a pattern at tick ``t``
updates its weight to ``w * decay**(t - last_tick) + 1``. The monitor also
keeps per-pattern result cardinalities and planner estimation feedback
(actual vs estimated rows per scan), which the adaptivity report exposes.

State is plain data — patterns carry only field names, numeric ranges, order
keys, and weights — so the monitor serializes into the catalog JSON and
survives ``save_catalog`` / ``RodentStore.open``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.optimizer.workload import Query, Workload
from repro.query.expressions import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.expressions import Predicate

#: Default per-observation decay: a pattern keeps ~36% of its weight after
#: 100 intervening observations, so a few hundred queries of a new shape
#: dominate the model.
DEFAULT_DECAY = 0.99

#: Patterns whose decayed weight falls below this are dropped on compaction.
MIN_PATTERN_WEIGHT = 0.01

#: Cap on distinct live patterns (highly parameterized workloads collapse
#: into their range-shape; this bounds the rest).
MAX_PATTERNS = 256


Signature = tuple


def access_signature(
    fieldlist: Sequence[str] | None,
    predicate: "Predicate | None",
    order: Sequence[tuple[str, bool]] | None,
) -> tuple[Signature, dict[str, tuple[float, float]], tuple[str, ...]]:
    """(pattern key, predicate ranges, extra predicate fields) of one scan.

    Two scans share a pattern when they project the same fields, constrain
    the same fields (regardless of the constants — a parameterized query
    template), and request the same order. The concrete ranges are kept
    separately so the pattern can remember a representative predicate.
    """
    fields_key = tuple(fieldlist) if fieldlist is not None else None
    ranges = predicate.ranges() if predicate is not None else {}
    used = predicate.fields_used() if predicate is not None else set()
    extra = tuple(sorted(used - set(ranges)))
    order_key = tuple((n, bool(a)) for n, a in order) if order else ()
    return (fields_key, tuple(sorted(ranges)), extra, order_key), ranges, extra


@dataclass
class AccessPattern:
    """One observed access shape with decayed weight and running ranges."""

    fieldlist: tuple[str, ...] | None
    #: The running *envelope* (union) of observed per-field bounds — what
    #: the adaptivity report shows, and the safe "fields this template
    #: constrains" summary.
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: The most recent observation's concrete bounds — the representative
    #: *instance* of the template. Design costing uses this: a
    #: parameterized template's envelope widens toward the whole domain
    #: (selectivity → 1), which would hide every range-friendly design,
    #: while one representative instance keeps the template's true width.
    recent_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Predicate fields with no usable range (residual conditions).
    extra_fields: tuple[str, ...] = ()
    order: tuple[tuple[str, bool], ...] = ()
    weight: float = 0.0
    last_tick: int = 0
    observations: int = 0
    #: Decayed mean of observed result cardinalities (None until seen).
    avg_rows: float | None = None

    def decayed_weight(self, now: int, decay: float) -> float:
        return self.weight * decay ** (now - self.last_tick)

    def observe(
        self,
        now: int,
        decay: float,
        ranges: dict[str, tuple[float, float]],
    ) -> None:
        self.weight = self.decayed_weight(now, decay) + 1.0
        self.last_tick = now
        self.observations += 1
        self.recent_ranges = dict(ranges)
        for name, (lo, hi) in ranges.items():
            if name in self.ranges:
                old_lo, old_hi = self.ranges[name]
                self.ranges[name] = (min(old_lo, lo), max(old_hi, hi))
            else:
                self.ranges[name] = (lo, hi)

    def record_rows(self, rows: int) -> None:
        if self.avg_rows is None:
            self.avg_rows = float(rows)
        else:  # decayed running mean, biased to recent executions
            self.avg_rows = 0.8 * self.avg_rows + 0.2 * rows

    def to_query(self, name: str, weight: float) -> Query:
        """Materialize this pattern as an advisor workload query: the most
        recent instance of the template, at the pattern's decayed weight."""
        representative = self.recent_ranges or self.ranges
        # A contradictory conjunction observes an *empty* interval
        # (lo > hi); Rect cannot express "matches nothing", so such fields
        # degrade to touched-but-unbounded — conservative for costing.
        bounds = {
            n: (lo, hi) for n, (lo, hi) in representative.items() if lo <= hi
        }
        predicate = Rect(bounds) if bounds else None
        touched_unbounded = tuple(
            n for n in self.ranges if n not in bounds
        ) + self.extra_fields
        fieldlist = self.fieldlist
        if fieldlist is not None and touched_unbounded:
            # Residual-only predicate fields still force those columns to
            # be read; fold them into the projection for costing.
            base = list(fieldlist)
            for extra in touched_unbounded:
                if extra not in base:
                    base.append(extra)
            fieldlist = tuple(base)
        return Query(
            name=name,
            fieldlist=fieldlist,
            predicate=predicate,
            order=self.order,
            weight=weight,
        )


@dataclass
class EstimationFeedback:
    """Planner cardinality accuracy: decayed mean q-error of scan estimates."""

    samples: int = 0
    mean_q_error: float = 1.0

    def record(self, estimated: float, actual: float) -> None:
        est = max(1.0, float(estimated))
        act = max(1.0, float(actual))
        q_error = max(est / act, act / est)
        self.samples += 1
        if self.samples == 1:
            self.mean_q_error = q_error
        else:
            self.mean_q_error = 0.9 * self.mean_q_error + 0.1 * q_error


class WorkloadMonitor:
    """Record access-method calls for one table; emit a decayed Workload."""

    def __init__(self, table: str, decay: float = DEFAULT_DECAY):
        self.table = table
        self.decay = decay
        self.ticks = 0
        self.patterns: dict[Signature, AccessPattern] = {}
        self.feedback = EstimationFeedback()
        #: Per-partition access skew: pid -> [decayed weight, last tick].
        #: A partition's weight rises by 1 whenever a scan actually reads
        #: it (pruned partitions don't count) and decays on the same
        #: logical clock as the access patterns — so "hot" tracks the
        #: *recent* skew, not lifetime totals.
        self.partition_hits: dict[int, list[float]] = {}

    # -- observation -------------------------------------------------------

    def observe(
        self,
        fieldlist: Sequence[str] | None,
        predicate: "Predicate | None",
        order: Sequence[tuple[str, bool]] | None,
    ) -> Signature:
        """Fold one access-method call into the model; returns its key."""
        key, ranges, extra = access_signature(fieldlist, predicate, order)
        self.ticks += 1
        pattern = self.patterns.get(key)
        created = pattern is None
        if created:
            fields_key, _, _, order_key = key
            pattern = AccessPattern(
                fieldlist=fields_key, extra_fields=extra, order=order_key
            )
            self.patterns[key] = pattern
        pattern.observe(self.ticks, self.decay, ranges)
        if created and len(self.patterns) > MAX_PATTERNS:
            self.compact()  # after observe: the new pattern has weight 1
        return key

    def observe_partitions(self, pids: Sequence[int]) -> None:
        """Record which partitions a scan actually read (post-pruning)."""
        now = self.ticks
        decay = self.decay
        for pid in pids:
            slot = self.partition_hits.get(pid)
            if slot is None:
                self.partition_hits[pid] = [1.0, now]
            else:
                weight, last = slot
                slot[0] = weight * decay ** (now - last) + 1.0
                slot[1] = now

    def partition_weights(self) -> dict[int, float]:
        """Current decayed access weight per partition id."""
        now = self.ticks
        decay = self.decay
        return {
            pid: weight * decay ** (now - last)
            for pid, (weight, last) in self.partition_hits.items()
        }

    def forget_partitions(self, live_pids: Sequence[int]) -> None:
        """Drop skew entries for partitions that no longer exist (after a
        whole-table re-layout re-creates the partition map)."""
        live = set(live_pids)
        self.partition_hits = {
            pid: slot
            for pid, slot in self.partition_hits.items()
            if pid in live
        }

    def record_result(self, key: Signature, rows: int) -> None:
        """Record the actual result cardinality of a completed scan."""
        pattern = self.patterns.get(key)
        if pattern is not None:
            pattern.record_rows(rows)

    def record_estimate(self, estimated: float, actual: float) -> None:
        """Planner feedback: estimated vs actual rows of one scan node."""
        self.feedback.record(estimated, actual)

    # -- maintenance -------------------------------------------------------

    def compact(self) -> None:
        """Drop faded patterns, then hard-cap the survivors.

        Weight pruning alone does not bound the table (a once-seen pattern
        stays above the floor for hundreds of ticks), so when an
        adversarially varied workload outpaces decay the lowest-weight
        patterns are evicted down to :data:`MAX_PATTERNS`.
        """
        now = self.ticks
        self.patterns = {
            key: p
            for key, p in self.patterns.items()
            if p.decayed_weight(now, self.decay) >= MIN_PATTERN_WEIGHT
        }
        if len(self.patterns) > MAX_PATTERNS:
            ranked = sorted(
                self.patterns.items(),
                key=lambda kv: -kv[1].decayed_weight(now, self.decay),
            )
            self.patterns = dict(ranked[:MAX_PATTERNS])

    def clear(self) -> None:
        self.patterns.clear()
        self.ticks = 0

    @property
    def total_observations(self) -> int:
        return sum(p.observations for p in self.patterns.values())

    def total_weight(self) -> float:
        now = self.ticks
        return sum(
            p.decayed_weight(now, self.decay) for p in self.patterns.values()
        )

    # -- workload materialization -----------------------------------------

    def to_workload(self, min_weight: float = MIN_PATTERN_WEIGHT) -> Workload:
        """The observed workload as the advisor's input model.

        Weights are the patterns' decayed weights at the current tick, so a
        shifted workload is dominated by its recent shape.
        """
        workload = Workload(self.table)
        now = self.ticks
        ranked = sorted(
            self.patterns.values(),
            key=lambda p: -p.decayed_weight(now, self.decay),
        )
        for i, pattern in enumerate(ranked):
            weight = pattern.decayed_weight(now, self.decay)
            if weight < min_weight:
                continue
            workload.add(pattern.to_query(f"observed{i}", weight))
        return workload

    # -- reporting / persistence -------------------------------------------

    def report(self) -> dict:
        now = self.ticks
        top = sorted(
            self.patterns.values(),
            key=lambda p: -p.decayed_weight(now, self.decay),
        )[:5]
        partition_skew = {
            pid: round(weight, 3)
            for pid, weight in sorted(
                self.partition_weights().items(),
                key=lambda kv: -kv[1],
            )[:8]
        }
        return {
            "observations": self.ticks,
            "live_patterns": len(self.patterns),
            "total_weight": round(self.total_weight(), 3),
            "estimate_q_error": round(self.feedback.mean_q_error, 3),
            "estimate_samples": self.feedback.samples,
            "partition_skew": partition_skew,
            "top_patterns": [
                {
                    "fieldlist": list(p.fieldlist)
                    if p.fieldlist is not None
                    else None,
                    "ranged_fields": sorted(p.ranges),
                    "order": [list(k) for k in p.order],
                    "weight": round(p.decayed_weight(now, self.decay), 3),
                    "avg_rows": round(p.avg_rows, 1)
                    if p.avg_rows is not None
                    else None,
                }
                for p in top
            ],
        }

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "decay": self.decay,
            "ticks": self.ticks,
            "feedback": [self.feedback.samples, self.feedback.mean_q_error],
            "partition_hits": {
                str(pid): [weight, last]
                for pid, (weight, last) in self.partition_hits.items()
            },
            "patterns": [
                {
                    "fieldlist": list(p.fieldlist)
                    if p.fieldlist is not None
                    else None,
                    "ranges": {
                        name: [lo, hi] for name, (lo, hi) in p.ranges.items()
                    },
                    "recent_ranges": {
                        name: [lo, hi]
                        for name, (lo, hi) in p.recent_ranges.items()
                    },
                    "extra_fields": list(p.extra_fields),
                    "order": [[n, a] for n, a in p.order],
                    "weight": p.weight,
                    "last_tick": p.last_tick,
                    "observations": p.observations,
                    "avg_rows": p.avg_rows,
                }
                for p in self.patterns.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadMonitor":
        monitor = cls(data["table"], decay=data.get("decay", DEFAULT_DECAY))
        monitor.ticks = data.get("ticks", 0)
        samples, q_error = data.get("feedback", [0, 1.0])
        monitor.feedback = EstimationFeedback(samples, q_error)
        monitor.partition_hits = {
            int(pid): [float(weight), int(last)]
            for pid, (weight, last) in data.get(
                "partition_hits", {}
            ).items()
        }
        for p in data.get("patterns", []):
            fieldlist = (
                tuple(p["fieldlist"]) if p["fieldlist"] is not None else None
            )
            pattern = AccessPattern(
                fieldlist=fieldlist,
                ranges={
                    name: (lo, hi)
                    for name, (lo, hi) in p.get("ranges", {}).items()
                },
                recent_ranges={
                    name: (lo, hi)
                    for name, (lo, hi) in p.get("recent_ranges", {}).items()
                },
                extra_fields=tuple(p.get("extra_fields", [])),
                order=tuple(
                    (n, bool(a)) for n, a in p.get("order", [])
                ),
                weight=p["weight"],
                last_tick=p["last_tick"],
                observations=p["observations"],
                avg_rows=p.get("avg_rows"),
            )
            key = (
                pattern.fieldlist,
                tuple(sorted(pattern.ranges)),
                pattern.extra_fields,
                pattern.order,
            )
            monitor.patterns[key] = pattern
        return monitor
