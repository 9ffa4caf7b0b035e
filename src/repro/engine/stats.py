"""Table statistics for selectivity estimation.

The storage design optimizer costs candidate layouts without materializing
them; it needs per-field minima/maxima, distinct-value estimates, and a
small equi-width histogram to translate query predicates into expected
record/cell counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Sequence

from repro.types.schema import Schema

_HISTOGRAM_BUCKETS = 32


@dataclass
class FieldStats:
    """Statistics of one (numeric or string) field.

    Bounds and the histogram cover finite values only: NaN and ±inf are
    counted (``count``, ``distinct``) but never bound a range.
    """

    name: str
    count: int = 0
    nulls: int = 0
    min_value: Any = None
    max_value: Any = None
    distinct: int = 0
    histogram: list[int] = field(default_factory=list)  # numeric only
    avg_width: float = 0.0
    # Derived from ``histogram`` (never persisted): bucket lower edges and
    # the running count of rows below each edge, so a range is two bisects.
    _edges: list[float] = field(
        init=False, default_factory=list, repr=False, compare=False
    )
    _below: list[int] = field(
        init=False, default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._index_histogram()

    def _index_histogram(self) -> None:
        """(Re)derive the bucket edges and cumulative counts."""
        self._edges, self._below = [], []
        if self.histogram and self.is_numeric:
            lo, hi = float(self.min_value), float(self.max_value)
            n = len(self.histogram)
            width = (hi - lo) / n
            if width > 0:
                self._edges = [lo + i * width for i in range(n)]
                self._below = list(accumulate(self.histogram, initial=0))

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.min_value, (int, float)) and not isinstance(
            self.min_value, bool
        )

    def selectivity(self, lo: float, hi: float) -> float:
        """Estimated fraction of records with value in [lo, hi].

        A point range ``[v, v]`` inside the domain is System R's equality
        rule, ``1 / distinct``. On an integer column (``int`` /
        ``timestamp``) any other range counts the integer points it holds,
        each one unit wide (``[lo − ½, hi + ½]``), so a range holding rows
        is never 0. The rest is the histogram's mass between the two ends,
        interpolated inside the end buckets.
        """
        if self.count == 0 or not self.is_numeric:
            return 1.0
        span_lo, span_hi = float(self.min_value), float(self.max_value)
        if span_hi <= span_lo:
            return 1.0 if lo <= span_lo <= hi else 0.0
        integral = type(self.min_value) is int  # int / timestamp columns
        if integral:
            lo = math.ceil(lo) if math.isfinite(lo) else lo
            hi = math.floor(hi) if math.isfinite(hi) else hi
        if lo == hi:
            if span_lo <= lo <= span_hi:
                return 1.0 / max(1, self.distinct)
            return 0.0
        if integral:
            lo, hi = lo - 0.5, hi + 0.5
        lo, hi = max(lo, span_lo), min(hi, span_hi)
        if hi <= lo:
            return 0.0
        edges, below, histogram = self._edges, self._below, self.histogram
        if not below:
            return min(1.0, (hi - lo) / (span_hi - span_lo))
        if below[-1] == 0:
            return 1.0
        width = (span_hi - span_lo) / len(histogram)

        def rows_below(x: float) -> float:
            # Each bucket's rows spread evenly across its width. Width and
            # edges round (badly on a subnormal span): the top end is exact
            # and a share stops at 1 (a NaN stays NaN), so counts only grow.
            if x >= span_hi:
                return below[-1]
            i = bisect_right(edges, x) - 1
            return below[i] + histogram[i] * min((x - edges[i]) / width, 1.0)

        return min(1.0, (rows_below(hi) - rows_below(lo)) / below[-1])


@dataclass
class TableStats:
    """Statistics over a whole table."""

    row_count: int
    fields: dict[str, FieldStats]
    avg_record_width: float

    @classmethod
    def collect(
        cls, schema: Schema, records: Sequence[Sequence[Any]]
    ) -> "TableStats":
        """Single pass over ``records`` computing all field statistics."""
        field_stats = {f.name: FieldStats(f.name) for f in schema.fields}
        distincts: dict[str, set] = {f.name: set() for f in schema.fields}
        numeric_values: dict[str, list[float]] = {
            f.name: [] for f in schema.fields
        }
        total_width = 0
        for record in records:
            total_width += schema.estimated_record_size(record)
            for f, value in zip(schema.fields, record):
                stats = field_stats[f.name]
                stats.count += 1
                if value is None:
                    stats.nulls += 1
                    continue
                if len(distincts[f.name]) < 100_000:
                    distincts[f.name].add(value)
                stats.avg_width += f.dtype.estimated_size(value)
                if isinstance(value, float) and not math.isfinite(value):
                    continue  # NaN / ±inf bound nothing
                if stats.min_value is None or value < stats.min_value:
                    stats.min_value = value
                if stats.max_value is None or value > stats.max_value:
                    stats.max_value = value
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    numeric_values[f.name].append(float(value))

        for name, stats in field_stats.items():
            stats.distinct = len(distincts[name])
            if stats.count:
                stats.avg_width /= stats.count
            values = numeric_values[name]
            if values and stats.min_value != stats.max_value:
                stats.histogram = _build_histogram(
                    values, float(stats.min_value), float(stats.max_value)
                )
                stats._index_histogram()
        n = len(records)
        return cls(
            row_count=n,
            fields=field_stats,
            avg_record_width=(total_width / n) if n else 0.0,
        )

    def field(self, name: str) -> FieldStats:
        return self.fields[name]

    def predicate_selectivity(
        self, ranges: dict[str, tuple[float, float]]
    ) -> float:
        """Independence-assumption selectivity of conjunctive ranges."""
        selectivity = 1.0
        for name, (lo, hi) in ranges.items():
            stats = self.fields.get(name)
            if stats is not None:
                selectivity *= stats.selectivity(lo, hi)
        return selectivity


def zone_survival_fraction(selectivity: float, rows_per_zone: float) -> float:
    """Expected fraction of zones a pruned scan must still read.

    A zone (page, column chunk, grid cell) survives zone-map pruning when
    at least one of its rows matches; under the textbook
    random-placement assumption that is ``1 - (1 - s)^r`` for selectivity
    ``s`` and ``r`` rows per zone. Real layouts are usually *clustered* on
    the predicate field, which prunes far better — so this is an upper
    bound, which is the safe direction for a cost model. Loaded tables
    report exact counts from their synopses instead
    (:meth:`repro.engine.table.Table.pruned_pages`); this function serves
    the design-time estimator, which costs layouts that do not exist yet.
    """
    s = min(1.0, max(0.0, selectivity))
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    r = max(1.0, rows_per_zone)
    return min(1.0, 1.0 - (1.0 - s) ** r)


def join_cardinality(
    left_rows: float,
    right_rows: float,
    key_stats: Sequence[tuple["FieldStats | None", "FieldStats | None"]],
) -> float:
    """Textbook equi-join cardinality estimate.

    ``|L ⋈ R| ≈ |L| · |R| / Π max(V(L, k_l), V(R, k_r))`` over the join-key
    pairs; ``key_stats`` carries each pair's :class:`FieldStats` (either
    side ``None`` when unknown — the left side of a multi-way join mixes
    several tables, so stats are resolved per key, not per table). A pair
    with no distinct-value information on either side contributes no
    reduction (a conservative upper bound). The query planner uses this to
    order joins and to pick hash-build sides.
    """
    cardinality = float(left_rows) * float(right_rows)
    for left_field, right_field in key_stats:
        distinct = 1
        if left_field is not None:
            distinct = max(distinct, left_field.distinct)
        if right_field is not None:
            distinct = max(distinct, right_field.distinct)
        cardinality /= max(1, distinct)
    return cardinality


def _build_histogram(
    values: Sequence[float], lo: float, hi: float
) -> list[int]:
    buckets = [0] * _HISTOGRAM_BUCKETS
    width = (hi - lo) / _HISTOGRAM_BUCKETS
    if width <= 0:
        return []
    for v in values:
        index = min(int((v - lo) / width), _HISTOGRAM_BUCKETS - 1)
        buckets[index] += 1
    return buckets
