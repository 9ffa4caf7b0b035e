"""Table statistics for selectivity estimation.

The storage design optimizer costs candidate layouts without materializing
them; it needs per-field minima/maxima, distinct-value estimates, and a
small equi-width histogram to translate query predicates into expected
record/cell counts.

Statistics are collected a column at a time. A load hands
:meth:`TableStats.from_columns` the coerced column vectors it already has;
the adaptive loop's refresh hands it the column vectors of a scan; and
each column is summarized by one call of :func:`repro.vector.column_stats`
— numpy reductions and bucket arithmetic for int and float columns,
Python's own ``set`` / ``min`` / ``max`` for the rest. The record-at-a-time
definition the result must equal bit for bit is ``collect_stats`` in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Sequence

from repro import vector
from repro.types.schema import Schema

_HISTOGRAM_BUCKETS = 32
#: Distinct values are counted exactly up to this many, then reported as it.
_DISTINCT_CAP = 100_000


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
        rule, ``1 / distinct``, and 0 outside it — on a string (or other
        non-numeric) field too, when ``v`` has the bounds' type. On an
        integer column (``int`` / ``timestamp``) any other range counts the
        integer points it holds, each one unit wide (``[lo − ½, hi + ½]``),
        so a range holding rows is never 0. The rest is the histogram's
        mass between the two ends, interpolated inside the end buckets. A
        non-point range over a non-numeric field is not estimated: 1.0.
        """
        if self.count == 0:
            return 1.0
        if not self.is_numeric:
            low, high = self.min_value, self.max_value
            if lo == hi and low is not None and type(lo) is type(low):
                return 1.0 / max(1, self.distinct) if low <= lo <= high else 0.0
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
        """Statistics of ``records``, row tuples in ``schema`` order."""
        records = records if isinstance(records, list) else list(records)
        if records:
            return cls.from_columns(schema, list(zip(*records)))
        return cls.from_columns(schema, [()] * len(schema.fields))

    @classmethod
    def from_columns(
        cls, schema: Schema, columns: Sequence[Sequence[Any]]
    ) -> "TableStats":
        """Statistics of a table given as one value vector per field.

        Each column is summarized once by :func:`repro.vector.column_stats`;
        the widths come from its non-null values (a fixed-size type's width
        times their number, one ``map`` of ``estimated_size`` otherwise)
        and, for ``avg_record_width``, from its nulls at
        ``estimated_size(None)``. ``avg_width`` divides by every row, nulls
        included.
        """
        row_count = len(columns[0])
        field_stats = {}
        total_width = 0
        for f, column in zip(schema.fields, columns):
            present, nulls, distinct, low, high, histogram = vector.column_stats(
                column, _HISTOGRAM_BUCKETS, _DISTINCT_CAP
            )
            size = f.dtype.fixed_size
            if size is not None:
                width = size * len(present)
            else:
                width = sum(map(f.dtype.estimated_size, present))
            total_width += width + nulls * f.dtype.estimated_size(None)
            field_stats[f.name] = FieldStats(
                f.name,
                count=row_count,
                nulls=nulls,
                min_value=low,
                max_value=high,
                distinct=distinct,
                histogram=histogram,
                avg_width=width / row_count if row_count else 0.0,
            )
        return cls(
            row_count=row_count,
            fields=field_stats,
            avg_record_width=total_width / row_count if row_count else 0.0,
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

