"""Columnar min/max synopses (zone maps) and the pruning decisions they drive.

A *zone* is the natural storage unit of a layout — a slotted row page, one
codec-encoded column chunk, a grid cell, a folded record's nested vectors, an
array page. At render time the :class:`~repro.layout.renderer.LayoutRenderer`
summarizes each collection of zones into one :class:`ZoneTable` — a struct
of arrays: a row-count vector plus, per field, ``mins`` / ``maxs`` /
``null_counts`` vectors, all parallel to the layout's own directory — and
attaches them to the :class:`~repro.layout.renderer.StoredLayout` as a
:class:`LayoutSynopsis`. Bounds come from one min and one max reduction per
value vector (:func:`repro.vector.min_max_nulls`).

At scan time, :mod:`repro.engine.table` extracts per-field intervals from the
query predicate (:func:`predicate_intervals`, built on
:meth:`repro.query.expressions.Predicate.ranges` — *necessary* conditions
only, so pruning can never drop a matching record) and
:func:`repro.engine.access.open_run` checks them **before** any page is
fetched or decoded. First against the run's bound — per field, the min and
max over all its zones (:meth:`LayoutSynopsis.run_bounds`), derived once
where the layout is built: a run whose bound misses an interval
(:func:`bounds_miss`) is decided empty without walking a single zone. The
same bound answers "can this run hold that key?" (:func:`may_hold`). A run
that survives intersects the intervals against a whole collection in one
vector pass (:meth:`ZoneTable.keep_mask`):

* row / array layouts — a per-page *skip set* (:func:`rows_page_skip`);
* column layouts — surviving *row intervals* shared by every scanned group
  (:func:`column_keep_intervals`), so groups with different chunk geometries
  stay positionally aligned while pruned chunks are never read;
* grid / folded layouts — per-cell / per-record keep masks
  (:func:`directory_keep`) that refine the existing
  cell-directory and key-range pruning with min/max over *all* fields;
* pending buffers — a one-zone table kept current by merging each batch's
  bounds into the running ones (:meth:`ZoneTable.merge`).

The same metadata answers the planner's question "how many pages will this
scan skip?" exactly and without I/O (:func:`column_pruned_pages`, the skip
sets' sizes), which is what ``Q.explain()`` reports as ``pages_pruned``.

Pruning is always conservative: zones whose min/max are unknown (non-numeric
or bool against numeric bounds, or fields excluded because they are stored
delta-encoded) are kept; only empty and all-null zones are always skipped.
A run bound is as conservative: a field with such a zone, or with a NaN
bound, gets none, and bounds are compared as Python scalars, exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro import vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.layout.renderer import StoredLayout
    from repro.query.expressions import Predicate

Intervals = Mapping[str, tuple[float, float]]


class ZoneColumn:
    """One field's bounds over the zones of a collection (parallel vectors).

    ``mins[i]`` / ``maxs[i]`` are ``None`` for a zone without a non-null
    value of the field; ``null_counts[i]`` counts its nulls.
    """

    __slots__ = ("mins", "maxs", "null_counts")

    def __init__(self, mins=None, maxs=None, null_counts=None):
        self.mins = [] if mins is None else mins
        self.maxs = [] if maxs is None else maxs
        self.null_counts = [] if null_counts is None else null_counts


class ZoneTable:
    """Zone maps of one collection as a struct of arrays.

    ``row_counts[i]`` rows live in zone ``i``; ``fields[name]`` holds that
    field's :class:`ZoneColumn`. A field absent from ``fields`` is not
    summarized (stored delta-encoded) and never prunes.
    """

    __slots__ = ("row_counts", "fields")

    def __init__(self, row_counts=None, fields=None):
        self.row_counts = [] if row_counts is None else row_counts
        self.fields: dict[str, ZoneColumn] = {} if fields is None else fields

    def __len__(self) -> int:
        return len(self.row_counts)

    # -- construction ------------------------------------------------------

    def add(
        self,
        row_count: int,
        names: Iterable[str],
        columns: Iterable[Sequence[Any]],
        skip_fields: Sequence[str] = (),
    ) -> None:
        """Append one zone summarizing parallel value vectors (one per
        field; they may differ in length — folded records pair one key value
        with whole nested vectors).

        ``skip_fields`` are recorded only in the row count — used for fields
        whose stored values differ from their logical values (delta
        encoding), where min/max over stored bytes would prune incorrectly.
        """
        self.row_counts.append(row_count)
        for name, values in zip(names, columns):
            if name in skip_fields:
                continue
            column = self.fields.get(name)
            if column is None:
                column = self.fields[name] = ZoneColumn()
            low, high, nulls = vector.min_max_nulls(values)
            column.mins.append(low)
            column.maxs.append(high)
            column.null_counts.append(nulls)

    def add_segments(
        self,
        counts: Sequence[int],
        names: Iterable[str],
        columns: Iterable[Sequence[Any]],
        skip_fields: Sequence[str] = (),
    ) -> None:
        """Append one zone per segment of parallel value vectors (segments
        of ``counts`` rows, back to back) — :meth:`add` of each segment,
        each field's bounds in one :func:`repro.vector.segment_bounds`."""
        self.row_counts.extend(counts)
        if not counts:
            return
        for name, values in zip(names, columns):
            if name not in skip_fields:
                self.add_bounds(name, *vector.segment_bounds(values, counts))

    def add_bounds(self, name: str, mins, maxs, null_counts) -> None:
        """Append ``name``'s bounds for zones whose row counts are (or are
        about to be) appended."""
        column = self.fields.get(name)
        if column is None:
            column = self.fields[name] = ZoneColumn()
        column.mins.extend(mins)
        column.maxs.extend(maxs)
        column.null_counts.extend(null_counts)

    def merge(
        self, row_count: int, names: Sequence[str], columns: Sequence[Sequence[Any]]
    ) -> None:
        """Fold rows, given as parallel value vectors, into the single
        running zone of a pending buffer: each column is reduced once and
        folded into the zone's bounds — O(batch). The bounds equal one
        reduction over all the rows: NaN only while every value was."""
        if not self.row_counts:
            self.add(row_count, names, columns)
            return
        self.row_counts[0] += row_count
        for name, values in zip(names, columns):
            column = self.fields[name]
            low, high, nulls = vector.min_max_nulls(values)
            column.null_counts[0] += nulls
            old = column.mins[0]
            if low is None or (old is not None and low != low):
                continue  # nothing to fold in: nulls, or NaN beside bounds
            if old is None or old != old:
                column.mins[0], column.maxs[0] = low, high
            else:
                column.mins[0] = min(old, low)
                column.maxs[0] = max(column.maxs[0], high)

    def pack(self) -> "ZoneTable":
        """Freeze a finished table into typed vectors (no more ``add``)."""
        self.row_counts = vector.pack(self.row_counts)
        for column in self.fields.values():
            column.mins = vector.pack(column.mins)
            column.maxs = vector.pack(column.maxs)
        return self

    def shape_error(self, expected: int) -> str | None:
        """Why these vectors are not parallel to ``expected`` directory
        entries, or ``None``. Pruning indexes zones positionally, so a
        short or long vector would silently drop rows."""
        vectors = [self.row_counts]
        for column in self.fields.values():
            vectors += [column.mins, column.maxs, column.null_counts]
        lengths = sorted({len(v) for v in vectors})
        if lengths != [expected]:
            return f"vectors of {lengths} entries for {expected} zones"
        return None

    # -- the pruning kernel ------------------------------------------------

    def keep_mask(self, intervals: Intervals):
        """Selection mask over the zones: false only where *no* row of the
        zone can satisfy the intervals."""
        keep = vector.nonzero_mask(self.row_counts)
        for name, (lo, hi) in intervals.items():
            column = self.fields.get(name)
            if column is None:
                continue  # field not summarized here (e.g. delta-encoded)
            mins, maxs = column.mins, column.maxs
            keep = vector.mask_and_not(
                keep, vector.disjoint_mask(mins, maxs, lo, hi)
            )
            if not (vector.is_typed(mins) and vector.is_typed(maxs)):
                # Only untyped vectors can hold None: no non-null value,
                # and a range predicate cannot match nulls.
                all_null = [
                    (low is None or high is None) and nulls >= rows
                    for low, high, nulls, rows in zip(
                        mins,
                        maxs,
                        column.null_counts,
                        vector.to_list(self.row_counts),
                    )
                ]
                keep = vector.mask_and_not(keep, all_null)
        return keep

    def pruned_indexes(self, intervals: Intervals) -> list[int]:
        """Positions of the zones :meth:`keep_mask` rules out."""
        return vector.mask_indexes(
            vector.mask_and_not(None, self.keep_mask(intervals))
        )

    def may_match(self, intervals: Intervals) -> bool:
        """Can any zone hold a matching row? (pending buffers: one zone)"""
        return vector.mask_count(self.keep_mask(intervals)) > 0


@dataclass
class LayoutSynopsis:
    """All zone maps of one stored layout, keyed by the layout's geometry.

    Exactly one of the collections is populated per layout kind; each table
    is parallel to the layout's own directory (``extent.page_ids``,
    ``ColumnGroupStore.chunks`` / group pages, ``cell_directory``,
    ``folded_directory``).
    """

    page_zones: ZoneTable = field(default_factory=ZoneTable)
    group_zones: list[ZoneTable] = field(default_factory=list)
    cell_zones: ZoneTable = field(default_factory=ZoneTable)
    folded_zones: ZoneTable = field(default_factory=ZoneTable)

    def run_bounds(self) -> dict[str, tuple[Any, Any]]:
        """The run bound: per summarized field, ``(min, max)`` over every
        zone as Python scalars; ``(inf, -inf)``, which every interval
        misses, where each zone is one :meth:`ZoneTable.keep_mask` always
        drops (empty or all-null). A field with a zone bound that is not an
        int or float (``None`` beside non-null rows, a string, a bool) or
        is NaN gets none. A zone's bounds skip a NaN beside other values
        (:func:`repro.vector.min_max_nulls`), so they are NaN only where
        every value is; such a field keeps no run bound, conservatively."""
        ends: dict[str, list[tuple[Any, Any]]] = {}
        for zones in (self.page_zones, self.cell_zones, self.folded_zones,
                      *self.group_zones):
            rows = vector.to_list(zones.row_counts)
            for name, column in zones.fields.items():
                ends.setdefault(name, []).extend(
                    (low, high)
                    for low, high, nulls, count in zip(
                        vector.to_list(column.mins),
                        vector.to_list(column.maxs),
                        column.null_counts,
                        rows,
                    )
                    if count
                    and not ((low is None or high is None) and nulls >= count)
                )
        return {
            name: (
                min((low for low, _ in pairs), default=float("inf")),
                max((high for _, high in pairs), default=float("-inf")),
            )
            for name, pairs in ends.items()
            if all(
                type(v) in (int, float) and v == v
                for pair in pairs for v in pair
            )
        }


def bounds_miss(
    bounds: Mapping[str, tuple[Any, Any]], intervals: Intervals
) -> bool:
    """Is some interval disjoint from a run's bound on its field (so no row
    of the run can match)? Exact: Python scalars on both sides."""
    for name, (lo, hi) in intervals.items():
        bound = bounds.get(name)
        if bound is not None and (bound[1] < lo or bound[0] > hi):
            return True
    return False


def may_hold(layout: "StoredLayout", name: str, value: Any) -> bool:
    """Can a row of ``layout`` hold ``value`` in field ``name``, by its run
    bound? Conservative: true where the field has no bound or the value is
    not a comparable number."""
    bound = layout.run_bounds.get(name)
    if bound is None or type(value) not in (int, float) or value != value:
        return True
    return bound[0] <= value <= bound[1]


def predicate_intervals(
    predicate: "Predicate | None",
) -> dict[str, tuple[float, float]]:
    """Bounded per-field intervals a predicate implies (prunable fields).

    Delegates to :meth:`Predicate.ranges` — whose contract already
    guarantees necessary conditions — and drops fully unbounded entries.
    """
    if predicate is None:
        return {}
    out: dict[str, tuple[float, float]] = {}
    for name, (lo, hi) in predicate.ranges().items():
        if lo == float("-inf") and hi == float("inf"):
            continue
        out[name] = (lo, hi)
    return out


# ---------------------------------------------------------------------------
# per-layout pruning decisions (metadata only, no I/O)
# ---------------------------------------------------------------------------


def rows_page_skip(
    layout: "StoredLayout", intervals: Intervals
) -> set[int] | None:
    """Page indexes (positions in the extent) a rows/array scan can skip."""
    synopsis = layout.synopsis
    if synopsis is None or not synopsis.page_zones or not intervals:
        return None
    return set(synopsis.page_zones.pruned_indexes(intervals)) or None


def group_chunk_rows(layout: "StoredLayout", group_index: int) -> list[int]:
    """Row count per chunk (single-field) or per page (mini-record group,
    from its zone table)."""
    store = layout.column_groups[group_index]
    if len(store.fields) == 1:
        return [rows for _, rows in store.chunks]
    assert layout.synopsis is not None
    return vector.to_list(layout.synopsis.group_zones[group_index].row_counts)


def column_keep_intervals(
    layout: "StoredLayout",
    group_indexes: Sequence[int],
    intervals: Intervals,
) -> list[tuple[int, int]] | None:
    """Surviving row intervals after chunk-zone pruning, or ``None``.

    A row survives only if no scanned group's covering chunk rules it out,
    so the pruned ranges of *all* groups union before complementing —
    pruning in one group skips the aligned rows (and often whole chunks)
    of every other group. ``None`` means pruning does not apply (no
    synopsis, or nothing pruned); an empty list means nothing survives.
    """
    synopsis = layout.synopsis
    if synopsis is None or not synopsis.group_zones or not intervals:
        return None
    pruned: list[tuple[int, int]] = []
    for gi in group_indexes:
        zones = synopsis.group_zones[gi]
        indexes = zones.pruned_indexes(intervals)
        if indexes:
            rows = vector.to_list(zones.row_counts)
            ends = list(accumulate(rows))
            pruned.extend(
                (ends[i] - rows[i], ends[i]) for i in indexes if rows[i]
            )
    if not pruned:
        return None
    return _complement(_merge_intervals(pruned), layout.row_count)


def _merge_intervals(
    intervals: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    intervals = sorted(intervals)
    merged: list[tuple[int, int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _complement(
    merged: list[tuple[int, int]], total: int
) -> list[tuple[int, int]]:
    keep: list[tuple[int, int]] = []
    cursor = 0
    for lo, hi in merged:
        if lo > cursor:
            keep.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < total:
        keep.append((cursor, total))
    return keep


def _overlaps_keep(
    keep: Sequence[tuple[int, int]], start: int, end: int
) -> bool:
    """Does chunk row range [start, end) intersect any kept interval?"""
    i = bisect_right(keep, (start, float("inf"))) - 1
    if i >= 0 and keep[i][1] > start:
        return True
    i += 1
    return i < len(keep) and keep[i][0] < end


def column_pruned_pages(
    layout: "StoredLayout",
    group_indexes: Sequence[int],
    keep: Sequence[tuple[int, int]],
) -> int:
    """Pages a pruned column scan will not fetch, given keep intervals."""
    skipped = 0
    for gi in group_indexes:
        start = 0
        for rows in group_chunk_rows(layout, gi):
            end = start + rows
            if rows and not _overlaps_keep(keep, start, end):
                skipped += 1
            start = end
    return skipped


def directory_keep(layout: "StoredLayout", intervals: Intervals):
    """Keep mask over a grid's cell directory or a fold's record directory
    (whichever the layout has), or ``None`` when not applicable."""
    synopsis = layout.synopsis
    if synopsis is None or not intervals:
        return None
    zones = synopsis.cell_zones or synopsis.folded_zones
    return zones.keep_mask(intervals) if zones else None
