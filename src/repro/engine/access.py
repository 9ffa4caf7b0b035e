"""One access decision per run: what a predicate leaves of it, decided once.

The paper's access-method API (§4.1) pairs every ``scan`` with a
``scan_cost`` describing the same physical read. :func:`open_run` is that
pairing for one stored run: it intersects the predicate with the run's own
synopses — its run bound first, then page zone maps, chunk zone maps, the
cell directory, the folded keys — **once**, and returns a
:class:`RunAccess` holding the verdict. The reader
(:meth:`RunAccess.batches`), the cost (:meth:`RunAccess.cost`) and the
page counts ``explain()`` prints (:attr:`RunAccess.pruned`) are all views of
that one value, so they cannot disagree.

There are seven accesses: six layout kinds (``rows`` — with its sorted-range
probe and its delta variant — ``columns``, ``grid``, ``folded``, ``array``,
and ``mirror``, which is the cheapest of its replicas' accesses) dispatched
by :func:`open_run`, and the probe of one of the run's secondary indexes
(:func:`_open_probe`), which :func:`open_run` takes first where one is
selective enough. :class:`~repro.engine.table.Table` only walks regions ×
runs over them.

A scan node is decided **once per query**: :func:`decide_scan` makes one
:class:`TableAccess` (the surviving regions with every run's
``RunAccess``) that the planner prices, then carries on the
``TableScanOp`` to the scan, which reads through it. Staleness is by
identity: runs are immutable, so a carried ``RunAccess`` is read only while
the scan's pinned snapshot still holds that very ``Run`` — a probe only
while the run still holds its index; anything else (a run a flush, seal,
merge or re-layout added, a ``zone_pruning`` flip) is opened at scan time.

The verdict is computed eagerly — a scan needs it before its first batch —
while ``pages`` / ``seeks`` / ``pruned`` are page arithmetic computed when
asked, so a scan never pays for numbers only the planner reads. Empty
``intervals`` mean "no zone map is consulted" (``store.zone_pruning =
False``); cell-bound, folded-key and sorted-range pruning need no zone map
and always apply. Correctness is checked outside the engine: the test
suites compare every scan with a naive model over the logical rows
(``tests/oracle.py``), which shares no reader or verdict with it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro import vector
from repro.algebra.physical import (
    LAYOUT_ARRAY,
    LAYOUT_COLUMNS,
    LAYOUT_FOLDED,
    LAYOUT_GRID,
    LAYOUT_MIRROR,
    LAYOUT_ROWS,
)
from repro.engine import synopsis as zonemaps
from repro.engine.cost import CostEstimate, CostModel, estimate
from repro.engine.indexes import (
    FieldIndex,
    SpatialIndex,
    fetch_rows_by_position,
)
from repro.errors import StorageError
from repro.layout.renderer import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    LayoutRenderer,
    StoredLayout,
    select_cell_fields,
    select_column_groups,
)
from repro.query.expressions import Predicate
from repro.storage.page import SlottedPage
from repro.storage.serializer import RecordSerializer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.table import Table

#: Probe an index only when the estimated matching fraction is below this.
INDEX_SELECTIVITY_THRESHOLD = 0.3


@dataclass
class RunAccess:
    """How one run is read under one predicate.

    ``fields`` are the fields its batches carry, ``layout`` the layout
    actually read (a mirror's chosen replica) and ``verdict`` what pruning
    left of it: a page skip set (rows, array), row keep-intervals (columns),
    surviving cell entries (grid), folded-record indices (folded), the
    ``(lead, lo, hi)`` bounds of a sorted-range probe, or the probed index
    (:attr:`probed`) — ``None`` where nothing was pruned, ``()`` where the
    run's bound ruled the whole run out. ``_io`` answers ``(pages read,
    seeks, pages of the run)`` when asked.
    """

    fields: list[str]
    layout: StoredLayout
    verdict: Any
    _read: Callable[[], Iterator[ColumnBatch]]
    _io: Callable[[], tuple[float, float, float]]

    def batches(self) -> Iterator[ColumnBatch]:
        """The reader: batches of what the verdict kept, in stored order."""
        return self._read()

    @property
    def pages(self) -> float:
        """Pages :meth:`batches` fetches (estimated for the two probes)."""
        return self._io()[0]

    @property
    def seeks(self) -> float:
        return self._io()[1]

    @property
    def pruned(self) -> float:
        """Pages of the run the verdict lets :meth:`batches` skip."""
        pages, _, total = self._io()
        return total - pages

    def cost(self, model: CostModel) -> CostEstimate:
        pages, seeks, _ = self._io()
        return estimate(model, pages, seeks)

    @property
    def probed(self) -> FieldIndex | SpatialIndex | None:
        """The secondary index this access probes, if it is a probe."""
        probe = isinstance(self.verdict, (FieldIndex, SpatialIndex))
        return self.verdict if probe else None


def open_run(
    renderer: LayoutRenderer,
    layout: StoredLayout,
    needed: Sequence[str] | None,
    predicate: Predicate | None,
    intervals: zonemaps.Intervals,
    stats,
    model: CostModel,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    indexes: dict | None = None,
) -> RunAccess:
    """Decide how a scan for ``needed`` fields under ``predicate`` reads
    ``layout``. ``intervals`` are the predicate's prunable per-field
    intervals (empty = consult no zone map); ``stats`` (table statistics, or
    ``None``) price the two probes; ``model`` ranks a mirror's replicas;
    ``indexes`` are the run's secondary indexes, one of which is probed
    when it is selective enough (:func:`_open_probe`).

    The run's bound (:attr:`StoredLayout.run_bounds`) is asked first: a run
    no row of which can fall in some interval decides to an empty access
    (:func:`_open_missed`) — no probe, no zone, cell or folded-key walk."""
    opener = _OPENERS.get(layout.plan.kind)
    if opener is None:
        raise StorageError(f"cannot scan layout kind {layout.plan.kind!r}")
    if intervals and zonemaps.bounds_miss(layout.run_bounds, intervals):
        return _open_missed(layout, needed)
    if indexes and predicate is not None:
        probe = _open_probe(renderer, layout, indexes, predicate, stats)
        if probe is not None:
            return probe
    return opener(
        renderer, layout, needed, predicate, intervals, stats, model, batch_rows
    )


def _open_missed(layout: StoredLayout, needed) -> RunAccess:
    """A run whose bound misses the predicate: no batch, and every page its
    kind's opener counts as the run (a column scan's groups) pruned."""
    if layout.plan.kind == LAYOUT_COLUMNS:
        groups = [g for _, g in select_column_groups(layout, needed)]
        fields = [f for g in groups for f in g.fields]
        total = sum(len(g.extent.page_ids) for g in groups)
    else:
        fields, total = _scan_fields(layout, needed), layout.total_pages()
    return RunAccess(
        fields, layout, (), lambda: iter(()), lambda: (0, 0, total)
    )


def _scan_fields(layout: StoredLayout, needed) -> list[str]:
    """The fields a scan of a rows, grid, folded or array run carries."""
    plan = layout.plan
    if plan.kind == LAYOUT_GRID:
        names = plan.schema.names()
        return [names[i] for i in select_cell_fields(plan.schema, needed)]
    if plan.kind == LAYOUT_FOLDED:
        nest = [f for f in plan.nest_fields if needed is None or f in needed]
        return [*plan.group_fields, *nest]  # un-nested on scan
    if plan.kind == LAYOUT_ARRAY:
        return ["value"]
    return plan.schema.names()


def _open_paged(layout, fields, intervals, read) -> RunAccess:
    """One extent of independently readable pages (rows, array): the verdict
    is the set of extent positions whose zone rules the predicate out."""
    skip = zonemaps.rows_page_skip(layout, intervals)

    def io() -> tuple[float, float, float]:
        total = layout.total_pages()
        return total - (len(skip) if skip else 0), 1, total

    return RunAccess(
        fields, layout, skip, lambda: read(layout, skip=skip), io
    )


def _open_rows(
    renderer, layout, needed, predicate, intervals, stats, model, batch_rows
) -> RunAccess:
    plan = layout.plan
    names = plan.schema.names()
    read = partial(renderer.iter_row_batches, batch_rows=batch_rows)
    bounds = _sorted_range(layout, predicate)
    if bounds is not None:
        lead, lo, hi = bounds

        def probe_io() -> tuple[float, float, float]:
            # Estimated, not exact (so nothing counts as pruned): where the
            # matches start is found by reading pages, which costing must
            # not do.
            pages = layout.total_pages()
            field_stats = stats.fields.get(lead) if stats is not None else None
            if field_stats is not None:
                fraction = field_stats.selectivity(lo, hi)
                pages = min(
                    pages,
                    math.ceil(math.log2(pages + 1))
                    + max(1, math.ceil(pages * fraction)),
                )
            return pages, 1, pages

        return RunAccess(
            names, layout, bounds,
            lambda: _probe_sorted(renderer, layout, lead, lo, hi), probe_io,
        )
    if plan.delta_fields:
        # Delta reconstruction needs every preceding record, so no page is
        # skipped (zones exclude delta fields anyway — stored values are
        # not the logical values).
        idx = [names.index(f) for f in plan.delta_fields]
        return RunAccess(
            names, layout, None,
            lambda: _undelta_batches(read(layout), idx, tuple(names)),
            lambda: (layout.total_pages(), 1, layout.total_pages()),
        )
    return _open_paged(layout, names, intervals, read)


def _sorted_range(
    layout: StoredLayout, predicate: Predicate | None
) -> tuple[str, float, float] | None:
    """The ``(leading key, lo, hi)`` a sorted rows run can binary-search
    for, or ``None`` when the stored order does not serve the predicate."""
    plan = layout.plan
    if (
        not plan.sort_keys
        or plan.delta_fields
        or predicate is None
        or not layout.page_row_counts
        or layout.extent is None
    ):
        return None
    lead, ascending = plan.sort_keys[0]
    if not ascending:
        return None  # descending pruning omitted for clarity
    lo, hi = predicate.ranges().get(lead, (float("-inf"), float("inf")))
    if lo == float("-inf") and hi == float("inf"):
        return None
    return lead, lo, hi


def _probe_sorted(
    renderer: LayoutRenderer, layout: StoredLayout, lead: str, lo, hi
) -> Iterator[ColumnBatch]:
    """Sorted-range read, page by page (``batch_rows=1``): binary search
    finds the first page that can hold a match; no page after the first one
    holding a key past ``hi`` is fetched — O(log n + matching) pages."""
    schema = layout.plan.schema
    lead_pos = schema.index_of(lead)
    serializer = RecordSerializer(schema)
    page_ids = layout.extent.page_ids

    def first_key(page_index: int):
        page_id = page_ids[page_index]
        frame = renderer.pool.fetch(page_id)
        try:
            blob = SlottedPage(renderer.page_size, frame.data).get(0)
        finally:
            renderer.pool.unpin(page_id)
        return serializer.decode(blob)[lead_pos]

    # Last page whose first key is < lo: the first match is inside it or
    # opens the next page (with ``<=``, a run of ``lo`` keys spanning pages
    # would lose its head). Empty pages cannot occur mid-extent.
    left, right, start = 0, len(page_ids) - 1, 0
    while left <= right:
        mid = (left + right) // 2
        if first_key(mid) < lo:
            start = mid
            left = mid + 1
        else:
            right = mid - 1
    for batch in renderer.iter_row_batches(layout, start=start, batch_rows=1):
        # Keys ascend within the page: everything past ``hi`` — here and on
        # every later page — is out of range.
        keys = vector.to_list(batch.columns()[lead_pos])
        cut = bisect_right(keys, hi)
        if cut < len(keys):
            if cut:
                yield batch.head(cut)
            return
        yield batch


def _open_columns(
    renderer, layout, needed, predicate, intervals, stats, model, batch_rows
) -> RunAccess:
    groups = select_column_groups(layout, needed)
    fields = [f for _, g in groups for f in g.fields]
    indexes = [i for i, _ in groups]
    delta_here = [f for f in layout.plan.delta_fields if f in fields]
    # Row intervals no scanned group's chunk zones rule out; a delta field
    # needs its whole prefix, so its presence turns pruning off.
    keep = (
        None
        if delta_here
        else zonemaps.column_keep_intervals(layout, indexes, intervals)
    )

    def read() -> Iterator[ColumnBatch]:
        if keep is not None:
            return renderer.iter_pruned_column_batches(layout, indexes, keep)
        batches = renderer.iter_column_batches(layout, indexes)
        if delta_here:
            idx = [fields.index(f) for f in delta_here]
            batches = _undelta_batches(batches, idx, tuple(fields))
        return batches

    def io() -> tuple[float, float, float]:
        total = sum(len(g.extent.page_ids) for _, g in groups)
        pruned = 0
        if keep is not None:
            pruned = zonemaps.column_pruned_pages(layout, indexes, keep)
        return total - pruned, len(groups), total

    return RunAccess(fields, layout, keep, read, io)


def _open_grid(
    renderer, layout, needed, predicate, intervals, stats, model, batch_rows
) -> RunAccess:
    plan = layout.plan
    entries = None  # every cell
    if predicate is not None:
        # Cell bounds on the grid dimensions, narrowed by each cell's zone
        # map (min/max over *every* stored field) where zones are consulted.
        ranges = predicate.ranges()
        dims = plan.grid.dims if plan.grid else ()
        usable = {d: ranges[d] for d in dims if d in ranges}
        zone_keep = zonemaps.directory_keep(layout, intervals)
        if usable or zone_keep is not None:
            directory = layout.cell_directory
            entries = [
                directory[i]
                for i in vector.mask_indexes(
                    layout.cell_keep(usable, zone_keep)
                )
            ]

    def io() -> tuple[float, float, float]:
        cells = layout.cell_directory if entries is None else entries
        pages = renderer.pages_for_cells(layout, cells)
        total = len(pages if entries is None else layout.extent.page_ids)
        return len(pages), count_runs(pages), total

    return RunAccess(
        _scan_fields(layout, needed), layout, entries,
        lambda: renderer.iter_grid_batches(layout, entries, needed), io,
    )


def _open_folded(
    renderer, layout, needed, predicate, intervals, stats, model, batch_rows
) -> RunAccess:
    indices = _folded_survivors(layout, predicate, intervals)

    def io() -> tuple[float, float, float]:
        if indices is None or layout.extent is None:
            return layout.total_pages(), 1, layout.total_pages()
        pages = renderer.pages_for_stream_ranges(
            layout, [layout.folded_directory[i] for i in indices]
        )
        return len(pages), count_runs(pages), len(layout.extent.page_ids)

    return RunAccess(
        _scan_fields(layout, needed), layout, indices,
        lambda: renderer.iter_folded_batches(layout, indices, needed), io,
    )


def _folded_survivors(
    layout: StoredLayout, predicate: Predicate | None, intervals
) -> list[int] | None:
    """Folded-record indices surviving group-key range pruning (which the
    reader checks each key of), narrowed by each record's zone map of the
    *nested* vectors where zones are consulted; ``None`` when nothing
    constrains the records."""
    if predicate is None or not layout.folded_keys:
        return None
    ranges = predicate.ranges()
    group = layout.plan.group_fields
    constrained = [
        (position, ranges[name])
        for position, name in enumerate(group)
        if name in ranges
    ]
    zone_keep = zonemaps.directory_keep(
        layout, {f: iv for f, iv in intervals.items() if f not in group}
    )
    if not constrained and zone_keep is None:
        return None
    if zone_keep is None:
        candidates: Iterable[int] = range(len(layout.folded_keys))
    else:
        candidates = vector.mask_indexes(zone_keep)

    def in_range(key: tuple) -> bool:
        return all(
            isinstance(key[position], (int, float))
            and lo <= key[position] <= hi
            for position, (lo, hi) in constrained
        )

    return [i for i in candidates if in_range(layout.folded_keys[i])]


def _open_array(
    renderer, layout, needed, predicate, intervals, stats, model, batch_rows
) -> RunAccess:
    return _open_paged(
        layout, ["value"], intervals, renderer.iter_array_batches
    )


def _open_mirror(
    renderer, layout, needed, predicate, intervals, stats, model, batch_rows
) -> RunAccess:
    """Fractured mirrors: the cheapest replica's access (first on a tie)."""
    ask = (needed, predicate, intervals, stats, model, batch_rows)
    return min(
        (open_run(renderer, replica, *ask) for replica in layout.mirrors),
        key=lambda access: access.cost(model).ms,
    )


_OPENERS = {
    LAYOUT_ROWS: _open_rows,
    LAYOUT_COLUMNS: _open_columns,
    LAYOUT_GRID: _open_grid,
    LAYOUT_FOLDED: _open_folded,
    LAYOUT_ARRAY: _open_array,
    LAYOUT_MIRROR: _open_mirror,
}


def _open_probe(
    renderer: LayoutRenderer,
    layout: StoredLayout,
    indexes: dict,
    predicate: Predicate,
    stats,
) -> RunAccess | None:
    """The probe of one of a run's ``indexes`` (``fields -> index``), or
    ``None``: one walk over the indexes the predicate's ranges cover
    (spatial first; a B+Tree only for a range bounded on both sides) that
    are selective enough prices each from statistics and keeps the
    cheapest. Its batches are the run's rows, which the region's resolver
    resolves like any other."""
    ranges, inf = predicate.ranges(), float("inf")
    best = None
    for fields, index in sorted(indexes.items(), key=lambda kv: -len(kv[0])):
        bounds = [ranges.get(name) for name in fields]
        if None in bounds or (
            len(bounds) == 1 and (-inf in bounds[0] or inf in bounds[0])
        ):
            continue
        fraction = 1.0
        if stats is not None:
            for name in fields:
                field_stats = stats.fields.get(name)
                if field_stats is not None:
                    fraction *= field_stats.selectivity(*ranges[name])
            if fraction > INDEX_SELECTIVITY_THRESHOLD:
                continue
        # Matching rows scatter across pages, roughly one seek per page —
        # so the probe touching the fewest pages is the cheapest.
        pages = index.tree.height + max(1.0, fraction * layout.total_pages())
        if best is None or pages < best[0]:
            best = (pages, bounds, index)
    if best is None:
        return None
    pages, bounds, index = best
    return RunAccess(
        layout.plan.schema.names(), layout, index,
        lambda: _probe_index(renderer, layout, index, bounds),
        lambda: (pages, pages, pages),
    )


def _probe_index(renderer, layout, index, bounds) -> Iterator[ColumnBatch]:
    """Probe now; then a batch per matched page of ``layout`` (the run the
    index addresses), fetched as the scan pulls it — a pushed-down limit
    stops fetching pages early."""
    if len(bounds) == 2:
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        positions = index.positions_in_box(x_lo, x_hi, y_lo, y_hi)
    else:
        positions = index.positions_in_range(*bounds[0])
    return fetch_rows_by_position(renderer, layout, positions)


@dataclass
class TableAccess:
    """How one scan node reads its table (:func:`decide_scan`): the
    ``survivors`` of ``regions`` with the :class:`RunAccess` of every run
    they hold (``runs``: ``id(run) -> (run, access)``, in scan order) —
    decided from ``needed``, ``predicate`` and ``zone_pruning``."""

    needed: list[str] | None
    predicate: Predicate | None
    zone_pruning: bool
    regions: Sequence = ()
    survivors: Sequence = ()
    runs: dict = field(default_factory=dict)

    def cost(self, model: CostModel) -> CostEstimate:
        return sum(
            (a.cost(model) for _, a in self.runs.values()), CostEstimate.zero()
        )

    @property
    def pruned(self) -> float:
        """Pages the scan skips: whole partitions ruled out plus every run's
        pruned pages (nothing for a probe's run: its pages are estimated)."""
        kept = {region.pid for region in self.survivors}
        return sum(
            r.total_pages() for r in self.regions if r.pid not in kept
        ) + sum(a.pruned for _, a in self.runs.values())

    @property
    def probes(self) -> int:
        """Runs the scan reads through a secondary-index probe."""
        return sum(a.probed is not None for _, a in self.runs.values())

    def holds(self, table: "Table", needed, predicate) -> bool:
        """Does this decision still describe a scan of ``table`` (a pinned
        view) for ``needed`` under ``predicate``? Which runs still hold is
        :meth:`run_access`'s."""
        return (
            predicate is self.predicate
            and needed == self.needed
            and self.zone_pruning == table.store.zone_pruning
        )

    def run_access(self, run) -> RunAccess | None:
        """The carried access of that very (immutable) ``run``, if any — a
        probe only while the run still holds its index (a dropped one is
        retired)."""
        carried = self.runs.get(id(run))
        if carried is None or carried[1].probed not in (
            None, *run.indexes.values()
        ):
            return None
        return carried[1]


def decide_scan(
    table: "Table", needed: Sequence[str] | None, predicate: Predicate | None
) -> TableAccess:
    """The one access decision of a scan of ``table`` for ``needed`` fields
    under ``predicate``: the partition survivors and
    ``Table._run_accesses`` over their runs."""
    survivors = table.partition_survivors(predicate)
    return TableAccess(
        needed, predicate, table.store.zone_pruning,
        table._require_loaded(), survivors,
        {
            id(run): (run, access)
            for run, access in table._run_accesses(
                survivors, needed, predicate
            )
        },
    )


def _undelta_batches(
    batches: Iterable[ColumnBatch],
    idx: Sequence[int],
    fields: tuple[str, ...],
) -> Iterator[ColumnBatch]:
    """Reconstruct delta-encoded fields batch-wise: each one a running sum
    (:func:`repro.vector.prefix_sum`) carried across batch boundaries."""
    carry: list = [None] * len(idx)
    for batch in batches:
        if not batch.n_rows:
            continue
        columns = list(batch.columns())
        for k, i in enumerate(idx):
            columns[i] = vector.prefix_sum(columns[i], carry=carry[k])
            (carry[k],) = vector.to_list(columns[i][-1:])
        yield ColumnBatch.from_columns(fields, columns)


def count_runs(page_ids: Sequence[int]) -> int:
    """Number of contiguous runs in a sorted page-id list (seek count)."""
    if not page_ids:
        return 0
    runs = 1
    for prev, current in zip(page_ids, page_ids[1:]):
        if current != prev + 1:
            runs += 1
    return runs
