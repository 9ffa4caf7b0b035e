"""Render physical plans onto disk pages, and read them back.

The renderer is the paper's "storage backend" write path (§4.2): it takes a
batch of stored records plus the compiled
:class:`repro.algebra.physical.PhysicalPlan` and its structural residual
(:meth:`LayoutRenderer.render_region`), evaluates the residual over the
batch's columns (:mod:`repro.layout.columnar`) and encodes pages straight
from the column slices that leaves: slotted pages of 8-byte numeric fields
pack from the columns, a field's grid cells or folded records encode in one
codec call, and zone maps are one reduction per field over all the zones
(:func:`repro.vector.segment_bounds`). Each storage object (row heap, column
group, grid cell stream, folded record stream, array vector) occupies one
*contiguous extent* of pages, chained with ``next_page_id``, so that scans
are sequential and the paper's "store and walk each object in the same
order" rule holds.

Encodings:

* rows — slotted pages of serialized records;
* column group (single field) — byte pages, each holding one codec-encoded
  value chunk;
* column group (multiple fields) — slotted pages of mini-records (a PAX-like
  hybrid);
* grid — one continuous byte stream of cell blobs (per-cell, per-field
  codec-encoded columns) packed across byte pages, plus an in-memory cell
  directory mapping cell coordinate -> (bounds, byte range) — the case
  study's "hash table that tracks the spatial boundaries of each cell";
* folded — the same kind of stream, one blob per group (its key, its
  count, per nest field a codec-encoded vector), plus a directory of byte
  ranges and group keys;
* array — fixed-width value vector with direct offsetting (supports
  multidimensional ``getElement``).

Every read is **batch-at-a-time**: one reader per layout kind
(``iter_row_batches``, ``iter_column_batches``, ``iter_grid_batches``,
``iter_folded_batches``, ``iter_array_batches``), chosen and parameterized
by :func:`repro.engine.access.open_run`. They yield :class:`ColumnBatch`
objects: a page, a column window or a page of cell or folded-record
stream worth of decoded values at once, decoded a blob (``Codec.decode``)
or a run of blobs (``Codec.decode_buffer``) at a time into typed vectors,
so the per-value Python interpreter tax is paid once per batch instead of
once per value. Positional access (``get_element`` on a grid cell) reads
through the same readers.

Slotted pages have a single decoder: :class:`RecordSerializer` turns a page
— or, for a rows run, the record heaps of a batch of packed pages at once —
into column vectors (typed ones, for fixed-width numeric schemas), which
:class:`ColumnBatch` transposes to rows only when a consumer asks.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from typing import Any, Callable, Iterator, Sequence

from repro.algebra.physical import (
    LAYOUT_ARRAY,
    LAYOUT_COLUMNS,
    LAYOUT_FOLDED,
    LAYOUT_GRID,
    LAYOUT_MIRROR,
    LAYOUT_ROWS,
    PhysicalPlan,
)
from repro import vector
from repro.layout import columnar
from repro.layout.cache import DecodedCache
from repro.layout.columnar import Shaped
from repro.compression import get_codec
from repro.engine.synopsis import LayoutSynopsis, ZoneTable, group_chunk_rows
from repro.errors import CorruptPageError, CrashError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import (
    BYTES_HEADER_SIZE,
    NO_PAGE,
    BytePage,
    SlottedPage,
)
from repro.storage.serializer import RecordSerializer, VectorSerializer
from repro.types.schema import Schema
from repro.types.values import flatten, shape as nesting_shape

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_CELL_HEADER = struct.Struct("<IH")  # row count, field count

#: Rows per batch of a rows run, which gathers packed pages up to it.
#: Column runs read a window at a time (:data:`WINDOW_ROWS`), grid and
#: folded streams about a page of stream at a time, and other page-shaped
#: sources a page at a time. ``RodentStore(batch_rows=...)`` overrides it.
DEFAULT_BATCH_ROWS = 1024

#: Rows per column *window*: the unit a full column scan yields and the
#: store's decoded cache (:mod:`repro.layout.cache`) keeps of it — batch k
#: is rows ``[kW, (k+1)W)`` of every scanned group. The keyed operators
#: fold the same number of rows per kernel call
#: (:func:`repro.query.operators._chunks`).
WINDOW_ROWS = 65_536


class ColumnBatch:
    """A batch of decoded records, backed by rows or by typed columns.

    Every layout's reader decodes to per-field vectors (contiguous typed
    ones for numeric fields, plain lists otherwise; see :mod:`repro.vector`);
    batches built from rows (pending inserts, merges) hold tuples. Either
    orientation transposes lazily when the consumer needs the other.

    Columnar batches may additionally carry a *selection*: the positions,
    in the underlying vectors, of the rows vectorized predicates kept. It
    is resolved lazily — projections ride on top of it and a further
    filter composes positions, without materializing the surviving rows;
    resolving it gathers every column by position once. ``rows()`` stays
    the compatibility shim that always yields native-python tuples in
    ``fields`` order.
    """

    __slots__ = ("fields", "n_rows", "_rows", "_columns", "_selection")

    def __init__(self, fields, n_rows, rows=None, columns=None, selection=None):
        self.fields = fields
        self.n_rows = n_rows
        self._rows = rows
        self._columns = columns
        self._selection = selection

    @classmethod
    def from_rows(
        cls, fields: tuple[str, ...], rows: list[tuple]
    ) -> "ColumnBatch":
        return cls(fields, len(rows), rows=rows)

    @classmethod
    def from_columns(
        cls, fields: tuple[str, ...], columns: list
    ) -> "ColumnBatch":
        n_rows = len(columns[0]) if columns else 0
        return cls(fields, n_rows, columns=columns)

    @property
    def is_columnar(self) -> bool:
        """True when the batch already holds per-field value vectors."""
        return self._columns is not None

    def rows(self) -> list[tuple]:
        """Records as native-python tuples in ``fields`` order (cached).

        Typed vectors convert through their bulk ``tolist`` so numpy
        scalars never leak into row tuples.
        """
        if self._rows is None:
            if self.n_rows:
                cols = [vector.to_list(c) for c in self.columns()]
                self._rows = list(zip(*cols))
            else:
                self._rows = []
        return self._rows

    def iter_rows(self):
        """Lazily iterate native-python row tuples (no list materialized)."""
        if self._rows is not None:
            return iter(self._rows)
        if not self.n_rows:
            return iter(())
        return zip(*[vector.to_list(c) for c in self.columns()])

    def columns(self) -> list:
        """Per-field value vectors parallel to ``fields``, with any pending
        selection resolved (cached). Vectors may be shared with the store's
        decoded cache and other batches — treat them as read-only."""
        if self._columns is None:
            if self._rows:
                self._columns = list(zip(*self._rows))
            else:
                self._columns = [() for _ in self.fields]
        elif self._selection is not None:
            picks = self._selection
            self._columns = [vector.take(c, picks) for c in self._columns]
            self._selection = None
        return self._columns

    def column_map(self) -> dict[str, Sequence]:
        """``field name -> value vector`` view of :meth:`columns`."""
        return dict(zip(self.fields, self.columns()))

    def select(self, mask, count: int | None = None) -> "ColumnBatch":
        """A batch restricted to the rows where ``mask`` is true.

        ``mask`` is a boolean vector over this batch's *visible* rows
        (``n_rows`` long). Columnar batches defer the gather: the new
        batch shares the underlying vectors and records the positions the
        mask keeps — composed with this batch's own selection, if any.
        """
        if self._columns is None:
            rows = list(compress(self._rows, vector.to_list(mask)))
            if len(rows) == self.n_rows:
                return self
            return ColumnBatch.from_rows(self.fields, rows)
        if count is None:
            count = vector.mask_count(mask)
        if count == self.n_rows:
            return self
        if count == 0:
            return ColumnBatch(self.fields, 0, rows=[])
        picks = vector.mask_positions(mask)
        if self._selection is not None:
            picks = vector.take(self._selection, picks)
        return ColumnBatch(
            self.fields, count, columns=self._columns, selection=picks
        )

    def project_columns(
        self, idx: Sequence[int], fields: tuple[str, ...]
    ) -> "ColumnBatch":
        """Reorder/subset columns without touching the selection (a
        row-backed batch is transposed first)."""
        cols = self._columns if self._columns is not None else self.columns()
        return ColumnBatch(
            fields,
            self.n_rows,
            columns=[cols[i] for i in idx],
            selection=self._selection,
        )

    def take(self, indexes) -> "ColumnBatch":
        """The rows at ``indexes`` (visible-row positions, from
        :func:`repro.vector.sort_indexes`), in that order, as a columnar
        batch."""
        return ColumnBatch.from_columns(
            self.fields, [vector.take(c, indexes) for c in self.columns()]
        )

    def head(self, k: int) -> "ColumnBatch":
        """The first ``k`` visible rows (limit pushdown)."""
        if k >= self.n_rows:
            return self
        if self._rows is not None:
            return ColumnBatch.from_rows(self.fields, self._rows[:k])
        cols = self.columns()
        return ColumnBatch(
            self.fields, k, columns=[c[:k] for c in cols]
        )

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        kind = "columnar" if self.is_columnar else "rows"
        if self._selection is not None:
            kind += "+selection"
        return f"<ColumnBatch {self.n_rows}x{len(self.fields)} {kind}>"


def merge_batches(fields: tuple[str, ...], held: Sequence[ColumnBatch]) -> ColumnBatch:
    """The rows of ``held`` (batches over ``fields``), in order, as one
    columnar batch: each column is one :func:`repro.vector.concat` of the
    batches' vectors, typed where they all are."""
    parts = [batch.columns() for batch in held]
    return ColumnBatch(
        fields,
        sum(batch.n_rows for batch in held),
        columns=[vector.concat([p[i] for p in parts]) for i in range(len(fields))],
    )


#: "No row is ruled out yet" for :func:`sort_batches` (``None`` could be a
#: key value).
_UNBOUNDED = object()


def sort_batches(
    batches: Iterator[ColumnBatch],
    fields: tuple[str, ...],
    key_idx: Sequence[int],
    descending: Sequence[bool],
    limit: int | None = None,
) -> ColumnBatch:
    """The rows of a batch stream in order, as one columnar batch: sorted
    on columns ``key_idx`` (most significant first; ``descending`` per
    key), rows equal on every key in stream order, and only the first
    ``limit`` of them when a limit is given.

    The ordering itself is :func:`repro.vector.sort_indexes` over the key
    columns; no row tuple is built. With a limit the selection is bounded:
    once twice ``limit`` rows are held they are cut back to the best
    ``limit``, and from then on a row whose leading key sorts strictly
    after the worst one kept is dropped on arrival by one vector compare
    (:func:`repro.vector.within_bound`). Survivors queue up *behind* the
    rows kept so far, so the stable re-selection breaks ties exactly as a
    sort of the whole stream would — memory is O(limit + batch).
    """
    empty = ColumnBatch.from_rows(fields, [])
    if limit is not None and limit <= 0:
        return empty
    lead, lead_descending = key_idx[0], descending[0]
    held: list[ColumnBatch] = []
    held_rows = 0
    bound = _UNBOUNDED

    def best() -> ColumnBatch:
        if not held:
            return empty
        merged = merge_batches(fields, held)
        columns = merged.columns()
        return merged.take(
            vector.sort_indexes([columns[i] for i in key_idx], descending, limit)
        )

    for batch in batches:
        if bound is not _UNBOUNDED and batch.n_rows:
            batch = batch.select(
                vector.within_bound(batch.columns()[lead], bound, lead_descending)
            )
        if not batch.n_rows:
            continue
        held.append(batch)
        held_rows += batch.n_rows
        if limit is not None and held_rows >= 2 * limit:
            top = best()
            held, held_rows = [top], top.n_rows
            worst = vector.to_list(top.columns()[lead][-1:])[0]
            if worst == worst:  # a NaN bounds nothing
                bound = worst
    return best()


def select_column_groups(
    layout: "StoredLayout", needed: Sequence[str] | None
) -> list[tuple[int, "ColumnGroupStore"]]:
    """Column groups a scan for ``needed`` fields must read, with indexes.

    ``None`` means every group; a projection that touches no stored field
    still reads the first group so row positions (and counts) exist.
    """
    groups = list(enumerate(layout.column_groups))
    if needed is None:
        return groups
    needed_set = set(needed)
    touched = [(i, g) for i, g in groups if needed_set & set(g.fields)]
    return touched or groups[:1]


def select_cell_fields(schema: Schema, needed: Sequence[str] | None) -> list[int]:
    """Schema positions of the fields a grid scan for ``needed`` must decode.

    ``None`` means every field; a projection that touches no stored field
    still decodes the first so row counts exist.
    """
    if needed is None:
        return list(range(len(schema.fields)))
    needed_set = set(needed)
    touched = [i for i, f in enumerate(schema.fields) if f.name in needed_set]
    return touched or [0]


class _GroupSlicer:
    """One column group's rows by position, read through the store's
    decoded cache (:class:`repro.layout.cache.DecodedCache`).

    A full scan takes :meth:`window`: rows ``[kW, (k+1)W)`` of every field,
    assembled from the chunks the first time and cached whole, so the next
    scan's batch *is* the cached window. A zone-pruned scan takes
    :meth:`slice`: a cut of the cached window, or else of the chunks the
    rows live in, each decoded once and cached. Assembling a window takes
    over the chunk entries it uses, so no row is cached twice; a chunk
    straddling the window's end is carried to the next window rather than
    read again. Before either, the scanned groups decode what they lack
    together, in row order (:meth:`load`). A unit is ``(group index, first
    row, end row)`` of the layout.

    Chunk row counts come from the catalog — ``chunks`` for a one-field
    group, its zone table (else its page headers) for a mini-record group.
    They must sum to the layout's rows and each decoded chunk must hold its
    count: a mismatch raises :class:`StorageError`, so a group whose
    metadata disagrees can neither drop nor misalign rows.
    """

    __slots__ = (
        "_renderer",
        "_layout",
        "_group",
        "_store",
        "_rows",
        "_dtype",
        "_codec",
        "_serializer",
        "_starts",
        "_carry",
        "_staged",
    )

    def __init__(self, renderer: "LayoutRenderer", layout: "StoredLayout", group_index: int):
        self._renderer = renderer
        self._layout = layout
        self._group = group_index
        store = self._store = layout.column_groups[group_index]
        self._rows = layout.row_count
        plan = layout.plan
        if len(store.fields) == 1:
            self._dtype = plan.schema.field(store.fields[0]).dtype
            self._codec = get_codec(plan.codec_for(store.fields[0]))
            self._serializer = None
        else:
            self._dtype = self._codec = None
            self._serializer = RecordSerializer(
                plan.schema.project(store.fields)
            )
        if self._serializer is None or (
            layout.synopsis is not None and layout.synopsis.group_zones
        ):
            counts = group_chunk_rows(layout, group_index)
        else:
            counts = self._page_rows(store.extent.page_ids)
        self._starts = list(accumulate(counts, initial=0))
        if self._starts[-1] != layout.row_count:
            raise StorageError(
                f"column group {store.fields}: chunks hold {self._starts[-1]} "
                f"rows, the layout {layout.row_count}"
            )
        self._carry: tuple = (None, None)
        self._staged: dict[int, list] = {}  # decoded ahead by :meth:`load`

    def _page_rows(self, page_ids: Sequence[int]) -> list[int]:
        """Records per slotted page, from the page headers."""
        pool, counts = self._renderer.pool, []
        for page_id in page_ids:
            frame = pool.fetch(page_id)
            try:
                page = SlottedPage(self._renderer.page_size, frame.data)
                counts.append(page.slot_count)
            finally:
                pool.unpin(page_id)
        return counts

    def _decode(self, i: int) -> list:
        """Chunk ``i`` read and decoded, checked against its row count."""
        renderer, store = self._renderer, self._store
        if self._serializer is None:
            page_id = store.extent.page_ids[store.chunks[i][0]]
            frame = renderer.pool.fetch(page_id)
            try:
                data = BytePage(renderer.page_size, frame.data).read()
            finally:
                renderer.pool.unpin(page_id)
            columns = [self._codec.decode(data, self._dtype)]
        else:
            columns = renderer._read_slotted(
                store.extent.page_ids[i], self._serializer
            )
        rows = self._starts[i + 1] - self._starts[i]
        held = len(columns[0]) if columns else 0
        if held != rows:
            raise StorageError(
                f"chunk {i} of column group {store.fields} holds {held} "
                f"rows, the catalog says {rows}"
            )
        return columns

    def _unit(self, start: int, end: int) -> tuple[int, int, int]:
        return (self._group, start, min(end, self._rows))

    def _keep(self, unit: tuple, columns: list) -> None:
        nbytes = sum(map(vector.nbytes, columns))
        self._renderer.cache.put(self._layout, unit, columns, nbytes)

    def _missing(self, start: int, end: int) -> list[tuple[int, int]]:
        """``(first row wanted, chunk)`` for each chunk reading rows
        ``[start, end)`` has to decode: neither their window nor the chunk
        is cached, and the chunk is not carried over."""
        cache, layout, starts = self._renderer.cache, self._layout, self._starts
        origin = start - start % WINDOW_ROWS
        if cache.has(layout, self._unit(origin, origin + WINDOW_ROWS)):
            return []
        return [
            (max(start, starts[i]), i)
            for i, _, _ in self._overlaps(start, end)
            if i != self._carry[0]
            and not cache.has(layout, self._unit(starts[i], starts[i + 1]))
        ]

    def _overlaps(self, start: int, end: int) -> Iterator[tuple[int, int, int]]:
        """``(chunk, lo, hi)`` for each non-empty chunk holding rows of
        ``[start, end)``: rows ``[lo, hi)`` of the chunk are the ones."""
        starts = self._starts
        i = bisect_right(starts, start) - 1
        while i + 1 < len(starts) and starts[i] < end:
            if starts[i + 1] > starts[i]:
                yield (
                    i,
                    max(start, starts[i]) - starts[i],
                    min(end, starts[i + 1]) - starts[i],
                )
            i += 1

    def window(self, start: int) -> list:
        """Rows ``[start, start + W)`` of every field (``start`` a multiple
        of :data:`WINDOW_ROWS`; the last window is short), as the cached
        vectors — assembled and cached on first use."""
        cache, layout, starts = self._renderer.cache, self._layout, self._starts
        unit = self._unit(start, start + WINDOW_ROWS)
        window = cache.get(layout, unit)
        if window is not None:
            return window
        parts: list[list] = [[] for _ in self._store.fields]
        for i, lo, hi in self._overlaps(*unit[1:]):
            carried, columns = self._carry
            cached = cache.pop(layout, self._unit(starts[i], starts[i + 1]))
            if carried != i:
                columns = cached or self._staged.pop(i, None) or self._decode(i)
            if starts[i + 1] > unit[2]:  # its tail opens the next window
                self._carry = (i, columns)
            for part, column in zip(parts, columns):
                part.append(column if hi - lo == len(column) else column[lo:hi])
        window = [vector.concat(part) for part in parts]
        self._keep(unit, window)
        return window

    def slice(self, start: int, end: int) -> list:
        """Per-field value vectors of rows ``[start, end)``, which lie in
        one window: cut from that window when it is cached, else from the
        chunks the rows live in (chunks the range misses are never read)."""
        cache, layout = self._renderer.cache, self._layout
        origin = start - start % WINDOW_ROWS
        window = cache.get(layout, self._unit(origin, origin + WINDOW_ROWS))
        if window is not None:
            return [column[start - origin : end - origin] for column in window]
        parts: list[list] = [[] for _ in self._store.fields]
        for i, lo, hi in self._overlaps(start, end):
            unit = self._unit(self._starts[i], self._starts[i + 1])
            columns = cache.get(layout, unit)
            if columns is None:
                columns = self._staged.pop(i, None) or self._decode(i)
                self._keep(unit, columns)
            for part, column in zip(parts, columns):
                part.append(column[lo:hi])
        return [vector.concat(p) if p else [] for p in parts]

    @staticmethod
    def load(slicers: Sequence["_GroupSlicer"], start: int, end: int) -> None:
        """Decode the chunks the groups are missing for rows ``[start, end)``
        in row order across the groups, group order breaking ties — the
        order a positional merge of the groups reaches them in. Which pages
        an LRU pool keeps depends on the order they are asked for, so it is
        this one whatever the window and chunk geometry."""
        wanted = sorted(
            (row, n, i)
            for n, slicer in enumerate(slicers)
            for row, i in slicer._missing(start, end)
        )
        for _, n, i in wanted:
            slicers[n]._staged[i] = slicers[n]._decode(i)


@dataclass
class Extent:
    """A contiguous run of page ids belonging to one storage object."""

    page_ids: list[int]

    @property
    def first(self) -> int:
        return self.page_ids[0] if self.page_ids else NO_PAGE

    def __len__(self) -> int:
        return len(self.page_ids)


@dataclass
class CellEntry:
    """Directory entry for one grid cell."""

    coord: tuple[int, ...]
    bounds: tuple[tuple[float, float], ...]  # [lo, hi) per dimension
    offset: int  # byte offset in the cell stream
    length: int  # blob length in bytes
    row_count: int


@dataclass
class ColumnGroupStore:
    """Stored form of one vertical partition: its pages and, for a
    one-field group, its chunks. What it decodes to lives in the store's
    decoded cache, keyed by the layout and the group's position."""

    fields: tuple[str, ...]
    extent: Extent
    # For single-field groups: (page index in extent, row count) per chunk.
    chunks: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class StoredLayout:
    """A rendered table: page extents plus directories, per layout kind."""

    plan: PhysicalPlan
    # Rows a scan returns: a folded layout's un-nested rows, an array's leaves.
    row_count: int
    extent: Extent | None = None  # rows / folded / grid stream / array
    column_groups: list[ColumnGroupStore] = field(default_factory=list)
    cell_directory: list[CellEntry] = field(default_factory=list)
    array_shape: tuple[int, ...] | None = None
    array_values_per_page: int = 0
    array_dtype: Any = None
    mirrors: list["StoredLayout"] = field(default_factory=list)
    grid_origin: tuple[float, ...] = ()
    # (byte offset, byte length) per folded record, for folded layouts.
    folded_directory: list[tuple[int, int]] = field(default_factory=list)
    # Group-key tuple per folded record (parallel to folded_directory),
    # enabling key-range pruning without touching the stream.
    folded_keys: list[tuple] = field(default_factory=list)
    # Records per page, for rows layouts (enables direct get_element).
    page_row_counts: list[int] = field(default_factory=list)
    # Storage position of each page's first record, and past the last page
    # the row total: ``bisect_right(page_starts, position) - 1`` is the
    # page a position lives on.
    page_starts: list[int] = field(init=False, default_factory=list)
    # Columnar min/max synopses (zone maps), computed at render time;
    # ``None`` for layouts rendered before synopses existed, or when the
    # attached tables are not parallel to this layout's directories
    # (``synopsis_error`` then says why, and scans run unpruned).
    synopsis: LayoutSynopsis | None = None
    synopsis_error: str | None = field(init=False, default=None)
    # The run-level bound per field (:meth:`LayoutSynopsis.run_bounds`),
    # derived once from ``synopsis``; empty when there is none (a mirror's
    # parent: each replica has its own).
    run_bounds: dict = field(init=False, default_factory=dict)
    # (lows, highs) bound vectors per grid dimension, parallel to
    # ``cell_directory`` (struct-of-arrays twin of ``CellEntry.bounds``).
    cell_bounds: list[tuple] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.page_starts = list(accumulate(self.page_row_counts, initial=0))
        if self.synopsis is not None:
            self.synopsis_error = self._synopsis_shape_error(self.synopsis)
            if self.synopsis_error is not None:
                self.synopsis = None
            else:
                self.run_bounds = self.synopsis.run_bounds()
        if self.cell_directory:
            bounds = [entry.bounds for entry in self.cell_directory]
            self.cell_bounds = [
                (
                    vector.pack([b[dim][0] for b in bounds]),
                    vector.pack([b[dim][1] for b in bounds]),
                )
                for dim in range(len(bounds[0]))
            ]

    def _synopsis_shape_error(self, synopsis: LayoutSynopsis) -> str | None:
        """Why a zone table is not parallel to the directory it indexes
        (pruning is positional: a mismatch would silently drop rows)."""
        pages = len(self.extent.page_ids) if self.extent else 0
        checks = [
            ("page_zones", synopsis.page_zones, pages),
            ("cell_zones", synopsis.cell_zones, len(self.cell_directory)),
            ("folded_zones", synopsis.folded_zones, len(self.folded_directory)),
        ]
        if synopsis.group_zones:
            if len(synopsis.group_zones) != len(self.column_groups):
                return (
                    f"group_zones: {len(synopsis.group_zones)} tables for "
                    f"{len(self.column_groups)} column groups"
                )
            for i, store in enumerate(self.column_groups):
                zones = synopsis.group_zones[i]
                single = len(store.fields) == 1
                units = store.chunks if single else store.extent.page_ids
                checks.append((f"group_zones[{i}]", zones, len(units)))
                rows = sum(vector.to_list(zones.row_counts))
                if rows != self.row_count:
                    return (
                        f"group_zones[{i}]: zones cover {rows} rows, "
                        f"layout has {self.row_count}"
                    )
        for label, zones, expected in checks:
            error = zones.shape_error(expected) if zones else None
            if error is not None:
                return f"{label}: {error}"
        return None

    def total_pages(self) -> int:
        """Number of pages this layout occupies on disk."""
        pages = len(self.extent.page_ids) if self.extent else 0
        pages += sum(len(g.extent.page_ids) for g in self.column_groups)
        pages += sum(m.total_pages() for m in self.mirrors)
        return pages

    def page_ids(self) -> list[int]:
        """Every page id this layout occupies (main extent, groups, mirrors).

        The single home of "which pages does a layout own" — used to free a
        superseded layout once its last snapshot reader drains, and to log
        full-page after-images when a transaction renders a new layout.
        """
        ids: list[int] = []
        if self.extent is not None:
            ids.extend(self.extent.page_ids)
        for group in self.column_groups:
            ids.extend(group.extent.page_ids)
        for mirror in self.mirrors:
            ids.extend(mirror.page_ids())
        return ids

    def cells_overlapping(
        self, ranges: dict[str, tuple[float, float]]
    ) -> list[CellEntry]:
        """Directory lookup: cells whose bounds intersect the query ranges.

        ``ranges`` maps dimension name to an inclusive [lo, hi] interval;
        dimensions absent from ``ranges`` are unconstrained.
        """
        keep = self.cell_keep(ranges)
        return [self.cell_directory[i] for i in vector.mask_indexes(keep)]

    def cell_keep(self, ranges: dict[str, tuple[float, float]], keep=None):
        """``keep`` (a selection mask over ``cell_directory``; ``None`` =
        every cell) narrowed to the cells whose bounds can intersect the
        query ranges — one vector pass per constrained dimension.

        The single home of the half-open cell-bound convention
        (``[lo, hi)`` per dimension vs inclusive query intervals) — every
        pruning path must test through here so they can never diverge.
        """
        if self.plan.grid is None:
            raise StorageError("layout is not gridded")
        for dim, (lows, highs) in zip(self.plan.grid.dims, self.cell_bounds):
            query = ranges.get(dim)
            if query is not None:
                keep = vector.mask_and_not(
                    keep,
                    vector.disjoint_mask(lows, highs, *query, half_open=True),
                )
        if keep is None:
            keep = [True] * len(self.cell_directory)
        return keep


class LayoutRenderer:
    """Write evaluated nestings to pages and read them back.

    Args:
        pool: buffer pool fronting the disk manager; reads go through the
            pool (so repeated traversals can hit memory), writes go straight
            to the disk manager (rendering is a bulk operation).
    """

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.disk = pool.disk
        self.page_size = pool.disk.page_size
        #: Optional ``(page_id, image)`` callable told of every page a
        #: render writes; a durable store logs the images at commit.
        self.page_sink = None
        #: Per thread, the extents of the render under way (``extents``:
        #: their page id lists; ``None`` outside a render).
        self._rendering = threading.local()
        #: What column, grid and folded reads decoded, store-wide.
        self.cache = DecodedCache()

    # ==================================================================
    # Rendering (write path)
    # ==================================================================

    def render(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        """Materialize ``shaped`` — a design's residual evaluated over
        columns (:func:`repro.layout.columnar.evaluate`) — on disk
        according to ``plan``.

        A render that raises gives back every extent it allocated — all
        of a multi-extent layout's, the one being written included: their
        pages are freed and their frames discarded, so an aborted write
        leaves no page that is neither free nor a run's. A
        :class:`CrashError` (power loss) leaves them to the next open.
        """
        self._rendering.extents = extents = []
        try:
            return self._render(plan, shaped)
        except CrashError:
            raise
        except Exception:
            for page_ids in extents:
                for page_id in page_ids:
                    self.pool.discard(page_id)
                    self.disk.free_page(page_id)
            raise
        finally:
            self._rendering.extents = None

    def _render(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        if plan.kind == LAYOUT_ROWS:
            return self._render_rows(plan, shaped)
        if plan.kind == LAYOUT_COLUMNS:
            return self._render_columns(plan, shaped)
        if plan.kind == LAYOUT_GRID:
            return self._render_grid(plan, shaped)
        if plan.kind == LAYOUT_FOLDED:
            return self._render_folded(plan, shaped)
        if plan.kind == LAYOUT_ARRAY:
            return self._render_array(plan, shaped)
        if plan.kind == LAYOUT_MIRROR:
            return self._render_mirror(plan, shaped)
        # Partitioned and levelled tables render region by region, through
        # catalog state (partition map, runs) above the renderer.
        raise StorageError(f"cannot render a {plan.kind!r} plan as one layout")

    def render_region(
        self, plan: PhysicalPlan, residual: Any, batch: ColumnBatch
    ) -> StoredLayout:
        """Render one region's run from a batch of stored records — the
        entry point of every write.

        ``residual`` is the region plan's structural residual
        (:func:`repro.engine.table.split_design`: the design with its
        record-level operators replaced by a reference to the stored
        records, ``__stored__``); evaluating it applies the structural
        operators for this region only, so a single partition or run can be
        (re-)rendered without touching its siblings.

        The residual runs over the batch's columns
        (:func:`repro.layout.columnar.evaluate`) and the pages are encoded
        from the column slices it leaves, so no row is built from coercion
        to pages. An array's residual is its whole expression over the
        logical rows, and leaves the nesting the array stores.
        """
        shaped = columnar.evaluate(residual, batch.fields, batch.columns())
        return self.render(plan, shaped)

    # -- rows ---------------------------------------------------------------

    def _render_rows(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        pages = RecordSerializer(plan.schema).encode_pages(
            shaped.columns, self.page_size
        )
        extent = self._write_pages(pages)
        zones = self._slotted_zones(
            tuple(plan.schema.names()), shaped.columns, pages, plan.delta_fields
        )
        return StoredLayout(
            plan=plan,
            row_count=shaped.n_rows,
            extent=extent,
            page_row_counts=[p.slot_count for p in pages],
            synopsis=LayoutSynopsis(page_zones=zones),
        )

    @staticmethod
    def _slotted_zones(
        names: tuple[str, ...],
        columns: Sequence,
        pages: Sequence[SlottedPage],
        skip_fields: Sequence[str],
    ) -> ZoneTable:
        """One zone per slotted page of the records ``columns`` hold (in
        page order)."""
        zones = ZoneTable()
        zones.add_segments(
            [page.slot_count for page in pages], names, columns, skip_fields
        )
        return zones.pack()

    def _write_pages(
        self, pages: Sequence[SlottedPage | BytePage]
    ) -> Extent:
        """Write ``pages`` as one extent: every page of the allocation is
        written exactly once, here, cached as written (a reader of the new
        run finds it warm; a frame of the page id's previous tenant is
        replaced), and its image handed to :attr:`page_sink`. Pool and
        sink keep the page's own buffer, which is not written again."""
        page_ids = self.disk.allocate_contiguous(len(pages))
        extents = getattr(self._rendering, "extents", None)
        if extents is not None:  # what an aborted render gives back
            extents.append(page_ids)
        sink = self.page_sink
        for i, page in enumerate(pages):
            next_id = page_ids[i + 1] if i + 1 < len(page_ids) else NO_PAGE
            page.set_next_page_id(next_id)
            self.disk.write_page(page_ids[i], page.buffer)
            self.pool.install(page_ids[i], page.buffer)
            if sink is not None:
                sink(page_ids[i], page.buffer)
        return Extent(page_ids)

    # -- columns -----------------------------------------------------------

    def _render_columns(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        groups = plan.column_groups or tuple(
            (f,) for f in plan.schema.names()
        )
        stores: list[ColumnGroupStore] = []
        group_zones: list[ZoneTable] = []
        for group_fields in groups:
            values = [shaped.column(f) for f in group_fields]
            if len(group_fields) == 1:
                store, zones = self._render_value_column(
                    plan, group_fields[0], values[0]
                )
            else:
                store, zones = self._render_minirecord_group(
                    plan, group_fields, values
                )
            stores.append(store)
            group_zones.append(zones)
        return StoredLayout(
            plan=plan,
            row_count=shaped.n_rows,
            column_groups=stores,
            synopsis=LayoutSynopsis(group_zones=group_zones),
        )

    def _render_value_column(
        self, plan: PhysicalPlan, field_name: str, values: Sequence[Any]
    ) -> tuple[ColumnGroupStore, ZoneTable]:
        """One field's value vector (any :mod:`repro.vector` shape) as a
        run of codec-encoded chunks, one per byte page, with a zone each.

        Chunks are slices of :meth:`Codec.encode_input`'s vector: a typed
        slice as it is for the identity and varint codecs, the slice's
        native Python values, as a list, for every other codec — a user's
        included."""
        dtype = plan.schema.field(field_name).dtype
        codec = get_codec(plan.codec_for(field_name))
        values = codec.encode_input(values)
        capacity = self.page_size - BYTES_HEADER_SIZE
        target_rows = self._target_rows(dtype, capacity)
        pages: list[BytePage] = []
        chunks: list[tuple[int, int]] = []
        start = 0
        while start < len(values):
            rows = min(target_rows, len(values) - start)
            encoded = codec.encode(values[start : start + rows], dtype)
            while len(encoded) > capacity and rows > 1:
                rows = max(1, rows // 2)
                encoded = codec.encode(values[start : start + rows], dtype)
            if len(encoded) > capacity:
                raise StorageError(
                    f"a single {field_name} value exceeds page capacity"
                )
            page = BytePage(self.page_size)
            page.write(encoded)
            chunks.append((len(pages), rows))
            pages.append(page)
            start += rows
        if not pages:  # empty column still owns one (empty) page
            page = BytePage(self.page_size)
            page.write(codec.encode([], dtype))
            chunks.append((0, 0))
            pages.append(page)
        # (An empty column's one zone summarizes even a delta field.)
        zones = ZoneTable()
        zones.add_segments(
            [rows for _, rows in chunks], (field_name,), [values],
            plan.delta_fields if len(values) else (),
        )
        extent = self._write_pages(pages)
        return ColumnGroupStore((field_name,), extent, chunks), zones.pack()

    def _target_rows(self, dtype: Any, capacity: int) -> int:
        width = dtype.fixed_size if dtype.fixed_size else dtype.estimated_size()
        return max(1, (capacity - 16) // max(1, width))

    def _render_minirecord_group(
        self, plan: PhysicalPlan, group_fields: tuple[str, ...], columns: list
    ) -> tuple[ColumnGroupStore, ZoneTable]:
        sub_schema = plan.schema.project(group_fields)
        pages = RecordSerializer(sub_schema).encode_pages(columns, self.page_size)
        extent = self._write_pages(pages)
        zones = self._slotted_zones(
            tuple(group_fields), columns, pages, plan.delta_fields
        )
        return ColumnGroupStore(tuple(group_fields), extent), zones

    # -- grid -------------------------------------------------------------

    def _render_grid(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        grid = shaped.grid
        schema = plan.schema
        counts = shaped.counts
        columns = [shaped.column(name) for name in schema.names()]
        stream = bytearray()
        directory: list[CellEntry] = []
        for coord, rows, blob in zip(
            grid.coords, counts, self._encode_cells(plan, schema, columns, counts)
        ):
            directory.append(
                CellEntry(
                    coord=tuple(coord),
                    bounds=tuple(grid.cell_bounds(coord)),
                    offset=len(stream),
                    length=len(blob),
                    row_count=rows,
                )
            )
            stream += blob
        cell_zones = ZoneTable()
        cell_zones.add_segments(
            counts, tuple(schema.names()), columns, plan.delta_fields
        )
        extent = self._write_stream(bytes(stream))
        return StoredLayout(
            plan=plan,
            row_count=shaped.n_rows,
            extent=extent,
            cell_directory=directory,
            grid_origin=tuple(grid.origin),
            synopsis=LayoutSynopsis(cell_zones=cell_zones.pack()),
        )

    def _encode_cells(
        self,
        plan: PhysicalPlan,
        schema: Schema,
        columns: list,
        counts: Sequence[int],
    ) -> list[bytes]:
        """The blob of each cell — ``counts`` rows of ``columns`` (parallel
        to ``schema``'s fields), back to back: its row and field counts,
        then one length-prefixed codec blob per field, each field's blobs
        encoded in one :meth:`Codec.encode_segments` call."""
        fields = [
            get_codec(plan.codec_for(f.name)).encode_segments(column, counts, f.dtype)
            for f, column in zip(schema.fields, columns)
        ]
        header = _U16.pack(len(schema.fields))
        cells = []
        for k, rows in enumerate(counts):
            parts = [_U32.pack(rows), header]
            for blobs in fields:
                parts += (_U32.pack(len(blobs[k])), blobs[k])
            cells.append(b"".join(parts))
        return cells

    def _write_stream(self, stream: bytes) -> Extent:
        capacity = self.page_size - BYTES_HEADER_SIZE
        pages: list[BytePage] = []
        for start in range(0, max(len(stream), 1), capacity):
            page = BytePage(self.page_size)
            page.write(stream[start : start + capacity])
            pages.append(page)
        return self._write_pages(pages)

    # -- folded ------------------------------------------------------------

    def _render_folded(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        group_schema = plan.schema.project(plan.group_fields)
        key_serializer = RecordSerializer(group_schema)
        nest_types = _nest_types(
            plan.schema.field("__folded__").dtype, len(plan.nest_fields)
        )
        counts = shaped.counts
        firsts = list(accumulate(counts, initial=0))[:-1]
        key_columns = [
            vector.to_list(vector.take(shaped.column(name), firsts))
            for name in plan.group_fields
        ]
        keys = list(zip(*key_columns)) if key_columns else [()] * len(counts)
        nests = [shaped.column(name) for name in plan.nest_fields]
        blobs = [
            get_codec(plan.codec_for(name)).encode_segments(column, counts, dtype)
            for name, column, dtype in zip(plan.nest_fields, nests, nest_types)
        ]
        stream = bytearray()
        directory: list[tuple[int, int]] = []
        for k, (key, rows) in enumerate(zip(keys, counts)):
            parts = [key_serializer.encode(key), _U32.pack(rows)]
            for field_blobs in blobs:
                parts += (_U32.pack(len(field_blobs[k])), field_blobs[k])
            blob = b"".join(parts)
            directory.append((len(stream), len(blob)))
            stream += blob
        # A key field's zone is its one value; a nest field's its vector.
        folded_zones = ZoneTable()
        skip = set(plan.delta_fields)
        if counts:
            folded_zones.row_counts.extend(counts)
            ones = [1] * len(counts)
            parts = [(column, ones) for column in key_columns]
            parts += [(column, counts) for column in nests]
            names = plan.group_fields + plan.nest_fields
            for name, (column, sizes) in zip(names, parts):
                if name not in skip:
                    folded_zones.add_bounds(
                        name, *vector.segment_bounds(column, sizes)
                    )
        extent = self._write_stream(bytes(stream))
        return StoredLayout(
            plan=plan,
            row_count=shaped.n_rows,
            extent=extent,
            folded_directory=directory,
            folded_keys=keys,
            synopsis=LayoutSynopsis(folded_zones=folded_zones.pack()),
        )

    # -- array -------------------------------------------------------------

    def _render_array(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        leaves = flatten(shaped.nesting)
        array_shape = nesting_shape(shaped.nesting)
        dtype = _leaf_dtype(leaves)
        serializer = VectorSerializer(dtype)
        capacity = self.page_size - BYTES_HEADER_SIZE
        width = dtype.fixed_size or dtype.estimated_size()
        per_page = max(1, (capacity - 8) // max(1, width))
        pages: list[BytePage] = []
        zones = ZoneTable()
        for start in range(0, max(len(leaves), 1), per_page):
            chunk = leaves[start : start + per_page]
            page = BytePage(self.page_size)
            page.write(serializer.encode(chunk))
            zones.add(len(chunk), ("value",), [chunk])
            pages.append(page)
        extent = self._write_pages(pages)
        return StoredLayout(
            plan=plan,
            row_count=len(leaves),
            extent=extent,
            array_shape=array_shape,
            array_values_per_page=per_page,
            array_dtype=dtype,
            synopsis=LayoutSynopsis(page_zones=zones.pack()),
        )

    # -- mirror ------------------------------------------------------------

    def _render_mirror(self, plan: PhysicalPlan, shaped: Shaped) -> StoredLayout:
        left_plan, right_plan = plan.mirror_plans
        left = self._render(left_plan, shaped.sides[0])
        right = self._render(right_plan, shaped.sides[1])
        return StoredLayout(
            plan=plan,
            row_count=left.row_count,
            mirrors=[left, right],
        )

    # ==================================================================
    # Reading (scan path)
    # ==================================================================

    def _read_slotted(self, page_id: int, serializer: RecordSerializer) -> list:
        """One slotted page's records as per-field vectors, via the pool."""
        frame = self.pool.fetch(page_id)
        try:
            return serializer.decode_page(frame.data, self.page_size)
        finally:
            self.pool.unpin(page_id)

    def _read_stream_range(
        self, layout: StoredLayout, offset: int, length: int
    ) -> bytes:
        if layout.extent is None:
            raise StorageError("layout has no stream extent")
        capacity = self.page_size - BYTES_HEADER_SIZE
        first = offset // capacity
        last = (offset + max(length, 1) - 1) // capacity
        chunks: list[bytes] = []
        for page_index in range(first, last + 1):
            page_id = layout.extent.page_ids[page_index]
            frame = self.pool.fetch(page_id)
            try:
                page = BytePage(self.page_size, frame.data)
                chunks.append(page.read())
            finally:
                self.pool.unpin(page_id)
        joined = b"".join(chunks)
        start = offset - first * capacity
        return joined[start : start + length]

    def pages_for_cells(
        self, layout: StoredLayout, entries: Sequence[CellEntry]
    ) -> list[int]:
        """Distinct page ids covering ``entries``, in storage order."""
        return self.pages_for_stream_ranges(
            layout, [(e.offset, e.length) for e in entries]
        )

    def pages_for_stream_ranges(
        self, layout: StoredLayout, ranges: Sequence[tuple[int, int]]
    ) -> list[int]:
        """Distinct page ids covering ``(offset, length)`` byte ranges of a
        stream extent (grid cell streams, folded record streams), in
        storage order — the one place the stream-to-page geometry lives."""
        capacity = self.page_size - BYTES_HEADER_SIZE
        page_indexes: set[int] = set()
        for offset, length in ranges:
            first = offset // capacity
            last = (offset + max(length, 1) - 1) // capacity
            page_indexes.update(range(first, last + 1))
        assert layout.extent is not None
        return [
            layout.extent.page_ids[i] for i in sorted(page_indexes)
        ]

    # ==================================================================
    # Reading (batch-at-a-time scan path)
    # ==================================================================

    def iter_row_batches(
        self,
        layout: StoredLayout,
        skip: "set[int] | None" = None,
        start: int = 0,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> Iterator[ColumnBatch]:
        """Row-layout records as columnar batches, a batch of pages at a time.

        ``skip`` holds extent positions of pages zone-map pruning ruled out;
        skipped pages are never fetched from the buffer pool or decoded.
        ``start`` is the extent position to begin at (sorted-range scans).

        Pages are fetched one by one, in extent order, and each is unpinned
        before the next is fetched. The record heap of a *packed* page
        (:meth:`RecordSerializer.packed_heap`) is copied into the batch
        being gathered, which closes once it holds ``batch_rows`` rows or
        the run ends and then becomes columns in one
        :meth:`RecordSerializer.decode_heap` — typed vectors, or lists where
        a record carries nulls. Any other non-empty page closes the current
        batch and is decoded alone by :meth:`RecordSerializer.decode_page`.
        A corrupt page first yields the rows gathered before it, so a scan
        that contains the error keeps exactly the rows of the pages ahead.
        """
        if layout.extent is None:
            return
        serializer = RecordSerializer(layout.plan.schema)
        fields = tuple(layout.plan.schema.names())
        page_ids = layout.extent.page_ids
        batch_bytes = batch_rows * serializer.record_size
        gathered = bytearray()

        def gathered_batch() -> ColumnBatch:
            return ColumnBatch.from_columns(
                fields, serializer.decode_heap(gathered)
            )

        for page_index in range(start, len(page_ids)):
            if skip is not None and page_index in skip:
                continue
            page_id = page_ids[page_index]
            try:
                frame = self.pool.fetch(page_id)
            except CorruptPageError:
                if gathered:
                    yield gathered_batch()
                raise
            try:
                page = SlottedPage(self.page_size, frame.data)
                heap = serializer.packed_heap(page)
                if heap is None:
                    columns = serializer.decode_page(frame.data, self.page_size)
                else:
                    gathered += heap
                    heap.release()
            finally:
                self.pool.unpin(page_id)
            if heap is not None:
                if len(gathered) >= batch_bytes:
                    yield gathered_batch()
                    gathered = bytearray()
            elif columns and len(columns[0]):
                if gathered:
                    yield gathered_batch()
                    gathered = bytearray()
                yield ColumnBatch.from_columns(fields, columns)
        if gathered:
            yield gathered_batch()

    def iter_column_batches(
        self, layout: StoredLayout, group_indexes: Sequence[int]
    ) -> Iterator[ColumnBatch]:
        """Positionally aligned batches over the given column groups, one
        per window: batch k is rows ``[kW, (k+1)W)`` (:data:`WINDOW_ROWS`)
        of every scanned group, so groups align by construction, and its
        vectors *are* the groups' cached windows (:class:`_GroupSlicer`) —
        a warm scan allocates no column vector.
        """
        fields = tuple(
            f
            for i in group_indexes
            for f in layout.column_groups[i].fields
        )
        slicers = [_GroupSlicer(self, layout, i) for i in group_indexes]
        for start in range(0, layout.row_count, WINDOW_ROWS):
            _GroupSlicer.load(
                slicers, start, min(start + WINDOW_ROWS, layout.row_count)
            )
            yield ColumnBatch.from_columns(
                fields, [c for slicer in slicers for c in slicer.window(start)]
            )

    def iter_pruned_column_batches(
        self,
        layout: StoredLayout,
        group_indexes: Sequence[int],
        keep: Sequence[tuple[int, int]],
    ) -> Iterator[ColumnBatch]:
        """Aligned column batches restricted to the ``keep`` row intervals.

        ``keep`` comes from :func:`repro.engine.synopsis.column_keep_intervals`
        (sorted, disjoint, ascending). Each interval is cut at window
        boundaries, and every group serves the same row ranges whatever its
        own chunk geometry, so groups stay positionally aligned. A range is
        cut from its cached window, or else from the chunks it lives in:
        chunks entirely outside ``keep`` are never fetched or decoded.
        """
        if not keep:
            return
        fields = tuple(
            f
            for i in group_indexes
            for f in layout.column_groups[i].fields
        )
        slicers = [_GroupSlicer(self, layout, i) for i in group_indexes]
        for start, end in keep:
            while start < end:
                cut = min(end, start - start % WINDOW_ROWS + WINDOW_ROWS)
                _GroupSlicer.load(slicers, start, cut)
                columns = [c for s in slicers for c in s.slice(start, cut)]
                if columns and len(columns[0]):
                    yield ColumnBatch.from_columns(fields, columns)
                start = cut

    def iter_grid_batches(
        self,
        layout: StoredLayout,
        entries: Sequence[CellEntry] | None = None,
        needed: Sequence[str] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Grid cells a run at a time (:meth:`_read_stream`): batches of the
        ``needed`` fields (:func:`select_cell_fields`) over ``entries`` —
        directory entries in stream order, ``None`` = every cell — each
        cell's ``(rows, fields)`` header checked against its entry."""
        schema = layout.plan.schema
        directory = layout.cell_directory if entries is None else entries
        cells = [entry for entry in directory if entry.row_count]

        n_fields = len(schema.fields)

        def header(k: int, run: bytes, at: int, limit: int):
            entry = cells[k]
            if at + _CELL_HEADER.size > limit or _CELL_HEADER.unpack_from(
                run, at
            ) != (entry.row_count, n_fields):
                raise StorageError(
                    f"cell {entry.coord}: header disagrees with its entry"
                )
            return entry.row_count, at + _CELL_HEADER.size, ()

        return self._read_stream(
            layout,
            [(entry.offset, entry.length) for entry in cells],
            header,
            [(f.name, f.dtype) for f in schema.fields],
            select_cell_fields(schema, needed),
        )

    def iter_folded_batches(
        self,
        layout: StoredLayout,
        indices: Sequence[int] | None = None,
        needed: Sequence[str] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Folded records un-nested (:meth:`_read_stream`): batches of the
        group fields and the ``needed`` nest fields (``None`` = every one)
        over the records at ``indices`` — directory positions in stream
        order, ``None`` = every record. Each record's key is checked against
        ``folded_keys`` and repeated by its count.
        """
        plan = layout.plan
        serializer = RecordSerializer(plan.schema.project(plan.group_fields))
        if indices is None:
            indices = range(len(layout.folded_directory))

        def header(k: int, run: bytes, at: int, limit: int):
            key = serializer.decode(run[at:limit])
            end = at + serializer.encoded_size(key)
            if end + 4 > limit or run[at:end] != serializer.encode(
                layout.folded_keys[indices[k]]
            ):
                raise StorageError(
                    f"folded record {indices[k]}: header disagrees with its entry"
                )
            return _U32.unpack_from(run, end)[0], end + 4, key

        nest = plan.nest_fields
        types = _nest_types(plan.schema.field("__folded__").dtype, len(nest))
        return self._read_stream(
            layout,
            [layout.folded_directory[i] for i in indices],
            header,
            list(zip(nest, types)),
            [i for i, f in enumerate(nest) if needed is None or f in needed],
            tuple(plan.group_fields),
        )

    def _read_stream(
        self,
        layout: StoredLayout,
        spans: Sequence[tuple[int, int]],
        header: Callable[[int, bytes, int, int], tuple[int, int, tuple]],
        fields: Sequence[tuple[str, Any]],
        wanted: Sequence[int],
        key_fields: tuple[str, ...] = (),
    ) -> Iterator[ColumnBatch]:
        """Columnar batches of the stream records — grid cells, folded
        records — at ``spans``, their ``(offset, length)`` in stream order.

        A record is a header, which ``header(k, run, at, limit)`` checks
        against record ``k``'s directory entry, returning ``(count, end of
        header, key)``, then one length-prefixed codec blob per ``(name,
        dtype)`` of ``fields``. A batch holds the ``key_fields`` (each key
        repeated ``count`` times) and the ``wanted`` fields, and closes at
        the first record that brings its bytes to a page's worth.

        A record decodes once: its ``(count, key, {field: vector})`` is
        kept in the store's decoded cache under its stream offset, and a
        record held there with every wanted field is not read again. The
        others are: records that start on a page the previous one's range
        reaches are fetched as one range, every header and length prefix
        is checked, and fields unwanted or already held are stepped over.
        Fields that decode alike — same codec, same type, delta or not —
        decode together: the batch's blobs of all of them are one
        :meth:`Codec.decode_buffer` call, each blob's count given, and for
        delta fields one :func:`repro.vector.prefix_sum` restarting at
        every blob; the result is cut back into records, each record's
        piece a vector of its own.
        """
        plan = layout.plan
        cache = self.cache
        capacity = self.page_size - BYTES_HEADER_SIZE
        names = key_fields + tuple(fields[i][0] for i in wanted)
        groups: dict[tuple, list[int]] = {}
        for i in wanted:
            name, dtype = fields[i]
            decode = (plan.codec_for(name), dtype, name in plan.delta_fields)
            groups.setdefault(decode, []).append(i)
        take = set(wanted)
        unpack = _U32.unpack_from
        start = 0
        while start < len(spans):
            stop, size = start, 0
            while stop < len(spans) and size < capacity:
                size += spans[stop][1]
                stop += 1
            records = [cache.get(layout, spans[k][0]) for k in range(start, stop)]
            read = [
                k
                for k, record in enumerate(records, start)
                if record is None or not take <= record[2].keys()
            ]
            # Per wanted field, ``(record, blob)`` of each blob to decode.
            blobs: dict[int, list[tuple[int, bytes]]] = {i: [] for i in take}
            r = 0
            while r < len(read):
                # One stream range per run of records: a record joins the
                # run when it starts on a page the range reaches anyway.
                offset, end = spans[read[r]][0], sum(spans[read[r]])
                stop_r = r + 1
                while (
                    stop_r < len(read)
                    and spans[read[stop_r]][0] // capacity <= (end - 1) // capacity
                ):
                    end = max(end, sum(spans[read[stop_r]]))
                    stop_r += 1
                run = self._read_stream_range(layout, offset, end - offset)
                if len(run) != end - offset:
                    raise StorageError(
                        f"stream holds {len(run)} of the {end - offset} "
                        f"bytes the directory places at offset {offset}"
                    )
                for k in read[r:stop_r]:
                    held = records[k - start]
                    held = {} if held is None else held[2]
                    at, limit = spans[k]
                    at -= offset
                    limit += at
                    count, at, key = header(k, run, at, limit)
                    for i in range(len(fields)):
                        if at + 4 > limit:  # a field header cut by the end
                            at = -1
                            break
                        (length,) = unpack(run, at)
                        at += 4
                        if i in take and i not in held:
                            blobs[i].append((k, run[at : at + length]))
                        at += length
                    if at != limit:
                        raise StorageError(
                            f"record at stream offset {spans[k][0]}: its "
                            f"fields do not fill its {spans[k][1]} bytes"
                        )
                    records[k - start] = (count, key, dict(held))
                r = stop_r
            for (codec, dtype, delta), members in groups.items():
                parts = [(i, k, blob) for i in members for k, blob in blobs[i]]
                if not parts:
                    continue
                repeated = [records[k - start][0] for _, k, _ in parts]
                values = get_codec(codec).decode_buffer(
                    b"".join(blob for _, _, blob in parts),
                    dtype,
                    [len(blob) for _, _, blob in parts],
                    repeated,
                )
                if delta:
                    values = vector.prefix_sum(values, repeated)
                cuts = accumulate(repeated, initial=0)
                for (i, k, _), at, count in zip(parts, cuts, repeated):
                    piece = values[at : at + count]
                    records[k - start][2][i] = vector.owned(piece)
            for k in read:
                record = records[k - start]
                nbytes = sum(map(vector.nbytes, record[2].values()))
                cache.put(layout, spans[k][0], record, nbytes)
            keys: list[list] = [[] for _ in key_fields]
            for count, key, _ in records:
                for column, value in zip(keys, key):
                    column.extend(repeat(value, count))
            columns = [vector.concat([rec[2][i] for rec in records]) for i in wanted]
            yield ColumnBatch.from_columns(names, keys + columns)
            start = stop

    def iter_array_batches(
        self,
        layout: StoredLayout,
        skip: "set[int] | None" = None,
    ) -> Iterator[ColumnBatch]:
        """Array leaves as single-column batches, one per page.

        ``skip`` holds extent positions of zone-pruned pages (never fetched).
        """
        if layout.extent is None:
            return
        dtype = layout.array_dtype or layout.plan.schema.fields[0].dtype
        serializer = VectorSerializer(dtype)
        for page_index, page_id in enumerate(layout.extent.page_ids):
            if skip is not None and page_index in skip:
                continue
            frame = self.pool.fetch(page_id)
            try:
                page = BytePage(self.page_size, frame.data)
                values = serializer.decode_buffer(page.read())
            finally:
                self.pool.unpin(page_id)
            if len(values):
                yield ColumnBatch.from_columns(("value",), [values])

    def get_array_element(self, layout: StoredLayout, index: Sequence[int] | int) -> Any:
        """Direct-offset lookup of one array element (multidim supported)."""
        flat = self._flat_index(layout, index)
        if not 0 <= flat < layout.row_count:
            raise StorageError(f"array index {index!r} out of bounds")
        page_index = flat // layout.array_values_per_page
        within = flat % layout.array_values_per_page
        assert layout.extent is not None
        page_id = layout.extent.page_ids[page_index]
        frame = self.pool.fetch(page_id)
        try:
            page = BytePage(self.page_size, frame.data)
            dtype = layout.array_dtype or layout.plan.schema.fields[0].dtype
            values = VectorSerializer(dtype).decode(page.read())
            return values[within]
        finally:
            self.pool.unpin(page_id)

    def _flat_index(self, layout: StoredLayout, index: Sequence[int] | int) -> int:
        if isinstance(index, int):
            return index
        shape = layout.array_shape
        if shape is None or len(shape) != len(index):
            raise StorageError(
                f"multidimensional index {index!r} does not match array "
                f"shape {shape!r}"
            )
        flat = 0
        for extent, i in zip(shape, index):
            if not 0 <= i < extent:
                raise StorageError(f"index {index!r} outside shape {shape!r}")
            flat = flat * extent + i
        return flat


def _nest_types(folded_dtype: Any, n_nest_fields: int) -> list:
    """Element types of the folded vectors, from the ListType schema entry."""
    from repro.types.types import ListType, NestedType

    if not isinstance(folded_dtype, ListType):
        raise StorageError("__folded__ field is not a list type")
    element = folded_dtype.element_type
    if n_nest_fields == 1:
        return [element]
    if not isinstance(element, NestedType):
        raise StorageError("multi-field fold requires nested element type")
    return list(element.element_types)


def _leaf_dtype(leaves: Sequence[Any]):
    from repro.types.types import FLOAT, INT, STRING

    if all(isinstance(v, int) and not isinstance(v, bool) for v in leaves):
        return INT
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in leaves):
        return FLOAT
    return STRING
