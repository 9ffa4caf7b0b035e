"""Render physical plans onto disk pages, and read them back.

The renderer is the paper's "storage backend" write path (§4.2): it takes a
batch of stored records plus the compiled
:class:`repro.algebra.physical.PhysicalPlan` and its structural residual
(:meth:`LayoutRenderer.render_region`), evaluates the residual into a
nesting and lays bytes onto pages. Each storage object (row heap, column
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
from repro.algebra.transforms import Evaluated, Evaluator, GridResult
from repro import vector
from repro.compression import NoneCodec, get_codec
from repro.engine.synopsis import LayoutSynopsis, ZoneTable, group_chunk_rows
from repro.errors import CorruptPageError, StorageError
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

#: Rows per column *window*: the unit a column group's decoded cache holds
#: and a full column scan yields — batch k is rows ``[kW, (k+1)W)`` of every
#: scanned group. The keyed operators fold the same number of rows per
#: kernel call (:func:`repro.query.operators._chunks`).
WINDOW_ROWS = 65_536

#: Decoded rows kept per column group, in chunks' worth: the group's
#: cache holds at most this many of its largest chunk's rows, evicting the
#: oldest entry first. The cache lives on :class:`ColumnGroupStore`, which
#: every rewrite replaces wholesale — invalidation is structural.
_CHUNK_CACHE_LIMIT = 512


class ColumnBatch:
    """A batch of decoded records, backed by rows or by typed columns.

    Every layout's reader decodes to per-field vectors (contiguous typed
    ones for numeric fields, plain lists otherwise; see :mod:`repro.vector`);
    batches built from rows (pending inserts, merges) hold tuples. Either
    orientation transposes lazily when the consumer needs the other.

    Columnar batches may additionally carry a *selection bitmap*: a
    boolean mask over the underlying vectors recording which rows a
    vectorized predicate kept. The mask is resolved lazily — projections
    and further filters ride on top of it without materializing the
    surviving rows; ``rows()`` stays the compatibility shim that always
    yields native-python tuples in ``fields`` order.
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
        selection bitmap resolved (cached). Vectors may be shared with a
        column group's cache and other batches — treat them as read-only."""
        if self._columns is None:
            if self._rows:
                self._columns = list(zip(*self._rows))
            else:
                self._columns = [() for _ in self.fields]
        elif self._selection is not None:
            mask = self._selection
            self._columns = [vector.apply_mask(c, mask) for c in self._columns]
            self._selection = None
        return self._columns

    def column_map(self) -> dict[str, Sequence]:
        """``field name -> value vector`` view of :meth:`columns`."""
        return dict(zip(self.fields, self.columns()))

    def select(self, mask, count: int | None = None) -> "ColumnBatch":
        """A batch restricted to the rows where ``mask`` is true.

        ``mask`` is a boolean vector over this batch's *visible* rows
        (``n_rows`` long). Columnar batches defer the gather: the new
        batch shares the underlying vectors and just records the bitmap.
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
        cols = self.columns() if self._selection is not None else self._columns
        if count == 0:
            return ColumnBatch(self.fields, 0, rows=[])
        return ColumnBatch(self.fields, count, columns=cols, selection=mask)

    def project_columns(
        self, idx: Sequence[int], fields: tuple[str, ...]
    ) -> "ColumnBatch":
        """Reorder/subset columns without touching the selection bitmap
        (a row-backed batch is transposed first)."""
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
    """One column group's rows by position, read through its decoded cache.

    A full scan takes :meth:`window`: rows ``[kW, (k+1)W)`` of every field,
    assembled from the chunks the first time and cached whole, so the next
    scan's batch *is* the cached window. A zone-pruned scan takes
    :meth:`slice`: a cut of the cached window, or else of the chunks the
    rows live in, each decoded once and cached. Assembling a window takes
    over the chunk entries it uses, so no row is cached twice; a chunk
    straddling the window's end is carried to the next window rather than
    read again. Before either, the scanned groups decode what they lack
    together, in row order (:meth:`load`).

    Chunk row counts come from the catalog — ``chunks`` for a one-field
    group, its zone table (else its page headers) for a mini-record group.
    They must sum to the layout's rows and each decoded chunk must hold its
    count: a mismatch raises :class:`StorageError`, so a group whose
    metadata disagrees can neither drop nor misalign rows.
    """

    __slots__ = (
        "_renderer",
        "_store",
        "_rows",
        "_dtype",
        "_codec",
        "_serializer",
        "_starts",
        "_limit",
        "_carry",
        "_staged",
    )

    def __init__(self, renderer: "LayoutRenderer", layout: "StoredLayout", group_index: int):
        self._renderer = renderer
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
        self._limit = _CHUNK_CACHE_LIMIT * max(counts, default=0)
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

    def _missing(self, start: int, end: int) -> list[tuple[int, int]]:
        """``(first row wanted, chunk)`` for each chunk reading rows
        ``[start, end)`` has to decode: neither their window nor the chunk
        is cached, and the chunk is not carried over."""
        cache, starts = self._store.cache, self._starts
        origin = start - start % WINDOW_ROWS
        if (origin, min(origin + WINDOW_ROWS, self._rows)) in cache:
            return []
        return [
            (max(start, starts[i]), i)
            for i, _, _ in self._overlaps(start, end)
            if i != self._carry[0] and (starts[i], starts[i + 1]) not in cache
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
        key = (start, min(start + WINDOW_ROWS, self._rows))
        window = self._store.cache.get(key)
        if window is not None:
            return window
        starts = self._starts
        parts: list[list] = [[] for _ in self._store.fields]
        for i, lo, hi in self._overlaps(*key):
            carried, columns = self._carry
            cached = self._store.cache.pop((starts[i], starts[i + 1]), None)
            if carried != i:
                columns = cached or self._staged.pop(i, None) or self._decode(i)
            if starts[i + 1] > key[1]:  # its tail opens the next window
                self._carry = (i, columns)
            for part, column in zip(parts, columns):
                part.append(column if hi - lo == len(column) else column[lo:hi])
        window = [vector.concat(part) for part in parts]
        self._put(key, window)
        return window

    def slice(self, start: int, end: int) -> list:
        """Per-field value vectors of rows ``[start, end)``, which lie in
        one window: cut from that window when it is cached, else from the
        chunks the rows live in (chunks the range misses are never read)."""
        origin = start - start % WINDOW_ROWS
        cache = self._store.cache
        window = cache.get((origin, min(origin + WINDOW_ROWS, self._rows)))
        if window is not None:
            return [column[start - origin : end - origin] for column in window]
        parts: list[list] = [[] for _ in self._store.fields]
        for i, lo, hi in self._overlaps(start, end):
            key = (self._starts[i], self._starts[i + 1])
            columns = cache.get(key)
            if columns is None:
                columns = self._staged.pop(i, None) or self._decode(i)
                self._put(key, columns)
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

    def _put(self, key: tuple[int, int], value: list) -> None:
        """Cache ``value`` as rows ``key``, evicting the oldest entries
        past the group's bound; an entry the bound cannot hold is not
        cached. Concurrent scans share the cache, so the rows held are
        summed over a snapshot of its keys rather than kept in a counter."""
        rows = key[1] - key[0]
        if rows > self._limit:
            return
        cache = self._store.cache
        entries = [entry for entry in list(cache) if entry != key]
        held = sum(end - start for start, end in entries)
        for start, end in entries:
            if held + rows <= self._limit:
                break
            cache.pop((start, end), None)
            held -= end - start
        cache[key] = value


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
    """Stored form of one vertical partition."""

    fields: tuple[str, ...]
    extent: Extent
    # For single-field groups: (page index in extent, row count) per chunk.
    chunks: list[tuple[int, int]] = field(default_factory=list)
    # Decoded rows, ``(start, end) -> per-field vectors``: a window a full
    # scan assembled, or a chunk a pruned scan decoded — a window takes
    # over the chunk entries it uses. FIFO within ``_CHUNK_CACHE_LIMIT``
    # chunks' worth of rows. Stores are immutable once rendered — rewrites
    # build new ColumnGroupStore objects — so entries never go stale;
    # never persisted.
    cache: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class StoredLayout:
    """A rendered table: page extents plus directories, per layout kind."""

    plan: PhysicalPlan
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
    # (lows, highs) bound vectors per grid dimension, parallel to
    # ``cell_directory`` (struct-of-arrays twin of ``CellEntry.bounds``).
    cell_bounds: list[tuple] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.page_starts = list(accumulate(self.page_row_counts, initial=0))
        if self.synopsis is not None:
            self.synopsis_error = self._synopsis_shape_error(self.synopsis)
            if self.synopsis_error is not None:
                self.synopsis = None
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

    def clear_caches(self) -> None:
        """Drop every column group's cached windows and chunks in this
        layout (and mirrors).

        Only the cold-measurement harness (``RodentStore.run_cold``) calls
        this: "cold" means the decoded vectors are gone too, so a scan pays
        its true page reads again."""
        for group in self.column_groups:
            group.cache.clear()
        for mirror in self.mirrors:
            mirror.clear_caches()

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

    # ==================================================================
    # Rendering (write path)
    # ==================================================================

    def render(self, plan: PhysicalPlan, evaluated: Evaluated) -> StoredLayout:
        """Materialize ``evaluated`` on disk according to ``plan``."""
        if plan.kind == LAYOUT_ROWS:
            return self._render_rows(plan, evaluated)
        if plan.kind == LAYOUT_COLUMNS:
            return self._render_columns(plan, evaluated)
        if plan.kind == LAYOUT_GRID:
            return self._render_grid(plan, evaluated)
        if plan.kind == LAYOUT_FOLDED:
            return self._render_folded(plan, evaluated)
        if plan.kind == LAYOUT_ARRAY:
            return self._render_array(plan, evaluated)
        if plan.kind == LAYOUT_MIRROR:
            return self._render_mirror(plan, evaluated)
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
        (re-)rendered without touching its siblings. An array's residual is
        its whole expression, over the logical rows.

        ``__stored__`` is bound to ``batch`` itself. A ``columns`` residual
        over it (under any ``compress``) takes the batch's vectors as they
        are — a merge of column runs hands the vectors it decoded straight
        to the chunk encoder; a multi-field group zips only its own fields.
        Every other residual (``orderby``, ``delta``, ``grid``, ``fold``,
        rows) evaluates ``batch.rows()``. Pages are byte-identical either
        way.
        """
        evaluator = Evaluator({"__stored__": batch})
        return self.render(plan, evaluator.evaluate(residual))

    # -- rows ---------------------------------------------------------------

    def _render_rows(self, plan: PhysicalPlan, evaluated: Evaluated) -> StoredLayout:
        records = evaluated.records()
        pages = self._pack_slotted(RecordSerializer(plan.schema), records)
        extent = self._write_pages(pages)
        zones = self._slotted_zones(
            tuple(plan.schema.names()), records, pages, plan.delta_fields
        )
        return StoredLayout(
            plan=plan,
            row_count=len(records),
            extent=extent,
            page_row_counts=[p.slot_count for p in pages],
            synopsis=LayoutSynopsis(page_zones=zones),
        )

    @staticmethod
    def _slotted_zones(
        names: tuple[str, ...],
        records: Sequence[Sequence[Any]],
        pages: Sequence[SlottedPage],
        skip_fields: Sequence[str],
    ) -> ZoneTable:
        """One zone per slotted page of ``records`` (in page order)."""
        zones = ZoneTable()
        start = 0
        for page in pages:
            end = start + page.slot_count
            zones.add_rows(names, records[start:end], skip_fields)
            start = end
        return zones.pack()

    def _pack_slotted(
        self, serializer: RecordSerializer, records: Sequence[Sequence[Any]]
    ) -> list[SlottedPage]:
        """``records`` as a run of slotted pages (one empty page for none)."""
        pages: list[SlottedPage] = []
        start = 0
        while True:
            page, count = serializer.encode_page(records, start, self.page_size)
            pages.append(page)
            start += count
            if start >= len(records):
                return pages

    def _write_pages(
        self, pages: Sequence[SlottedPage | BytePage]
    ) -> Extent:
        """Write ``pages`` as one extent: every page of the allocation is
        written exactly once, here, cached as written (a reader of the new
        run finds it warm; a frame of the page id's previous tenant is
        replaced), and its image handed to :attr:`page_sink`. Pool and
        sink keep the page's own buffer, which is not written again."""
        page_ids = self.disk.allocate_contiguous(len(pages))
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

    def _render_columns(
        self, plan: PhysicalPlan, evaluated: Evaluated
    ) -> StoredLayout:
        groups = plan.column_groups or tuple(
            (f,) for f in plan.schema.names()
        )
        values_by_group = evaluated.value  # parallel to groups
        stores: list[ColumnGroupStore] = []
        group_zones: list[ZoneTable] = []
        row_count = None
        for group_fields, values in zip(groups, values_by_group):
            if row_count is None:
                row_count = len(values)
            elif row_count != len(values):
                raise StorageError("column groups disagree on row count")
            if len(group_fields) == 1:
                store, zones = self._render_value_column(
                    plan, group_fields[0], values
                )
            else:
                store, zones = self._render_minirecord_group(
                    plan, group_fields, values
                )
            stores.append(store)
            group_zones.append(zones)
        return StoredLayout(
            plan=plan,
            row_count=row_count or 0,
            column_groups=stores,
            synopsis=LayoutSynopsis(group_zones=group_zones),
        )

    def _render_value_column(
        self, plan: PhysicalPlan, field_name: str, values: Sequence[Any]
    ) -> tuple[ColumnGroupStore, ZoneTable]:
        """One field's value vector (any :mod:`repro.vector` shape) as a
        run of codec-encoded chunks, one per byte page, with a zone each.

        Chunks are slices of the vector. The identity codec packs a typed
        slice as it is; every other codec — a user's included — receives
        the slice's native Python values, as a list."""
        dtype = plan.schema.field(field_name).dtype
        codec = get_codec(plan.codec_for(field_name))
        if type(codec) is not NoneCodec:
            values = list(vector.to_list(values))
        capacity = self.page_size - BYTES_HEADER_SIZE
        target_rows = self._target_rows(dtype, capacity)
        pages: list[BytePage] = []
        chunks: list[tuple[int, int]] = []
        zones = ZoneTable()
        names = (field_name,)
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
            zones.add(
                rows, names, [values[start : start + rows]], plan.delta_fields
            )
            pages.append(page)
            start += rows
        if not pages:  # empty column still owns one (empty) page
            page = BytePage(self.page_size)
            page.write(codec.encode([], dtype))
            chunks.append((0, 0))
            zones.add(0, names, [[]])
            pages.append(page)
        extent = self._write_pages(pages)
        return ColumnGroupStore((field_name,), extent, chunks), zones.pack()

    def _target_rows(self, dtype: Any, capacity: int) -> int:
        width = dtype.fixed_size if dtype.fixed_size else dtype.estimated_size()
        return max(1, (capacity - 16) // max(1, width))

    def _render_minirecord_group(
        self, plan: PhysicalPlan, group_fields: tuple[str, ...], values: list
    ) -> tuple[ColumnGroupStore, ZoneTable]:
        sub_schema = plan.schema.project(group_fields)
        pages = self._pack_slotted(RecordSerializer(sub_schema), values)
        extent = self._write_pages(pages)
        zones = self._slotted_zones(
            tuple(group_fields), values, pages, plan.delta_fields
        )
        return ColumnGroupStore(tuple(group_fields), extent), zones

    # -- grid -------------------------------------------------------------

    def _render_grid(self, plan: PhysicalPlan, evaluated: Evaluated) -> StoredLayout:
        grid: GridResult = evaluated.meta["grid"]
        schema = plan.schema
        positions = {name: i for i, name in enumerate(schema.names())}
        stream = bytearray()
        directory: list[CellEntry] = []
        cell_zones = ZoneTable()
        names = tuple(schema.names())
        total_rows = 0
        for coord, cell in zip(grid.coords, grid.cells):
            blob = self._encode_cell(plan, schema, cell)
            directory.append(
                CellEntry(
                    coord=tuple(coord),
                    bounds=tuple(grid.cell_bounds(coord)),
                    offset=len(stream),
                    length=len(blob),
                    row_count=len(cell),
                )
            )
            cell_zones.add_rows(names, cell, plan.delta_fields)
            stream += blob
            total_rows += len(cell)
        extent = self._write_stream(bytes(stream))
        return StoredLayout(
            plan=plan,
            row_count=total_rows,
            extent=extent,
            cell_directory=directory,
            grid_origin=tuple(grid.origin),
            synopsis=LayoutSynopsis(cell_zones=cell_zones.pack()),
        )

    def _encode_cell(
        self, plan: PhysicalPlan, schema: Schema, cell: list
    ) -> bytes:
        parts = [_U32.pack(len(cell)), _U16.pack(len(schema.fields))]
        for i, f in enumerate(schema.fields):
            codec = get_codec(plan.codec_for(f.name))
            column = [record[i] for record in cell]
            encoded = codec.encode(column, f.dtype)
            parts.append(_U32.pack(len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    def _write_stream(self, stream: bytes) -> Extent:
        capacity = self.page_size - BYTES_HEADER_SIZE
        pages: list[BytePage] = []
        for start in range(0, max(len(stream), 1), capacity):
            page = BytePage(self.page_size)
            page.write(stream[start : start + capacity])
            pages.append(page)
        return self._write_pages(pages)

    # -- folded ------------------------------------------------------------

    def _render_folded(self, plan: PhysicalPlan, evaluated: Evaluated) -> StoredLayout:
        group_schema = plan.schema.project(plan.group_fields)
        key_serializer = RecordSerializer(group_schema)
        nest_types = _nest_types(
            plan.schema.field("__folded__").dtype, len(plan.nest_fields)
        )
        nest_codecs = [
            (get_codec(plan.codec_for(name)), dtype)
            for name, dtype in zip(plan.nest_fields, nest_types)
        ]
        single = len(plan.nest_fields) == 1

        stream = bytearray()
        directory: list[tuple[int, int]] = []
        keys: list[tuple] = []
        folded_zones = ZoneTable()
        skip = set(plan.delta_fields)
        for row in evaluated.value:
            key = tuple(row[: len(plan.group_fields)])
            nested = row[len(plan.group_fields)]
            parts = [key_serializer.encode(key), _U32.pack(len(nested))]
            zone_parts: dict[str, list] = {
                name: [value]
                for name, value in zip(plan.group_fields, key)
                if name not in skip
            }
            for j, (codec, dtype) in enumerate(nest_codecs):
                if single:
                    vector = list(nested)
                else:
                    vector = [item[j] for item in nested]
                name = plan.nest_fields[j]
                if name not in skip:
                    zone_parts[name] = vector
                encoded = codec.encode(vector, dtype)
                parts.append(_U32.pack(len(encoded)))
                parts.append(encoded)
            blob = b"".join(parts)
            directory.append((len(stream), len(blob)))
            keys.append(key)
            folded_zones.add(len(nested), zone_parts, zone_parts.values())
            stream += blob
        extent = self._write_stream(bytes(stream))
        return StoredLayout(
            plan=plan,
            row_count=len(evaluated.value),
            extent=extent,
            folded_directory=directory,
            folded_keys=keys,
            synopsis=LayoutSynopsis(folded_zones=folded_zones.pack()),
        )

    # -- array -------------------------------------------------------------

    def _render_array(self, plan: PhysicalPlan, evaluated: Evaluated) -> StoredLayout:
        leaves = flatten(evaluated.value)
        array_shape = nesting_shape(evaluated.value)
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

    def _render_mirror(self, plan: PhysicalPlan, evaluated: Evaluated) -> StoredLayout:
        left_plan, right_plan = plan.mirror_plans
        left = self.render(left_plan, evaluated.meta["left"])
        right = self.render(right_plan, evaluated.meta["right"])
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

        def header(k: int, run: bytes, at: int, limit: int):
            entry = cells[k]
            expected = _CELL_HEADER.pack(entry.row_count, len(schema.fields))
            if run[at : at + len(expected)] != expected:
                raise StorageError(
                    f"cell {entry.coord}: header disagrees with its entry"
                )
            return entry.row_count, at + len(expected), ()

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
        ``folded_keys`` (old catalogs have none) and repeated by its count.
        """
        plan = layout.plan
        serializer = RecordSerializer(plan.schema.project(plan.group_fields))
        if indices is None:
            indices = range(len(layout.folded_directory))

        def header(k: int, run: bytes, at: int, limit: int):
            key = serializer.decode(run[at:limit])
            end = at + serializer.encoded_size(key)
            if end + 4 > limit or (
                layout.folded_keys
                and run[at:end] != serializer.encode(layout.folded_keys[indices[k]])
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
        the first record that brings its bytes to a page's worth. Records
        that start on a page the previous one's range reaches are fetched
        as one range; unwanted fields are stepped over by their length
        prefix; each wanted field of the batch is one
        :meth:`Codec.decode_buffer` call, and a delta field one
        :func:`repro.vector.prefix_sum` restarting at every record.
        """
        plan = layout.plan
        capacity = self.page_size - BYTES_HEADER_SIZE
        names = key_fields + tuple(fields[i][0] for i in wanted)
        start = 0
        while start < len(spans):
            blobs: dict[int, list[bytes]] = {i: [] for i in wanted}
            keys: list[list] = [[] for _ in key_fields]
            counts: list[int] = []
            size = 0
            while start < len(spans) and size < capacity:
                # One stream range per run of records: a record joins the
                # run when it starts on a page the range reaches anyway.
                offset, end = spans[start][0], sum(spans[start])
                stop, size = start + 1, size + spans[start][1]
                while (
                    stop < len(spans)
                    and size < capacity
                    and spans[stop][0] // capacity <= (end - 1) // capacity
                ):
                    end = max(end, sum(spans[stop]))
                    size += spans[stop][1]
                    stop += 1
                run = self._read_stream_range(layout, offset, end - offset)
                if len(run) != end - offset:
                    raise StorageError(
                        f"stream holds {len(run)} of the {end - offset} "
                        f"bytes the directory places at offset {offset}"
                    )
                for k in range(start, stop):
                    at = spans[k][0] - offset
                    limit = at + spans[k][1]
                    count, at, key = header(k, run, at, limit)
                    for i in range(len(fields)):
                        if at + 4 > limit:  # a field header cut by the end
                            at = -1
                            break
                        (length,) = _U32.unpack_from(run, at)
                        if i in blobs:  # others: stepped over by their length
                            blobs[i].append(run[at + 4 : at + 4 + length])
                        at += 4 + length
                    if at != limit:
                        raise StorageError(
                            f"record at stream offset {spans[k][0]}: its "
                            f"fields do not fill its {spans[k][1]} bytes"
                        )
                    counts.append(count)
                    for column, value in zip(keys, key):
                        column.extend(repeat(value, count))
                start = stop
            columns = keys
            for i, parts in blobs.items():
                name, dtype = fields[i]
                values = get_codec(plan.codec_for(name)).decode_buffer(
                    b"".join(parts), dtype, list(map(len, parts)), counts
                )
                if name in plan.delta_fields:
                    values = vector.prefix_sum(values, counts)
                columns.append(values)
            yield ColumnBatch.from_columns(names, columns)

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
