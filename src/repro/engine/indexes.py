"""Secondary indexes over stored tables.

The paper: "RodentStore will include both B+Trees as well as a variety of
geo-spatial indices, but we don't anticipate innovating in this regard"
(§1). This module wires the page-backed :mod:`repro.index` structures into
the engine as *secondary* access paths over row layouts:

* :class:`FieldIndex` — a B+Tree mapping one field's values to row positions;
* :class:`SpatialIndex` — an R-Tree mapping (x, y) point fields to row
  positions.

Index probes return row positions; the scan path groups positions by page so
each data page is fetched and decoded once, in storage order, into one
columnar batch. Indexes are built against
the current main layout and become *stale* when rows are inserted afterwards
— a stale index is never used silently (scans fall back to the base path)
until it is rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import vector
from repro.algebra.physical import LAYOUT_ROWS
from repro.errors import IndexError_, QueryError
from repro.index.btree import BPlusTree
from repro.index.rtree import MBR, RTree
from repro.layout.renderer import ColumnBatch
from repro.storage.serializer import RecordSerializer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.table import Table
    from repro.layout.renderer import LayoutRenderer, StoredLayout


@dataclass
class FieldIndex:
    """A B+Tree secondary index over one field of a rows-layout table."""

    field_name: str
    tree: BPlusTree
    stale: bool = False

    def positions_in_range(self, lo, hi) -> list[int]:
        if self.stale:
            raise IndexError_(
                f"index on {self.field_name!r} is stale; rebuild it"
            )
        return sorted(self.tree.range_values(lo, hi))


@dataclass
class SpatialIndex:
    """An R-Tree secondary index over two point fields (x, y)."""

    x_field: str
    y_field: str
    tree: RTree
    stale: bool = False

    def positions_in_box(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> list[int]:
        if self.stale:
            raise IndexError_(
                f"spatial index on ({self.x_field}, {self.y_field}) is "
                "stale; rebuild it"
            )
        query = MBR(x_lo, y_lo, x_hi, y_hi)
        return sorted(pos for _, pos in self.tree.iter_search(query))


def build_field_index(table: "Table", field_name: str) -> FieldIndex:
    """Build a B+Tree over ``field_name`` of a rows-layout table."""
    _require_rows_layout(table, "field index")
    schema = table.main_plan.schema
    if not schema.has_field(field_name):
        raise QueryError(f"unknown index field {field_name!r}")
    key_type = schema.field(field_name).dtype
    tree = BPlusTree(table._db.pool, key_type=key_type)
    (keys,) = _stored_columns(table, field_name)
    pairs = list(zip(keys, range(len(keys))))
    tree.bulk_load(pairs)
    return FieldIndex(field_name, tree)


def build_spatial_index(
    table: "Table", x_field: str, y_field: str
) -> SpatialIndex:
    """Build an R-Tree over two numeric point fields of a rows layout."""
    _require_rows_layout(table, "spatial index")
    xs, ys = _stored_columns(table, x_field, y_field)
    tree = RTree(table._db.pool)
    entries = [
        (MBR(x, y, x, y), row) for row, (x, y) in enumerate(zip(xs, ys))
    ]
    tree.bulk_load(entries)
    return SpatialIndex(x_field, y_field, tree)


def _stored_columns(table: "Table", *field_names: str) -> list[list]:
    """Stored values of the named fields over the main layout, in storage
    order — read column-wise, so no record tuple is ever assembled."""
    schema = table.main_plan.schema
    positions = [schema.index_of(name) for name in field_names]
    values: list[list] = [[] for _ in positions]
    for batch in table._db.renderer.iter_row_batches(table.layout):
        columns = batch.columns()
        for out, position in zip(values, positions):
            out.extend(vector.to_list(columns[position]))
    return values


def _require_rows_layout(table: "Table", what: str) -> None:
    if table.main_plan.kind != LAYOUT_ROWS:
        raise IndexError_(
            f"{what} requires a rows layout (table {table.name!r} is "
            f"{table.main_plan.kind}); secondary indexes address rows by position"
        )
    if not table.layout.page_row_counts:
        raise IndexError_("rows layout lacks per-page row counts")


def fetch_rows_by_position(
    renderer: "LayoutRenderer",
    layout: "StoredLayout",
    positions: Sequence[int],
) -> Iterator[ColumnBatch]:
    """Records of the rows run ``layout`` at ``positions`` (ascending,
    distinct), a batch per data page.

    Positions are grouped by page through the layout's ``page_starts``;
    each page is fetched and decoded once (``decode_page``) and its wanted
    slots gathered from the column vectors — a slice when they are
    consecutive, as the matches of a clustered index are. Pages are read
    as the consumer pulls batches, so a limit-pushdown scan that stops
    early fetches no page it did not need, and none stays pinned.
    """
    serializer = RecordSerializer(layout.plan.schema)
    fields = tuple(layout.plan.schema.names())
    page_starts = layout.page_starts
    if positions and not 0 <= positions[0] <= positions[-1] < page_starts[-1]:
        out_of_range = positions[0] if positions[0] < 0 else positions[-1]
        raise QueryError(f"row position {out_of_range} out of range")
    lo = 0
    while lo < len(positions):
        page_index = bisect_right(page_starts, positions[lo]) - 1
        first = page_starts[page_index]
        hi = bisect_left(positions, page_starts[page_index + 1], lo)
        columns = renderer._read_slotted(
            layout.extent.page_ids[page_index], serializer
        )
        start, stop = positions[lo] - first, positions[hi - 1] - first + 1
        if stop - start == hi - lo:
            columns = [column[start:stop] for column in columns]
        else:
            slots = [position - first for position in positions[lo:hi]]
            columns = [vector.take(column, slots) for column in columns]
        yield ColumnBatch.from_columns(fields, columns)
        lo = hi


def pages_for_positions(table: "Table", positions: Sequence[int]) -> int:
    """Distinct data pages covering ``positions`` (for cost estimation)."""
    page_starts = table.layout.page_starts
    return len({bisect_right(page_starts, p) for p in positions})
