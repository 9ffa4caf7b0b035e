"""Secondary indexes of stored runs.

The paper: "RodentStore will include both B+Trees as well as a variety of
geo-spatial indices, but we don't anticipate innovating in this regard"
(§1). This module wires the page-backed :mod:`repro.index` structures into
the engine as *secondary* access paths of one rows run each:

* :class:`FieldIndex` — a B+Tree mapping one field's values to row positions;
* :class:`SpatialIndex` — an R-Tree mapping (x, y) point fields to row
  positions.

A table declares an index by the fields it covers (``Table.create_index``,
``Table.create_spatial_index``); every rows run then holds one, built from
its pages when the run is sealed or merged (:func:`build_indexes`), or for
the runs already there when the index is declared. A run is immutable, so
its index is never rebuilt: it is retired with its run, and a probe's
positions are that run's rows, which the region's tombstones resolve like
any other batch. Index pages are derived data, neither logged nor
persisted: a reopened store declares its indexes again.

Index probes return row positions; :func:`fetch_rows_by_position` groups
them by page so each data page is fetched and decoded once, in storage
order, into one columnar batch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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


@dataclass(eq=False)
class FieldIndex:
    """A B+Tree secondary index over one field of a rows run."""

    field_name: str
    tree: BPlusTree

    def positions_in_range(self, lo, hi) -> list[int]:
        return sorted(self.tree.range_values(lo, hi))


@dataclass(eq=False)
class SpatialIndex:
    """An R-Tree secondary index over two point fields (x, y) of a rows run."""

    x_field: str
    y_field: str
    tree: RTree

    def positions_in_box(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> list[int]:
        query = MBR(x_lo, y_lo, x_hi, y_hi)
        return sorted(pos for _, pos in self.tree.iter_search(query))


def check_declaration(table: "Table", fields: Sequence[str]) -> None:
    """Refuse an index over unknown ``fields``, or one no run of ``table``
    could hold: neither its design nor any run's is rows."""
    unknown = [f for f in fields if not table.scan_schema().has_field(f)]
    if unknown:
        raise QueryError(f"unknown index field(s) {unknown}")
    runs = table._entry.runs()
    plans = [table.plan.region_template, *(run.plan for run in runs)]
    if all(plan.kind != LAYOUT_ROWS for plan in plans):
        raise IndexError_(
            f"secondary indexes address rows by position: table "
            f"{table.name!r} has no rows run or design"
        )


def build_indexes(
    renderer: "LayoutRenderer",
    layout: "StoredLayout",
    declared: Iterable[tuple[str, ...]],
) -> dict:
    """The indexes of ``declared`` (field tuples: one field for a B+Tree,
    two for an R-Tree) a run of ``layout`` can hold, built from its pages:
    ``fields -> index``. Only a rows run whose pages count their records
    and store every value as it is (no delta encoding) holds any: a
    position then names one row, which one page read returns. Nor does a
    run with a key too long for a tree node hold one over that field: its
    probes fall back to the run scan, and a seal never fails for an
    index."""
    plan = layout.plan
    if (
        plan.kind != LAYOUT_ROWS
        or plan.delta_fields
        or not layout.page_row_counts
    ):
        return {}
    built = {}
    for fields in declared:
        if all(plan.schema.has_field(f) for f in fields):
            try:
                built[fields] = _build(renderer, layout, fields)
            except IndexError_:  # refused before any page was written
                continue
    return built


def _build(renderer, layout, fields):
    """One index over ``fields`` of the run ``layout``, its stored values
    read column-wise in storage order (no record tuple is assembled)."""
    schema = layout.plan.schema
    positions = [schema.index_of(name) for name in fields]
    values: list[list] = [[] for _ in positions]
    for batch in renderer.iter_row_batches(layout):
        columns = batch.columns()
        for out, position in zip(values, positions):
            out.extend(vector.to_list(columns[position]))
    if len(fields) == 1:
        # A NaN matches no range and has no place in key order (its
        # comparisons would unsort the leaves): it stays out of the tree.
        pairs = [(key, row) for row, key in enumerate(values[0]) if key == key]
        tree = BPlusTree(renderer.pool, schema.field(fields[0]).dtype, pairs)
        return FieldIndex(fields[0], tree)
    tree = RTree(renderer.pool, (
        (MBR(x, y, x, y), row) for row, (x, y) in enumerate(zip(*values))
    ))
    return SpatialIndex(*fields, tree)


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
    """Distinct data pages covering ``positions`` of a flat table's run."""
    page_starts = table.layout.page_starts
    return len({bisect_right(page_starts, p) for p in positions})
