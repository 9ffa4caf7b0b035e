"""A design's operators over columns: the engine's one interpreter.

A load, a seal and a merge hand the renderer a batch of records as columns
(:class:`~repro.layout.renderer.ColumnBatch`). This module applies a
design's operators to those columns without building a row:

* :func:`apply_pipeline` — the record pipeline of
  :class:`~repro.engine.table.DesignSplit` (``orderby``, ``groupby``,
  ``project``, ``select``, ``append``, ``limit``) as one permutation and
  selection of the columns;
* :func:`evaluate` — a structural residual (``orderby`` / ``groupby`` on
  stored keys, ``delta``, ``grid``, ``zorder``, ``hilbert``, ``fold``,
  ``unfold``, ``columns``, ``compress``, ``rows``, ``mirror``) as a
  :class:`Shaped`: the columns in storage order plus the segments (groups,
  grid cells, folded records) the renderer lays out. An array design's
  residual is its whole expression: its record operators run as the
  pipeline's do, and its nesting operators (``transpose``, ``chunk``, a
  literal, ``zorder`` / ``delta`` of a nesting) build the nesting the
  renderer stores; ``transpose`` of records is their columns.

Every step is a :mod:`repro.vector` kernel — ``orderby`` a
:func:`~repro.vector.stable_order`, ``groupby`` and ``fold``
:func:`~repro.vector.first_seen_groups`, ``grid``
:func:`~repro.vector.grid_cells`, ``delta``
:func:`~repro.vector.segment_delta`, ``zorder`` / ``hilbert`` a
permutation of the cells — whose fallback is the algebra's own tuple
algorithm, so a render equals, page for page, the render of the reference
interpreter the tests keep (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, compress
from typing import Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.transforms import (
    CellGrid,
    _normalized_coords,
    chunk_nesting,
    default_column_groups,
    delta_list,
    eval_scalar,
    transpose_matrix,
)
from repro.algebra.validation import (
    KIND_COLUMNS,
    KIND_FOLDED,
    KIND_GRID,
    KIND_GROUPED,
    KIND_MIRROR,
    KIND_NESTING,
    KIND_RECORDS,
)
from repro.curves.hilbert import hilbert_sort_key
from repro.curves.zorder import zorder_matrix, zorder_sort_key
from repro.errors import AlgebraError


@dataclass
class Shaped:
    """A residual evaluated over columns.

    ``columns`` (parallel to ``fields``) hold the rows in storage order;
    ``counts`` the rows of each segment — a group, a grid cell, a folded
    record — back to back (``None``: no segments). ``grid`` is a gridded
    result's geometry, ``sides`` a mirror's two results, ``nesting`` an
    array design's value (a :data:`KIND_NESTING` result has no fields).
    """

    fields: tuple[str, ...]
    columns: list
    kind: str = KIND_RECORDS
    counts: list[int] | None = None
    grid: CellGrid | None = None
    sides: tuple["Shaped", "Shaped"] | None = None
    nesting: list | None = None

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str):
        try:
            return self.columns[self.fields.index(name)]
        except ValueError:
            raise AlgebraError(
                f"unknown field {name!r}; available: {sorted(self.fields)}"
            ) from None

    def segments(self) -> list[int]:
        """Rows per segment; one segment of every row when there are none."""
        return [self.n_rows] if self.counts is None else self.counts

    def flat(self) -> "Shaped":
        """The rows as flat records: groups and cells are already back to
        back."""
        if self.kind in (KIND_RECORDS, KIND_GROUPED, KIND_GRID):
            return Shaped(self.fields, self.columns)
        if self.kind == KIND_MIRROR:
            return self.sides[0].flat()
        raise AlgebraError(
            f"cannot view a {self.kind} result as flat records; "
            "apply unfold/rows first"
        )

    def take(self, order) -> list:
        return [vector.take(c, order) for c in self.columns]


# ---------------------------------------------------------------------------
# record operators, shared by the pipeline and the residual
# ---------------------------------------------------------------------------


def sort_rows(shaped: Shaped, keys: Sequence[ast.SortKey]) -> list:
    """``orderby``: the columns sorted on ``keys`` — within each segment
    when ``shaped`` is grouped."""
    order = vector.stable_order(
        [shaped.column(k.name) for k in keys],
        [not k.ascending for k in keys],
        shaped.counts if shaped.kind == KIND_GROUPED else None,
    )
    return shaped.take(order)


def group_rows(shaped: Shaped, names: Sequence[str]) -> Shaped:
    """``groupby``: rows regrouped by ``names``, groups in first-seen
    order, rows of a group in input order."""
    order, counts = vector.first_seen_groups([shaped.column(n) for n in names])
    return Shaped(shaped.fields, shaped.take(order), KIND_GROUPED, counts)


def _rows(columns: Sequence) -> list[tuple]:
    return list(zip(*[vector.to_list(c) for c in columns]))


def apply_record_op(shaped: Shaped, op: ast.Node) -> Shaped:
    """One record-level operator over ``shaped``, as the algebra defines
    it. After a ``groupby`` (a stable regroup) ``orderby`` sorts within
    each group and ``limit`` keeps whole segments, until a ``project`` /
    ``select`` / ``append`` flattens them; a grid stays one under a
    ``project``. ``select`` and ``append`` evaluate their scalar
    expressions row by row."""
    if isinstance(op, ast.OrderBy):
        if shaped.kind == KIND_GROUPED:
            return replace(shaped, columns=sort_rows(shaped, op.keys))
        flat = shaped.flat()
        return Shaped(flat.fields, sort_rows(flat, op.keys))
    if isinstance(op, ast.Limit):
        if shaped.kind == KIND_NESTING:
            return replace(shaped, nesting=shaped.nesting[: op.count])
        n, counts, grid = op.count, shaped.counts, shaped.grid
        if counts is not None:
            counts = counts[: op.count]
            n = sum(counts)
        if grid is not None:
            grid = replace(grid, coords=grid.coords[: op.count])
        return replace(
            shaped, columns=[c[:n] for c in shaped.columns], counts=counts, grid=grid
        )
    if isinstance(op, ast.GroupBy):
        return group_rows(shaped.flat(), op.fields)
    if isinstance(op, ast.Project):
        if shaped.kind != KIND_GRID:
            shaped = shaped.flat()
        columns = [shaped.column(f) for f in op.fields]
        return replace(shaped, fields=tuple(op.fields), columns=columns)
    shaped = shaped.flat()
    positions = {n: i for i, n in enumerate(shaped.fields)}
    rows = _rows(shaped.columns)
    if isinstance(op, ast.Select):
        keep = [bool(eval_scalar(op.condition, row, positions)) for row in rows]
        return Shaped(
            shaped.fields,
            [list(compress(vector.to_list(c), keep)) for c in shaped.columns],
        )
    added = [  # ast.Append
        [eval_scalar(expr, row, positions) for row in rows]
        for _, expr in op.elements
    ]
    return Shaped(
        shaped.fields + tuple(name for name, _ in op.elements),
        list(shaped.columns) + added,
    )


def apply_pipeline(
    pipeline: Sequence[ast.Node],
    fields: Sequence[str],
    columns: list,
    stored: Sequence[str],
) -> list:
    """The columns, in ``stored`` order, of the stored records a record
    pipeline (inner-first) maps logical records — ``columns`` parallel to
    ``fields`` — to (:func:`apply_record_op`, one operator at a time)."""
    shaped = Shaped(tuple(fields), list(columns))
    for op in pipeline:
        shaped = apply_record_op(shaped, op)
    return [shaped.column(f) for f in stored]


# ---------------------------------------------------------------------------
# the structural residual
# ---------------------------------------------------------------------------


def evaluate(node: ast.Node, fields: Sequence[str], columns: list) -> Shaped:
    """``node`` — a design's structural residual, reading the stored
    records as ``__stored__`` — over the stored ``columns`` (parallel to
    ``fields``)."""
    return _Interpreter(tuple(fields), list(columns)).evaluate(node)


def _nesting(value: list) -> Shaped:
    return Shaped((), [], KIND_NESTING, nesting=value)


class _Interpreter:
    def __init__(self, fields: tuple[str, ...], columns: list):
        self.fields = fields
        self.columns = columns

    def evaluate(self, node: ast.Node) -> Shaped:
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is None:
            raise AlgebraError(f"cannot store a {type(node).__name__} design")
        return method(node)

    def _eval_tableref(self, node: ast.TableRef) -> Shaped:
        if node.name != "__stored__":
            raise AlgebraError(f"unknown table {node.name!r}")
        return Shaped(self.fields, list(self.columns))

    def _eval_literal(self, node: ast.Literal) -> Shaped:
        return _nesting(node.thaw())

    def _record_op(self, node: ast.Node) -> Shaped:
        return apply_record_op(self.evaluate(node.child), node)

    _eval_orderby = _eval_groupby = _eval_limit = _record_op
    _eval_project = _eval_select = _eval_append = _record_op

    def _eval_delta(self, node: ast.Delta) -> Shaped:
        child = self.evaluate(node.child)
        if not node.fields:
            if child.kind != KIND_NESTING:
                raise AlgebraError(
                    "delta without fields applies to flat value nestings"
                )
            return _nesting(delta_list(child.nesting))
        if child.kind not in (KIND_GRID, KIND_GROUPED):
            child = child.flat()
        counts = child.segments()
        columns = list(child.columns)
        for name in node.fields:
            delta = vector.segment_delta(child.column(name), counts)
            columns[child.fields.index(name)] = delta
        return Shaped(child.fields, columns, child.kind, child.counts, child.grid)

    def _eval_grid(self, node: ast.Grid) -> Shaped:
        child = self.evaluate(node.child).flat()
        for name in node.dims:
            if name not in child.fields:
                raise AlgebraError(f"unknown grid dimension {name!r}")
        origin, order, coords, counts = vector.grid_cells(
            [child.column(d) for d in node.dims], node.strides
        )
        geometry = CellGrid(
            coords, tuple(node.dims), tuple(float(s) for s in node.strides), origin
        )
        return Shaped(child.fields, child.take(order), KIND_GRID, counts, geometry)

    def _reorder_cells(self, child: Shaped, key) -> Shaped:
        grid = child.grid
        normalized = _normalized_coords(grid.coords)
        cells = sorted(range(len(grid.coords)), key=lambda i: key(normalized[i]))
        return Shaped(
            child.fields,
            child.take(vector.segment_order(child.counts, cells)),
            KIND_GRID,
            [child.counts[i] for i in cells],
            CellGrid(
                [grid.coords[i] for i in cells], grid.dims, grid.strides, grid.origin
            ),
        )

    def _eval_zorder(self, node: ast.ZOrder) -> Shaped:
        child = self.evaluate(node.child)
        if child.kind == KIND_GRID:
            return self._reorder_cells(child, zorder_sort_key)
        if child.kind == KIND_NESTING:
            return _nesting(zorder_matrix(child.nesting))
        if child.kind == KIND_GROUPED:
            rows = _rows(child.columns)
            starts = list(accumulate(child.counts, initial=0))
            groups = [rows[a:b] for a, b in zip(starts, starts[1:])]
            return _nesting(zorder_matrix(groups))
        raise AlgebraError(
            f"zorder applies to grids or two-level nestings, not {child.kind}"
        )

    def _eval_hilbertorder(self, node: ast.HilbertOrder) -> Shaped:
        child = self.evaluate(node.child)
        if child.kind != KIND_GRID:
            raise AlgebraError("hilbert ordering requires a gridded input")
        if len(child.grid.dims) != 2:
            raise AlgebraError("hilbert ordering requires a 2-D grid")
        normalized = _normalized_coords(child.grid.coords)
        top = max((max(c) for c in normalized), default=0)
        bits = max(top.bit_length(), 1)
        return self._reorder_cells(child, lambda c: hilbert_sort_key(c, bits))

    def _eval_fold(self, node: ast.Fold) -> Shaped:
        child = self.evaluate(node.child).flat()
        grouped = group_rows(child, node.group_fields)
        fields = tuple(node.group_fields) + tuple(node.nest_fields)
        return Shaped(
            fields, [grouped.column(f) for f in fields], KIND_FOLDED, grouped.counts
        )

    def _eval_unfold(self, node: ast.Unfold) -> Shaped:
        child = self.evaluate(node.child)
        if child.kind != KIND_FOLDED:
            raise AlgebraError("unfold requires a folded input")
        return Shaped(child.fields, child.columns)

    def _eval_columns(self, node: ast.Columns) -> Shaped:
        child = self.evaluate(node.child).flat()
        groups = tuple(node.groups or default_column_groups(child.fields))
        fields = tuple(f for group in groups for f in group)
        return Shaped(fields, [child.column(f) for f in fields], KIND_COLUMNS)

    def _eval_compress(self, node: ast.Compress) -> Shaped:
        return self.evaluate(node.child)

    def _eval_rows(self, node: ast.Rows) -> Shaped:
        return self.evaluate(node.child).flat()

    def _eval_mirror(self, node: ast.Mirror) -> Shaped:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        return Shaped(left.fields, left.columns, KIND_MIRROR, sides=(left, right))

    def _eval_transpose(self, node: ast.Transpose) -> Shaped:
        child = self.evaluate(node.child)
        if child.kind == KIND_NESTING:
            return _nesting(transpose_matrix(child.nesting))
        child = child.flat()  # a record's fields become its rows
        columns = child.columns if child.n_rows else []
        return _nesting([list(vector.to_list(c)) for c in columns])

    def _eval_chunk(self, node: ast.Chunk) -> Shaped:
        child = self.evaluate(node.child)
        if child.kind == KIND_NESTING:
            return _nesting(chunk_nesting(child.nesting, node.shape))
        return _nesting(chunk_nesting(_rows(child.flat().columns), node.shape))
