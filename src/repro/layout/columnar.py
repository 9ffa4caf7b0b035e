"""A design's operators over columns: the write side's interpreter.

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
  grid cells, folded records) the renderer lays out.

Every step is a :mod:`repro.vector` kernel — ``orderby`` a
:func:`~repro.vector.stable_order`, ``groupby`` and ``fold``
:func:`~repro.vector.first_seen_groups`, ``grid``
:func:`~repro.vector.grid_cells`, ``delta``
:func:`~repro.vector.segment_delta`, ``zorder`` / ``hilbert`` a
permutation of the cells — whose fallback is the tuple evaluator's own
algorithm, so the result is the one :class:`repro.algebra.transforms.
Evaluator` computes, value for value. That evaluator stays the algebra's
reference interpreter: :meth:`Shaped.from_evaluated` turns its result into
this shape, which is how the renderer takes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.transforms import (
    KIND_COLUMNS,
    KIND_FOLDED,
    KIND_GRID,
    KIND_GROUPED,
    KIND_MIRROR,
    KIND_RECORDS,
    CellGrid,
    Evaluated,
    _normalized_coords,
    default_column_groups,
    eval_scalar,
)
from repro.curves.hilbert import hilbert_sort_key
from repro.curves.zorder import zorder_sort_key
from repro.errors import AlgebraError


@dataclass
class Shaped:
    """A residual evaluated over columns.

    ``columns`` (parallel to ``fields``) hold the rows in storage order;
    ``counts`` the rows of each segment — a group, a grid cell, a folded
    record — back to back (``None``: no segments). ``grid`` is a gridded
    result's geometry, ``sides`` a mirror's two results.
    """

    fields: tuple[str, ...]
    columns: list
    kind: str = KIND_RECORDS
    counts: list[int] | None = None
    grid: CellGrid | None = None
    sides: tuple["Shaped", "Shaped"] | None = None

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
        """The rows as flat records (the tuple evaluator's ``records()``):
        groups and cells are already back to back."""
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

    @classmethod
    def from_evaluated(cls, evaluated: Evaluated) -> "Shaped":
        """The tuple evaluator's result in this shape: its records become
        list columns (which the render kernels take value by value)."""
        kind, meta = evaluated.kind, evaluated.meta
        if kind == KIND_MIRROR:
            left = cls.from_evaluated(meta["left"])
            right = cls.from_evaluated(meta["right"])
            return cls(left.fields, left.columns, KIND_MIRROR, sides=(left, right))
        if kind == KIND_COLUMNS:
            groups = tuple(meta["column_groups"])
            columns = []
            for group, values in zip(groups, evaluated.value):
                if len(group) == 1:
                    columns.append(list(values))
                else:
                    columns.extend(_list_columns(values, len(group)))
            fields = tuple(f for group in groups for f in group)
            return cls(fields, columns, KIND_COLUMNS)
        if kind == KIND_FOLDED:
            n_keys = len(meta["group_fields"])
            single = len(meta["nest_fields"]) == 1
            rows, counts = [], []
            for row in evaluated.value:
                key, nested = tuple(row[:n_keys]), row[n_keys]
                counts.append(len(nested))
                rows.extend(key + ((v,) if single else tuple(v)) for v in nested)
            fields = tuple(meta["group_fields"]) + tuple(meta["nest_fields"])
            return cls(fields, _list_columns(rows, len(fields)), KIND_FOLDED, counts)
        records = evaluated.records()
        counts = None
        if kind in (KIND_GROUPED, KIND_GRID):
            counts = [len(part) for part in evaluated.value]
        grid = meta["grid"] if kind == KIND_GRID else None
        fields = tuple(evaluated.fields)
        columns = _list_columns(records, len(fields))
        return cls(fields, columns, kind, counts, grid)


def _list_columns(rows: Sequence[Sequence[Any]], width: int) -> list[list]:
    if not rows:
        return [[] for _ in range(width)]
    return [list(column) for column in zip(*rows)]


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


def apply_pipeline(
    pipeline: Sequence[ast.Node],
    fields: Sequence[str],
    columns: list,
    stored: Sequence[str],
) -> list:
    """The columns, in ``stored`` order, of the stored records a record
    pipeline (inner-first) maps logical records — ``columns`` parallel to
    ``fields`` — to. After a ``groupby`` (a stable regroup) ``orderby``
    sorts within each group and ``limit`` keeps whole groups, as the
    algebra defines them, until a ``project`` / ``select`` / ``append``
    flattens the groups. ``select`` and ``append`` evaluate their scalar
    expressions row by row."""
    shaped = Shaped(tuple(fields), list(columns))
    for op in pipeline:
        if isinstance(op, ast.OrderBy):
            shaped.columns = sort_rows(shaped, op.keys)
        elif isinstance(op, ast.Limit):
            if shaped.kind == KIND_GROUPED:
                shaped.counts = shaped.counts[: op.count]
                n = sum(shaped.counts)
            else:
                n = op.count
            shaped.columns = [c[:n] for c in shaped.columns]
        elif isinstance(op, ast.GroupBy):
            shaped = group_rows(shaped.flat(), op.fields)
        elif isinstance(op, ast.Project):
            shaped = Shaped(
                tuple(op.fields), [shaped.column(f) for f in op.fields]
            )
        elif isinstance(op, ast.Select):
            positions = {n: i for i, n in enumerate(shaped.fields)}
            keep = [
                bool(eval_scalar(op.condition, row, positions))
                for row in _rows(shaped.columns)
            ]
            shaped = Shaped(
                shaped.fields,
                [list(compress(vector.to_list(c), keep)) for c in shaped.columns],
            )
        else:  # ast.Append
            positions = {n: i for i, n in enumerate(shaped.fields)}
            rows = _rows(shaped.columns)
            added = [
                [eval_scalar(expr, row, positions) for row in rows]
                for _, expr in op.elements
            ]
            shaped = Shaped(
                shaped.fields + tuple(name for name, _ in op.elements),
                list(shaped.columns) + added,
            )
    return [shaped.column(f) for f in stored]


# ---------------------------------------------------------------------------
# the structural residual
# ---------------------------------------------------------------------------


def evaluate(node: ast.Node, fields: Sequence[str], columns: list) -> Shaped:
    """``node`` — a record design's structural residual, reading the
    stored records as ``__stored__`` — over the stored ``columns``
    (parallel to ``fields``)."""
    return _Interpreter(tuple(fields), list(columns)).evaluate(node)


class _Interpreter:
    def __init__(self, fields: tuple[str, ...], columns: list):
        self.fields = fields
        self.columns = columns

    def evaluate(self, node: ast.Node) -> Shaped:
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is None:
            raise AlgebraError(
                f"{type(node).__name__} is not a structural operator of a "
                "record design"
            )
        return method(node)

    def _eval_tableref(self, node: ast.TableRef) -> Shaped:
        if node.name != "__stored__":
            raise AlgebraError(f"unknown table {node.name!r}")
        return Shaped(self.fields, list(self.columns))

    def _eval_orderby(self, node: ast.OrderBy) -> Shaped:
        child = self.evaluate(node.child)
        if child.kind == KIND_GROUPED:
            return Shaped(
                child.fields, sort_rows(child, node.keys), KIND_GROUPED, child.counts
            )
        child = child.flat()
        return Shaped(child.fields, sort_rows(child, node.keys))

    def _eval_groupby(self, node: ast.GroupBy) -> Shaped:
        return group_rows(self.evaluate(node.child).flat(), node.fields)

    def _eval_delta(self, node: ast.Delta) -> Shaped:
        child = self.evaluate(node.child)
        if not node.fields:
            raise AlgebraError("delta without fields applies to flat value nestings")
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
        if child.kind != KIND_GRID:
            raise AlgebraError(
                f"zorder of a {child.kind} result is an array design"
            )
        return self._reorder_cells(child, zorder_sort_key)

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
