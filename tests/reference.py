"""The algebra's reference interpreter: its operators over row lists.

Each storage-algebra operator (paper §3.5-3.6) is a function over in-memory
nestings whose records are tuples, and :class:`Evaluator` evaluates a whole
expression with them. ``test_transforms`` checks them against the
*definitional* comprehensions of :mod:`repro.algebra.comprehension`. The
engine renders every design from columns (:mod:`repro.layout.columnar`);
``test_render_equivalence`` and ``test_columnar_ingest`` check its pages
against a render of this interpreter's result (:func:`from_evaluated`).

Evaluation results carry a small amount of structure beyond the raw nesting
(`Evaluated.kind` / `Evaluated.meta`): grid metadata (dims, strides, origin,
cell coordinates) and fold metadata (group/nest field names) are needed both
by downstream transforms (``zorder`` reorders *cells*; ``unfold`` must know
what was folded) and by the renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Sequence

from repro.algebra import ast
from repro.algebra.transforms import (
    CellGrid,
    Positions,
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
    prejoined_fields,
)
from repro.curves.hilbert import hilbert_sort_key
from repro.curves.zorder import zorder_matrix, zorder_sort_key
from repro.errors import AlgebraError
from repro.layout.columnar import Shaped

Record = tuple


def multisort(
    records: Iterable[Sequence[Any]],
    positions: Sequence[int],
    descending: Sequence[bool] | None = None,
) -> list:
    """Sort records on multiple positions with per-position direction.

    All-ascending orders take one sort on the tuple of key positions.
    Mixed directions apply stable sorts from the least-significant key to
    the most-significant one, which handles descending non-numeric
    attributes correctly.
    """
    result = list(records)
    if not positions:
        return result
    if descending is None or not any(descending):
        result.sort(key=itemgetter(*positions))
        return result
    for pos, desc in reversed(list(zip(positions, descending))):
        result.sort(key=itemgetter(pos), reverse=desc)
    return result


# ---------------------------------------------------------------------------
# Evaluation results
# ---------------------------------------------------------------------------


@dataclass
class Evaluated:
    """The result of evaluating an algebra expression over nestings.

    Attributes:
        value: the nesting itself (records, cells, columns, or raw lists).
        fields: record field names when the leaves are uniform records.
        kind: one of the ``KIND_*`` constants describing the structure.
        meta: structure-specific metadata (grid geometry, fold fields,
            column groups, compression codecs, delta fields, sort order).
    """

    value: list
    fields: tuple[str, ...] | None = None
    kind: str = KIND_RECORDS
    meta: dict = field(default_factory=dict)

    @property
    def positions(self) -> Positions:
        if self.fields is None:
            raise AlgebraError(f"{self.kind} result has no named fields")
        return {name: i for i, name in enumerate(self.fields)}

    def records(self) -> list:
        """Flat list of records, concatenating groups/cells when needed."""
        if self.kind == KIND_RECORDS:
            return self.value
        if self.kind in (KIND_GROUPED, KIND_GRID):
            flat: list = []
            for group in self.value:
                flat.extend(group)
            return flat
        if self.kind == KIND_MIRROR:
            return self.meta["left"].records()
        raise AlgebraError(
            f"cannot view a {self.kind} result as flat records; "
            "apply unfold/rows first"
        )

    def copy_with(self, **changes: Any) -> "Evaluated":
        merged = {
            "value": self.value,
            "fields": self.fields,
            "kind": self.kind,
            "meta": dict(self.meta),
        }
        merged.update(changes)
        return Evaluated(**merged)



# ---------------------------------------------------------------------------
# Record-level transforms
# ---------------------------------------------------------------------------


def project_records(
    records: Sequence[Record], positions: Positions, fields: Sequence[str]
) -> list[Record]:
    """``project[A...](N) = [[r.Ai, ..., r.Aj] | \\r <- N]``."""
    try:
        idx = [positions[f] for f in fields]
    except KeyError as exc:
        raise AlgebraError(f"unknown field {exc.args[0]!r} in project") from None
    return [tuple(r[i] for i in idx) for r in records]


def select_records(
    records: Sequence[Record], positions: Positions, condition: ast.Scalar
) -> list[Record]:
    """``select_C(N)`` — records satisfying condition C."""
    return [r for r in records if eval_scalar(condition, r, positions)]


def append_records(
    records: Sequence[Record],
    positions: Positions,
    elements: Sequence[tuple[str, ast.Scalar]],
) -> list[Record]:
    """``append([e1,...,em], N)`` — attach computed elements to each tuple."""
    return [
        tuple(r) + tuple(eval_scalar(expr, r, positions) for _, expr in elements)
        for r in records
    ]


def partition_records(
    records: Sequence[Record], positions: Positions, key: ast.Scalar
) -> tuple[list[list[Record]], list[Any]]:
    """``partition_C(N)`` — first-occurrence-ordered horizontal partitions.

    Returns (partitions, partition_keys).
    """
    order: list[Any] = []
    parts: dict[Any, list[Record]] = {}
    for r in records:
        k = eval_scalar(key, r, positions)
        if k not in parts:
            parts[k] = []
            order.append(k)
        parts[k].append(r)
    return [parts[k] for k in order], order


def groupby_records(
    records: Sequence[Record], positions: Positions, fields: Sequence[str]
) -> tuple[list[list[Record]], list[tuple]]:
    """``groupby`` clause — regroup records sharing the key fields."""
    idx = [positions[f] for f in fields]
    order: list[tuple] = []
    groups: dict[tuple, list[Record]] = {}
    for r in records:
        k = tuple(r[i] for i in idx)
        if k not in groups:
            groups[k] = []
            order.append(k)
        groups[k].append(r)
    return [groups[k] for k in order], order


def orderby_records(
    records: Sequence[Record],
    positions: Positions,
    keys: Sequence[ast.SortKey],
) -> list[Record]:
    """``orderby`` — multi-key stable sort with per-key direction."""
    idx = [positions[k.name] for k in keys]
    descending = [not k.ascending for k in keys]
    return multisort(records, idx, descending)


def fold_records(
    records: Sequence[Record],
    positions: Positions,
    nest_fields: Sequence[str],
    group_fields: Sequence[str],
) -> list[Record]:
    """``fold_{B,A}(N) = [r.A, [r'.B | \\r' <- N, r.A = r'.A] | \\r <- N]``.

    Implemented with the hash strategy of paper §4.2 (one pass builds the
    groups) rather than Algorithm 1's nested loops; both are provided — see
    :func:`fold_records_nested_loops` — and produce identical output.
    """
    group_idx = [positions[f] for f in group_fields]
    nest_idx = [positions[f] for f in nest_fields]
    single = len(nest_idx) == 1
    order: list[tuple] = []
    nested: dict[tuple, list] = {}
    for r in records:
        k = tuple(r[i] for i in group_idx)
        if k not in nested:
            nested[k] = []
            order.append(k)
        if single:
            nested[k].append(r[nest_idx[0]])
        else:
            nested[k].append(tuple(r[i] for i in nest_idx))
    return [k + (nested[k],) for k in order]


def fold_records_nested_loops(
    records: Sequence[Record],
    positions: Positions,
    nest_fields: Sequence[str],
    group_fields: Sequence[str],
) -> list[Record]:
    """Algorithm 1 from the paper: fold via nested for loops.

    Quadratic: one pass over ``records`` per distinct group. Kept as the
    reference implementation that :func:`fold_records` is tested against.
    """
    group_idx = [positions[f] for f in group_fields]
    nest_idx = [positions[f] for f in nest_fields]
    single = len(nest_idx) == 1
    outer_list: list[tuple] = []
    out: list[Record] = []
    for r in records:
        key = tuple(r[i] for i in group_idx)
        if key in outer_list:
            continue
        inner_list: list = []
        for r2 in records:
            if tuple(r2[i] for i in group_idx) == key:
                if single:
                    inner_list.append(r2[nest_idx[0]])
                else:
                    inner_list.append(tuple(r2[i] for i in nest_idx))
        outer_list.append(key)
        out.append(key + (inner_list,))
    return out


def unfold_records(
    folded: Sequence[Record], n_group_fields: int, n_nest_fields: int
) -> list[Record]:
    """Reverse :func:`fold_records`."""
    out: list[Record] = []
    for row in folded:
        key = tuple(row[:n_group_fields])
        nested = row[n_group_fields]
        for item in nested:
            if n_nest_fields == 1:
                out.append(key + (item,))
            else:
                out.append(key + tuple(item))
    return out


def prejoin_records(
    left: Sequence[Record],
    left_positions: Positions,
    right: Sequence[Record],
    right_positions: Positions,
    join_attr: str,
) -> list[Record]:
    """``prejoin_joinatt(N1, N2)`` — denormalizing equi-join.

    Hash join on the shared attribute; output records concatenate the left
    record with the right record (join attribute kept on both sides, as in
    the paper's ``[[r1, r2] | ...]``).
    """
    if join_attr not in left_positions or join_attr not in right_positions:
        raise AlgebraError(
            f"join attribute {join_attr!r} must exist on both inputs"
        )
    right_by_key: dict[Any, list[Record]] = {}
    rp = right_positions[join_attr]
    for r in right:
        right_by_key.setdefault(r[rp], []).append(r)
    lp = left_positions[join_attr]
    out: list[Record] = []
    for l in left:
        for r in right_by_key.get(l[lp], ()):
            out.append(tuple(l) + tuple(r))
    return out



# ---------------------------------------------------------------------------
# Delta compression (paper's ∆)
# ---------------------------------------------------------------------------


def delta_records(
    records: Sequence[Record], positions: Positions, fields: Sequence[str]
) -> list[Record]:
    """Per-field delta encoding across consecutive records."""
    idx = [positions[f] for f in fields]
    out: list[Record] = []
    prev: Record | None = None
    for r in records:
        if prev is None:
            out.append(tuple(r))
        else:
            row = list(r)
            for i in idx:
                row[i] = r[i] - prev[i]
            out.append(tuple(row))
        prev = r
    return out


def undelta_records(
    records: Sequence[Record], positions: Positions, fields: Sequence[str]
) -> list[Record]:
    """Inverse of :func:`delta_records`."""
    idx = [positions[f] for f in fields]
    out: list[Record] = []
    acc: list | None = None
    for r in records:
        if acc is None:
            acc = list(r)
        else:
            acc = list(r)
            prev = out[-1]
            for i in idx:
                acc[i] = prev[i] + r[i]
        out.append(tuple(acc))
    return out


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass
class GridResult(CellGrid):
    """A gridded nesting: its geometry plus ``cells`` (each a list of
    records), parallel to ``coords``."""

    cells: list[list[Record]] = field(default_factory=list)

    def coord_of(self, record: Record, positions: Positions) -> tuple[int, ...]:
        idx = [positions[d] for d in self.dims]
        return tuple(
            int((record[i] - o) // s)
            for i, o, s in zip(idx, self.origin, self.strides)
        )


def grid_records(
    records: Sequence[Record],
    positions: Positions,
    dims: Sequence[str],
    strides: Sequence[float],
    origin: Sequence[float] | None = None,
) -> GridResult:
    """``grid[A1..An],[s1..sn](N)`` — repartition records into grid cells.

    Cells are produced in row-major coordinate order (the canonical array
    layout); apply ``zorder``/``hilbert`` to reorder them along a curve.
    """
    try:
        idx = [positions[d] for d in dims]
    except KeyError as exc:
        raise AlgebraError(f"unknown grid dimension {exc.args[0]!r}") from None
    strides = tuple(float(s) for s in strides)
    if origin is None:
        if not records:
            origin = tuple(0.0 for _ in dims)
        else:
            origin = tuple(min(r[i] for r in records) for i in idx)
    else:
        origin = tuple(float(o) for o in origin)

    cells: dict[tuple[int, ...], list[Record]] = {}
    for r in records:
        coord = tuple(
            int((r[i] - o) // s) for i, o, s in zip(idx, origin, strides)
        )
        cells.setdefault(coord, []).append(r)
    ordered = sorted(cells)
    return GridResult(
        cells=[cells[c] for c in ordered],
        coords=list(ordered),
        dims=tuple(dims),
        strides=strides,
        origin=origin,
    )


def zorder_grid(grid: GridResult) -> GridResult:
    """Reorder a grid's cells along the Z-curve (paper §3.5.3 / case study N3')."""
    normalized = _normalized_coords(grid.coords)
    order = sorted(
        range(len(grid.coords)),
        key=lambda i: zorder_sort_key(normalized[i]),
    )
    return GridResult(
        cells=[grid.cells[i] for i in order],
        coords=[grid.coords[i] for i in order],
        dims=grid.dims,
        strides=grid.strides,
        origin=grid.origin,
    )


def hilbert_grid(grid: GridResult) -> GridResult:
    """Reorder a 2-D grid's cells along the Hilbert curve (extension)."""
    if len(grid.dims) != 2:
        raise AlgebraError("hilbert ordering requires a 2-D grid")
    normalized = _normalized_coords(grid.coords)
    max_coord = max((max(c) for c in normalized), default=0)
    order_bits = max(max_coord.bit_length(), 1)
    order = sorted(
        range(len(grid.coords)),
        key=lambda i: hilbert_sort_key(normalized[i], order_bits),
    )
    return GridResult(
        cells=[grid.cells[i] for i in order],
        coords=[grid.coords[i] for i in order],
        dims=grid.dims,
        strides=grid.strides,
        origin=grid.origin,
    )


# ---------------------------------------------------------------------------
# Column decomposition
# ---------------------------------------------------------------------------


def columns_records(
    records: Sequence[Record],
    positions: Positions,
    groups: Sequence[Sequence[str]],
) -> list[list]:
    """``N_c``-style vertical decomposition into column groups.

    Single-field groups produce flat value lists (the paper's
    ``[r.Zip | \\r <- T]``); multi-field groups produce mini-record lists.
    """
    out: list[list] = []
    for group in groups:
        idx = [positions[f] for f in group]
        if len(idx) == 1:
            i = idx[0]
            out.append([r[i] for r in records])
        else:
            out.append([tuple(r[i] for i in idx) for r in records])
    return out


# ---------------------------------------------------------------------------
# Expression evaluator
# ---------------------------------------------------------------------------


class Evaluator:
    """Evaluate algebra expressions over in-memory tables, as row lists.

    Args:
        tables: mapping of table name to ``(records, field_names)``.
    """

    def __init__(self, tables: dict[str, tuple[Sequence[Record], Sequence[str]]]):
        self.tables = {
            name: (list(records), tuple(fields))
            for name, (records, fields) in tables.items()
        }

    def evaluate(self, node: ast.Node) -> Evaluated:
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is None:
            raise AlgebraError(f"cannot evaluate node {type(node).__name__}")
        return method(node)

    # -- leaves ------------------------------------------------------------

    def _eval_tableref(self, node: ast.TableRef) -> Evaluated:
        try:
            records, fields = self.tables[node.name]
        except KeyError:
            raise AlgebraError(f"unknown table {node.name!r}") from None
        return Evaluated(list(records), fields, KIND_RECORDS)

    def _eval_literal(self, node: ast.Literal) -> Evaluated:
        return Evaluated(node.thaw(), None, KIND_NESTING)

    # -- record transforms ---------------------------------------------------

    def _eval_project(self, node: ast.Project) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind == KIND_GRID:
            grid: GridResult = child.meta["grid"]
            positions = child.positions
            new_cells = [
                project_records(cell, positions, node.fields)
                for cell in grid.cells
            ]
            new_positions = {f: i for i, f in enumerate(node.fields)}
            new_grid = GridResult(
                list(grid.coords), grid.dims, grid.strides, grid.origin, new_cells
            )
            if any(d not in new_positions for d in grid.dims):
                raise AlgebraError(
                    "projecting away grid dimensions is not supported; "
                    "project before grid instead"
                )
            return child.copy_with(
                value=new_cells,
                fields=tuple(node.fields),
                meta={**child.meta, "grid": new_grid},
            )
        records = child.records()
        projected = project_records(records, child.positions, node.fields)
        return Evaluated(projected, tuple(node.fields), KIND_RECORDS)

    def _eval_select(self, node: ast.Select) -> Evaluated:
        child = self.evaluate(node.child)
        records = child.records()
        kept = select_records(records, child.positions, node.condition)
        return Evaluated(kept, child.fields, KIND_RECORDS)

    def _eval_append(self, node: ast.Append) -> Evaluated:
        child = self.evaluate(node.child)
        records = child.records()
        appended = append_records(records, child.positions, node.elements)
        new_fields = tuple(child.fields) + tuple(n for n, _ in node.elements)
        return Evaluated(appended, new_fields, KIND_RECORDS)

    def _eval_partition(self, node: ast.Partition) -> Evaluated:
        child = self.evaluate(node.child)
        records = child.records()
        parts, keys = partition_records(records, child.positions, node.key)
        return Evaluated(
            parts, child.fields, KIND_GROUPED, {"partition_keys": keys}
        )

    def _eval_groupby(self, node: ast.GroupBy) -> Evaluated:
        child = self.evaluate(node.child)
        records = child.records()
        groups, keys = groupby_records(records, child.positions, node.fields)
        return Evaluated(
            groups,
            child.fields,
            KIND_GROUPED,
            {"group_keys": keys, "group_fields": tuple(node.fields)},
        )

    def _eval_orderby(self, node: ast.OrderBy) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind == KIND_GROUPED:
            positions = child.positions
            sorted_groups = [
                orderby_records(group, positions, node.keys)
                for group in child.value
            ]
            return child.copy_with(value=sorted_groups)
        records = child.records()
        ordered = orderby_records(records, child.positions, node.keys)
        meta = {"sort_keys": tuple((k.name, k.ascending) for k in node.keys)}
        return Evaluated(ordered, child.fields, KIND_RECORDS, meta)

    def _eval_limit(self, node: ast.Limit) -> Evaluated:
        child = self.evaluate(node.child)
        return child.copy_with(value=child.value[: node.count])

    def _eval_fold(self, node: ast.Fold) -> Evaluated:
        child = self.evaluate(node.child)
        records = child.records()
        folded = fold_records(
            records, child.positions, node.nest_fields, node.group_fields
        )
        fields = tuple(node.group_fields) + ("__folded__",)
        return Evaluated(
            folded,
            fields,
            KIND_FOLDED,
            {
                "group_fields": tuple(node.group_fields),
                "nest_fields": tuple(node.nest_fields),
            },
        )

    def _eval_unfold(self, node: ast.Unfold) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind != KIND_FOLDED:
            raise AlgebraError("unfold requires a folded input")
        group_fields = child.meta["group_fields"]
        nest_fields = child.meta["nest_fields"]
        records = unfold_records(
            child.value, len(group_fields), len(nest_fields)
        )
        return Evaluated(
            records, tuple(group_fields) + tuple(nest_fields), KIND_RECORDS
        )

    def _eval_prejoin(self, node: ast.Prejoin) -> Evaluated:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        joined = prejoin_records(
            left.records(),
            left.positions,
            right.records(),
            right.positions,
            node.join_attr,
        )
        fields = prejoined_fields(left.fields, right.fields)
        return Evaluated(joined, fields, KIND_RECORDS)

    def _eval_delta(self, node: ast.Delta) -> Evaluated:
        child = self.evaluate(node.child)
        if not node.fields:
            if child.kind != KIND_NESTING:
                raise AlgebraError(
                    "delta without fields applies to flat value nestings"
                )
            return Evaluated(
                delta_list(child.value), None, KIND_NESTING, {"delta": True}
            )
        positions = child.positions
        if child.kind == KIND_GRID:
            grid: GridResult = child.meta["grid"]
            new_cells = [
                delta_records(cell, positions, node.fields)
                for cell in grid.cells
            ]
            new_grid = GridResult(
                list(grid.coords), grid.dims, grid.strides, grid.origin, new_cells
            )
            meta = {**child.meta, "grid": new_grid,
                    "delta_fields": tuple(node.fields)}
            return child.copy_with(value=new_cells, meta=meta)
        if child.kind == KIND_GROUPED:
            new_groups = [
                delta_records(group, positions, node.fields)
                for group in child.value
            ]
            meta = {**child.meta, "delta_fields": tuple(node.fields)}
            return child.copy_with(value=new_groups, meta=meta)
        records = child.records()
        encoded = delta_records(records, positions, node.fields)
        meta = {**child.meta, "delta_fields": tuple(node.fields)}
        return Evaluated(encoded, child.fields, KIND_RECORDS, meta)

    # -- arrays ------------------------------------------------------------

    def _eval_grid(self, node: ast.Grid) -> Evaluated:
        child = self.evaluate(node.child)
        records = child.records()
        grid = grid_records(records, child.positions, node.dims, node.strides)
        return Evaluated(
            grid.cells,
            child.fields,
            KIND_GRID,
            {**child.meta, "grid": grid, "cell_order": "rowmajor"},
        )

    def _eval_zorder(self, node: ast.ZOrder) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind == KIND_GRID:
            grid = zorder_grid(child.meta["grid"])
            return child.copy_with(
                value=grid.cells,
                meta={**child.meta, "grid": grid, "cell_order": "zorder"},
            )
        if child.kind in (KIND_NESTING, KIND_GROUPED):
            return Evaluated(
                zorder_matrix(child.value), child.fields, KIND_NESTING
            )
        raise AlgebraError(
            f"zorder applies to grids or two-level nestings, not {child.kind}"
        )

    def _eval_hilbertorder(self, node: ast.HilbertOrder) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind != KIND_GRID:
            raise AlgebraError("hilbert ordering requires a gridded input")
        grid = hilbert_grid(child.meta["grid"])
        return child.copy_with(
            value=grid.cells,
            meta={**child.meta, "grid": grid, "cell_order": "hilbert"},
        )

    def _eval_transpose(self, node: ast.Transpose) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind == KIND_NESTING:
            return Evaluated(
                transpose_matrix(child.value), None, KIND_NESTING
            )
        records = child.records()
        return Evaluated(
            transpose_matrix([list(r) for r in records]), None, KIND_NESTING
        )

    def _eval_chunk(self, node: ast.Chunk) -> Evaluated:
        child = self.evaluate(node.child)
        if child.kind == KIND_NESTING:
            source = child.value
        else:
            source = child.records()
        return Evaluated(
            chunk_nesting(source, node.shape),
            child.fields,
            KIND_NESTING,
            {"chunk_shape": node.shape},
        )

    # -- layout markers ---------------------------------------------------

    def _eval_rows(self, node: ast.Rows) -> Evaluated:
        child = self.evaluate(node.child)
        return Evaluated(child.records(), child.fields, KIND_RECORDS)

    def _eval_columns(self, node: ast.Columns) -> Evaluated:
        child = self.evaluate(node.child)
        groups = node.groups or default_column_groups(child.fields)
        cols = columns_records(child.records(), child.positions, groups)
        return Evaluated(
            cols, child.fields, KIND_COLUMNS,
            {**child.meta, "column_groups": groups},
        )

    def _eval_compress(self, node: ast.Compress) -> Evaluated:
        child = self.evaluate(node.child)
        return child.copy_with(meta=_with_codec(child.meta, node))

    def _eval_mirror(self, node: ast.Mirror) -> Evaluated:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        return Evaluated(
            left.value,
            left.fields,
            KIND_MIRROR,
            {"left": left, "right": right},
        )


def _with_codec(meta: dict, node: ast.Compress) -> dict:
    """``meta`` with ``node``'s codec recorded for its fields (``*``: all)."""
    codecs = dict(meta.get("codecs", {}))
    codecs[tuple(node.fields) if node.fields else "*"] = node.codec
    return {**meta, "codecs": codecs}


def evaluate(
    node: ast.Node,
    tables: dict[str, tuple[Sequence[Record], Sequence[str]]],
) -> Evaluated:
    """Convenience one-shot evaluation of an algebra expression."""
    return Evaluator(tables).evaluate(node)


def from_evaluated(evaluated: Evaluated) -> Shaped:
    """The evaluator's result as the renderer takes it (a
    :class:`~repro.layout.columnar.Shaped`): records become list columns,
    which the render kernels take value by value; a nesting stays as it
    is."""
    kind, meta = evaluated.kind, evaluated.meta
    if kind == KIND_NESTING:
        return Shaped((), [], KIND_NESTING, nesting=evaluated.value)
    if kind == KIND_MIRROR:
        left = from_evaluated(meta["left"])
        right = from_evaluated(meta["right"])
        return Shaped(left.fields, left.columns, KIND_MIRROR, sides=(left, right))
    if kind == KIND_COLUMNS:
        groups = tuple(meta["column_groups"])
        columns = []
        for group, values in zip(groups, evaluated.value):
            if len(group) == 1:
                columns.append(list(values))
            else:
                columns.extend(_list_columns(values, len(group)))
        fields = tuple(f for group in groups for f in group)
        return Shaped(fields, columns, KIND_COLUMNS)
    if kind == KIND_FOLDED:
        n_keys = len(meta["group_fields"])
        single = len(meta["nest_fields"]) == 1
        rows, counts = [], []
        for row in evaluated.value:
            key, nested = tuple(row[:n_keys]), row[n_keys]
            counts.append(len(nested))
            rows.extend(key + ((v,) if single else tuple(v)) for v in nested)
        fields = tuple(meta["group_fields"]) + tuple(meta["nest_fields"])
        return Shaped(fields, _list_columns(rows, len(fields)), KIND_FOLDED, counts)
    records = evaluated.records()
    counts = None
    if kind in (KIND_GROUPED, KIND_GRID):
        counts = [len(part) for part in evaluated.value]
    grid = meta["grid"] if kind == KIND_GRID else None
    fields = tuple(evaluated.fields)
    columns = _list_columns(records, len(fields))
    return Shaped(fields, columns, kind, counts, grid)


def _list_columns(rows: Sequence[Sequence[Any]], width: int) -> list[list]:
    if not rows:
        return [[] for _ in range(width)]
    return [list(column) for column in zip(*rows)]

