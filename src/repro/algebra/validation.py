"""Static type checking of algebra expressions against logical schemas.

``check(expr, catalog)`` walks an expression bottom-up, verifying that every
field reference resolves, that conditions compare compatible types, that grid
dimensions and delta fields are numeric, and so on — raising
:class:`TypeCheckError` otherwise. It returns a :class:`Checked` summary
(structural kind, output schema, and layout-relevant metadata) that the
interpreter uses to build physical plans without evaluating any data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algebra import ast
from repro.errors import AlgebraError, TypeCheckError
from repro.types.schema import Field, Schema
from repro.types.types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    BoolType,
    DataType,
    FloatType,
    IntType,
    ListType,
    NestedType,
)

# Structural kinds of an expression's result (a checked one, and one the
# renderer lays out: repro.layout.columnar.Shaped).
KIND_RECORDS = "records"
KIND_GROUPED = "grouped"
KIND_GRID = "grid"
KIND_FOLDED = "folded"
KIND_COLUMNS = "columns"
KIND_NESTING = "nesting"
KIND_MIRROR = "mirror"
# Horizontal partitioning: per-partition regions of the child design.
KIND_PARTITIONED = "partitioned"
# Log-structured levelled storage: immutable runs of the child design.
KIND_LEVELLED = "levelled"


@dataclass
class Checked:
    """Result of statically checking an expression.

    Attributes:
        kind: structural kind of the result (records, grid, columns, ...).
        schema: record schema when the result's leaves are uniform records.
        meta: layout metadata accumulated along the way — grid geometry,
            column groups, delta fields, codecs, sort keys, fold fields.
    """

    kind: str
    schema: Schema | None
    meta: dict = field(default_factory=dict)

    def require_schema(self, context: str) -> Schema:
        if self.schema is None:
            raise TypeCheckError(f"{context} requires a record-shaped input")
        return self.schema


def _is_numeric(dtype: DataType) -> bool:
    base = getattr(dtype, "base", dtype)
    return isinstance(base, (IntType, FloatType))


def _is_comparable(a: DataType, b: DataType) -> bool:
    if _is_numeric(a) and _is_numeric(b):
        return True
    base_a = getattr(a, "base", a)
    base_b = getattr(b, "base", b)
    return type(base_a) is type(base_b)


def infer_scalar_type(expr: ast.Scalar, schema: Schema) -> DataType:
    """Infer the type of a scalar expression over ``schema`` records."""
    if isinstance(expr, ast.Const):
        value = expr.value
        if isinstance(value, bool):
            return BOOL
        if isinstance(value, int):
            return INT
        if isinstance(value, float):
            return FLOAT
        if isinstance(value, str):
            return STRING
        raise TypeCheckError(f"unsupported constant {value!r}")
    if isinstance(expr, ast.FieldRef):
        if not schema.has_field(expr.name):
            raise TypeCheckError(
                f"unknown field {expr.name!r}; schema has {schema.names()}"
            )
        return schema.field(expr.name).dtype
    if isinstance(expr, ast.Comparison):
        left = infer_scalar_type(expr.left, schema)
        right = infer_scalar_type(expr.right, schema)
        if not _is_comparable(left, right):
            raise TypeCheckError(
                f"cannot compare {left.name} with {right.name} "
                f"in {expr.to_text()}"
            )
        return BOOL
    if isinstance(expr, ast.Arith):
        left = infer_scalar_type(expr.left, schema)
        right = infer_scalar_type(expr.right, schema)
        if not (_is_numeric(left) and _is_numeric(right)):
            raise TypeCheckError(
                f"arithmetic requires numeric operands in {expr.to_text()}"
            )
        if expr.op == "/":
            return FLOAT
        if isinstance(getattr(left, "base", left), FloatType) or isinstance(
            getattr(right, "base", right), FloatType
        ):
            return FLOAT
        return INT
    if isinstance(expr, ast.Logical):
        for operand in expr.operands:
            operand_type = infer_scalar_type(operand, schema)
            if not isinstance(getattr(operand_type, "base", operand_type), BoolType):
                raise TypeCheckError(
                    f"logical operand {operand.to_text()} is not boolean"
                )
        return BOOL
    raise TypeCheckError(f"cannot type scalar expression {expr!r}")


def check(expr: ast.Node, catalog: dict[str, Schema]) -> Checked:
    """Type-check ``expr`` against ``catalog`` (table name -> schema)."""
    return _Checker(catalog).check(expr)


#: A scan restores deltas in stored order, so a field ``delta`` may sit only
#: under operators that keep the records in order with their stored values
#: (``limit`` keeps a prefix), and in the regions, replicas and runs of the
#: combinators, each of which holds its child design whole.
_ORDER_KEEPING = (ast.Compress, ast.Columns, ast.Rows, ast.Limit)
_DELTA_PARENTS = _ORDER_KEEPING + (ast.Partition, ast.Mirror, ast.Levels)


def _record_schema(checked: Checked, schema: Schema) -> Schema:
    """The records a scan of the regions of ``checked`` produces, which a
    partition or merge key is evaluated on: folded designs un-nest, so a key
    may reference both group and nested fields."""
    if checked.kind == KIND_LEVELLED:
        checked = checked.meta["child"]
    if checked.kind != KIND_FOLDED:
        return schema
    nest_schema: Schema = checked.meta["nest_schema"]
    return Schema(
        [schema.field(f) for f in checked.meta["group_fields"]]
        + list(nest_schema.fields)
    )


class _Checker:
    def __init__(self, catalog: dict[str, Schema]):
        self.catalog = catalog

    def check(self, node: ast.Node) -> Checked:
        method = getattr(self, f"_check_{type(node).__name__.lower()}", None)
        if method is None:
            raise TypeCheckError(f"cannot check node {type(node).__name__}")
        for child in node.children():
            # The one nesting rule: a table is a router (partition) over
            # regions with a level policy (levels), so only the router wraps
            # the level policy and nothing wraps the router.
            if isinstance(child, ast.Partition) or (
                isinstance(child, ast.Levels)
                and not isinstance(node, ast.Partition)
            ):
                raise AlgebraError(
                    f"{node.op_name} cannot wrap {child.op_name}: only "
                    "partition wraps levels, and nothing wraps partition"
                )
        if not isinstance(node, _DELTA_PARENTS):
            for child in node.children():
                while isinstance(child, _ORDER_KEEPING):
                    child = child.child
                if isinstance(child, ast.Delta) and child.fields:
                    raise TypeCheckError(
                        "delta must sit above any operator that reorders or "
                        f"regroups records: move delta[{', '.join(child.fields)}]"
                        f" above {node.op_name}"
                    )
        return method(node)

    # -- leaves ------------------------------------------------------------

    def _check_tableref(self, node: ast.TableRef) -> Checked:
        if node.name not in self.catalog:
            raise TypeCheckError(f"unknown table {node.name!r}")
        return Checked(KIND_RECORDS, self.catalog[node.name])

    def _check_literal(self, node: ast.Literal) -> Checked:
        return Checked(KIND_NESTING, None)

    # -- record transforms ---------------------------------------------------

    def _check_project(self, node: ast.Project) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("project")
        projected = schema.project(node.fields)  # raises on unknown fields
        if child.kind == KIND_GRID:
            grid_meta = child.meta.get("grid", {})
            missing = [
                d for d in grid_meta.get("dims", ()) if not projected.has_field(d)
            ]
            if missing:
                raise TypeCheckError(
                    f"project would drop grid dimension(s) {missing}; "
                    "project before grid instead"
                )
            return Checked(KIND_GRID, projected, dict(child.meta))
        return Checked(KIND_RECORDS, projected)

    def _check_select(self, node: ast.Select) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("select")
        condition_type = infer_scalar_type(node.condition, schema)
        if not isinstance(
            getattr(condition_type, "base", condition_type), BoolType
        ):
            raise TypeCheckError(
                f"select condition {node.condition.to_text()} is not boolean"
            )
        return Checked(KIND_RECORDS, schema)

    def _check_append(self, node: ast.Append) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("append")
        new_fields = []
        for name, expr in node.elements:
            if schema.has_field(name):
                raise TypeCheckError(
                    f"append element {name!r} collides with an existing field"
                )
            new_fields.append(Field(name, infer_scalar_type(expr, schema)))
        return Checked(KIND_RECORDS, schema.append_fields(new_fields))

    def _check_partition(self, node: ast.Partition) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("partition")
        key_type = infer_scalar_type(node.key, _record_schema(child, schema))
        if node.method == "range" and not _is_numeric(key_type):
            raise TypeCheckError(
                f"range partitioning requires a numeric key, got "
                f"{key_type.name} in {node.key.to_text()}"
            )
        merge_key = getattr(node.child, "key", None)  # keyed levels
        if isinstance(node.child, ast.Levels) and merge_key is not None and (
            not isinstance(node.key, ast.FieldRef) or node.key != merge_key
        ):
            # Every version of a merge key must land in one region, or an
            # upsert routed elsewhere could not shadow the older version.
            raise TypeCheckError(
                f"keyed levels are partitioned by their merge key field "
                f"{merge_key.to_text()}, not {node.key.to_text()}"
            )
        return Checked(KIND_PARTITIONED, schema, {"child": child})

    def _check_levels(self, node: ast.Levels) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("levels")
        if node.key is not None:
            # The merge key is evaluated on the records a scan of the run
            # design produces (same record shape as partition keys).
            infer_scalar_type(node.key, _record_schema(child, schema))
        return Checked(KIND_LEVELLED, schema, {"child": child})

    def _check_groupby(self, node: ast.GroupBy) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("groupby")
        schema.project(node.fields)
        return Checked(
            KIND_GROUPED, schema, {"group_fields": tuple(node.fields)}
        )

    def _check_orderby(self, node: ast.OrderBy) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("orderby")
        for key in node.keys:
            if not schema.has_field(key.name):
                raise TypeCheckError(f"unknown orderby field {key.name!r}")
        meta = dict(child.meta)
        if child.kind == KIND_RECORDS:
            meta["sort_keys"] = tuple((k.name, k.ascending) for k in node.keys)
        return Checked(child.kind, schema, meta)

    def _check_limit(self, node: ast.Limit) -> Checked:
        child = self.check(node.child)
        return Checked(child.kind, child.schema, dict(child.meta))

    def _check_fold(self, node: ast.Fold) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("fold")
        schema.project(node.group_fields)
        nested = schema.project(node.nest_fields)
        if len(node.nest_fields) == 1:
            folded_type: DataType = ListType(nested.fields[0].dtype)
        else:
            folded_type = ListType(
                NestedType(tuple(f.dtype for f in nested.fields))
            )
        out = Schema(
            [schema.field(f) for f in node.group_fields]
            + [Field("__folded__", folded_type)]
        )
        return Checked(
            KIND_FOLDED,
            out,
            {
                "group_fields": tuple(node.group_fields),
                "nest_fields": tuple(node.nest_fields),
                "nest_schema": nested,
            },
        )

    def _check_unfold(self, node: ast.Unfold) -> Checked:
        child = self.check(node.child)
        if child.kind != KIND_FOLDED:
            raise TypeCheckError("unfold requires a folded input")
        schema = child.require_schema("unfold")
        nest_schema: Schema = child.meta["nest_schema"]
        out = Schema(
            [schema.field(f) for f in child.meta["group_fields"]]
            + list(nest_schema.fields)
        )
        return Checked(KIND_RECORDS, out)

    def _check_prejoin(self, node: ast.Prejoin) -> Checked:
        left = self.check(node.left)
        right = self.check(node.right)
        left_schema = left.require_schema("prejoin")
        right_schema = right.require_schema("prejoin")
        for side, schema in (("left", left_schema), ("right", right_schema)):
            if not schema.has_field(node.join_attr):
                raise TypeCheckError(
                    f"prejoin attribute {node.join_attr!r} missing on {side} input"
                )
        names = prejoined_fields(left_schema.names(), right_schema.names())
        types = left_schema.types() + right_schema.types()
        out = Schema([Field(n, t) for n, t in zip(names, types)])
        return Checked(KIND_RECORDS, out)

    def _check_delta(self, node: ast.Delta) -> Checked:
        child = self.check(node.child)
        if not node.fields:
            if child.kind != KIND_NESTING:
                raise TypeCheckError(
                    "delta without fields applies to flat value nestings"
                )
            return Checked(KIND_NESTING, None, {"delta": True})
        schema = child.require_schema("delta")
        for name in node.fields:
            if not schema.has_field(name):
                raise TypeCheckError(f"unknown delta field {name!r}")
            if not _is_numeric(schema.field(name).dtype):
                raise TypeCheckError(
                    f"delta field {name!r} is not numeric "
                    f"({schema.field(name).dtype.name})"
                )
        meta = dict(child.meta)
        meta["delta_fields"] = tuple(node.fields)
        return Checked(child.kind, schema, meta)

    # -- arrays ------------------------------------------------------------

    def _check_grid(self, node: ast.Grid) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("grid")
        for dim in node.dims:
            if not schema.has_field(dim):
                raise TypeCheckError(f"unknown grid dimension {dim!r}")
            if not _is_numeric(schema.field(dim).dtype):
                raise TypeCheckError(
                    f"grid dimension {dim!r} is not numeric "
                    f"({schema.field(dim).dtype.name})"
                )
        meta = dict(child.meta)
        meta["grid"] = {
            "dims": tuple(node.dims),
            "strides": tuple(node.strides),
        }
        meta["cell_order"] = "rowmajor"
        return Checked(KIND_GRID, schema, meta)

    def _check_zorder(self, node: ast.ZOrder) -> Checked:
        child = self.check(node.child)
        if child.kind == KIND_GRID:
            meta = dict(child.meta)
            meta["cell_order"] = "zorder"
            return Checked(KIND_GRID, child.schema, meta)
        if child.kind in (KIND_NESTING, KIND_GROUPED):
            # zorder over a grouped nesting flattens it along the curve
            # into an array (nothing wraps a partition: see ``check``).
            return Checked(KIND_NESTING, None)
        raise TypeCheckError(
            f"zorder applies to grids or two-level nestings, not {child.kind}"
        )

    def _check_hilbertorder(self, node: ast.HilbertOrder) -> Checked:
        child = self.check(node.child)
        if child.kind != KIND_GRID:
            raise TypeCheckError("hilbert ordering requires a gridded input")
        grid_meta = child.meta.get("grid", {})
        if len(grid_meta.get("dims", ())) != 2:
            raise TypeCheckError("hilbert ordering requires a 2-D grid")
        meta = dict(child.meta)
        meta["cell_order"] = "hilbert"
        return Checked(KIND_GRID, child.schema, meta)

    def _check_transpose(self, node: ast.Transpose) -> Checked:
        self.check(node.child)
        return Checked(KIND_NESTING, None)

    def _check_chunk(self, node: ast.Chunk) -> Checked:
        # An array of the child's leaves: its records' schema is gone.
        self.check(node.child)
        return Checked(KIND_NESTING, None, {"chunk_shape": node.shape})

    # -- layout markers ---------------------------------------------------

    def _check_rows(self, node: ast.Rows) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("rows")
        return Checked(KIND_RECORDS, schema, dict(child.meta))

    def _check_columns(self, node: ast.Columns) -> Checked:
        child = self.check(node.child)
        schema = child.require_schema("columns")
        groups = node.groups or tuple((f,) for f in schema.names())
        seen: set[str] = set()
        for group in groups:
            for name in group:
                if not schema.has_field(name):
                    raise TypeCheckError(f"unknown column-group field {name!r}")
                if name in seen:
                    raise TypeCheckError(
                        f"field {name!r} appears in multiple column groups"
                    )
                seen.add(name)
        meta = dict(child.meta)
        meta["column_groups"] = groups
        return Checked(KIND_COLUMNS, schema, meta)

    def _check_compress(self, node: ast.Compress) -> Checked:
        from repro.compression import codec_names

        child = self.check(node.child)
        if node.codec not in codec_names():
            raise TypeCheckError(
                f"unknown codec {node.codec!r}; available: {sorted(codec_names())}"
            )
        if node.fields:
            schema = child.require_schema("compress")
            nest_fields = set(child.meta.get("nest_fields", ()))
            for name in node.fields:
                if not schema.has_field(name) and name not in nest_fields:
                    raise TypeCheckError(f"unknown compress field {name!r}")
        meta = dict(child.meta)
        codecs = dict(meta.get("codecs", {}))
        codecs[tuple(node.fields) if node.fields else "*"] = node.codec
        meta["codecs"] = codecs
        return Checked(child.kind, child.schema, meta)

    def _check_mirror(self, node: ast.Mirror) -> Checked:
        left = self.check(node.left)
        right = self.check(node.right)
        left_schema = left.require_schema("mirror")
        right.require_schema("mirror")
        return Checked(
            KIND_MIRROR, left_schema, {"left": left, "right": right}
        )


def prejoined_fields(
    left_fields: Sequence[str], right_fields: Sequence[str]
) -> tuple[str, ...]:
    """Output field names for prejoin, suffixing right-side duplicates."""
    taken = set(left_fields)
    renamed: list[str] = []
    for name in right_fields:
        if name in taken:
            candidate = f"{name}_2"
            counter = 2
            while candidate in taken:
                counter += 1
                candidate = f"{name}_{counter}"
            renamed.append(candidate)
            taken.add(candidate)
        else:
            renamed.append(name)
            taken.add(name)
    return tuple(left_fields) + tuple(renamed)
