"""The algebra interpreter: expressions -> physical storage plans.

Per the paper's architecture (Figure 1), the interpreter "compiles this
algebra into a physical storage plan (or a plan that transforms the current
representation into the new representation)". Compilation is purely static —
it normalizes the expression, type-checks it against the logical schemas, and
extracts the layout metadata into a :class:`PhysicalPlan`. Rendering the plan
against data is the renderer's job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra import ast, validation
from repro.algebra.physical import (
    LAYOUT_ARRAY,
    LAYOUT_COLUMNS,
    LAYOUT_FOLDED,
    LAYOUT_GRID,
    LAYOUT_LEVELLED,
    LAYOUT_MIRROR,
    LAYOUT_PARTITIONED,
    LAYOUT_ROWS,
    GridSpec,
    LevelSpec,
    PartitionSpec,
    PhysicalPlan,
)
from repro.algebra.rewriter import normalize
from repro.errors import AlgebraError
from repro.types.schema import Schema

_KIND_TO_LAYOUT = {
    validation.KIND_RECORDS: LAYOUT_ROWS,
    validation.KIND_GROUPED: LAYOUT_ROWS,  # groups cluster rows contiguously
    validation.KIND_GRID: LAYOUT_GRID,
    validation.KIND_FOLDED: LAYOUT_FOLDED,
    validation.KIND_COLUMNS: LAYOUT_COLUMNS,
    validation.KIND_NESTING: LAYOUT_ARRAY,
    validation.KIND_MIRROR: LAYOUT_MIRROR,
    validation.KIND_PARTITIONED: LAYOUT_PARTITIONED,
    validation.KIND_LEVELLED: LAYOUT_LEVELLED,
}


class AlgebraInterpreter:
    """Compile storage-algebra expressions against a set of logical schemas.

    Args:
        catalog: table name -> logical schema.
    """

    def __init__(self, catalog: dict[str, Schema]):
        self.catalog = dict(catalog)

    def compile(self, expr: ast.Node | str) -> PhysicalPlan:
        """Normalize, type-check, and translate ``expr`` to a physical plan.

        Accepts either an AST or the paper's textual syntax.
        """
        if isinstance(expr, str):
            from repro.algebra.parser import parse

            expr = parse(expr)
        normalized = normalize(expr)
        checked = validation.check(normalized, self.catalog)
        return self._plan_from_checked(normalized, checked)

    def _plan_from_checked(
        self, expr: ast.Node, checked: validation.Checked
    ) -> PhysicalPlan:
        layout = _KIND_TO_LAYOUT.get(checked.kind)
        if layout is None:
            raise AlgebraError(f"no physical layout for kind {checked.kind!r}")

        if layout in (LAYOUT_PARTITIONED, LAYOUT_LEVELLED):
            # A router over regions with a level policy: the plan names
            # both, and the design of every region under them.
            inner = self._plan_from_checked(
                expr.child, checked.meta["child"]
            )
            if inner.kind == LAYOUT_ARRAY:
                raise AlgebraError(
                    f"{expr.op_name} requires record-shaped regions, not arrays"
                )
            partition, sort_keys = None, ()
            if isinstance(expr, ast.Partition):
                partition = PartitionSpec(
                    key=expr.key,
                    method=expr.method,
                    bounds=expr.args if expr.method == "range" else (),
                    buckets=int(expr.args[0]) if expr.method == "hash" else 0,
                )
                levels = inner.levels
                # Each region keeps the inner design's order (none under a
                # level policy: runs resolve newest-first), and regions
                # concatenate in partition order — globally sorted only
                # when the partitions are ranges of the leading sort key.
                leading = ((partition.key_field, True),)
                if partition.method == "range" and inner.sort_keys[:1] == leading:
                    sort_keys = inner.sort_keys
            else:
                levels = LevelSpec(k=expr.k, ratio=expr.ratio, key=expr.key)
            return PhysicalPlan(
                expr=expr,
                kind=layout,
                schema=inner.schema,
                sort_keys=tuple(sort_keys),
                partition=partition,
                levels=levels,
                region_design=inner.region_template,
            )

        if layout == LAYOUT_MIRROR:
            if not isinstance(expr, ast.Mirror):
                raise AlgebraError("mirror plans require a mirror expression")
            left = self._plan_from_checked(expr.left, checked.meta["left"])
            right = self._plan_from_checked(expr.right, checked.meta["right"])
            return PhysicalPlan(
                expr=expr,
                kind=LAYOUT_MIRROR,
                schema=checked.schema,
                mirror_plans=(left, right),
            )

        if checked.schema is None and layout != LAYOUT_ARRAY:
            raise AlgebraError(
                f"layout {layout} requires a record schema"
            )

        grid_spec = None
        grid_meta = checked.meta.get("grid")
        if grid_meta is not None:
            grid_spec = GridSpec(
                dims=tuple(grid_meta["dims"]),
                strides=tuple(grid_meta["strides"]),
                cell_order=checked.meta.get("cell_order", "rowmajor"),
            )

        codecs: list[tuple[str, str]] = []
        for key, codec in checked.meta.get("codecs", {}).items():
            if key == "*":
                codecs.append(("*", codec))
            else:
                for field_name in key:
                    codecs.append((field_name, codec))

        schema = checked.schema
        if schema is None:
            # Array layouts of raw nestings store untyped leaves; synthesize
            # a single-column schema for cost estimation purposes.
            from repro.types.schema import Field
            from repro.types.types import FLOAT

            schema = Schema([Field("value", FLOAT)])

        return PhysicalPlan(
            expr=expr,
            kind=layout,
            schema=schema,
            column_groups=checked.meta.get("column_groups"),
            grid=grid_spec,
            delta_fields=tuple(checked.meta.get("delta_fields", ())),
            codecs=tuple(codecs),
            sort_keys=tuple(checked.meta.get("sort_keys", ())),
            group_fields=tuple(checked.meta.get("group_fields", ())),
            nest_fields=tuple(checked.meta.get("nest_fields", ())),
        )


@dataclass(frozen=True)
class TransformStep:
    """One step of a representation-change script."""

    action: str  # "materialize" | "swap" | "drop"
    detail: str


def transform_script(
    old_plan: PhysicalPlan | None, new_plan: PhysicalPlan
) -> list[TransformStep]:
    """Plan the transition from ``old_plan`` to ``new_plan``.

    The paper's interpreter can emit "a plan that transforms the current
    representation into the new representation"; this function produces that
    script. Re-rendering is always correct; when the new expression only
    *extends* the old one (same prefix), the script notes that the data is
    already in a compatible order so the renderer can skip re-sorting.
    """
    steps = [
        TransformStep(
            "materialize",
            f"render new layout: {new_plan.describe()}",
        )
    ]
    if old_plan is not None:
        if old_plan.sort_keys and old_plan.sort_keys == new_plan.sort_keys:
            steps.insert(
                0,
                TransformStep(
                    "note",
                    "existing order matches target order; streaming rewrite "
                    "without re-sort",
                ),
            )
        steps.append(
            TransformStep("drop", f"free old layout: {old_plan.describe()}")
        )
    steps.append(TransformStep("swap", "atomically switch catalog entry"))
    return steps
