"""Analytic cost estimation of candidate physical designs.

The design optimizer must compare thousands of candidate layouts without
materializing any of them, so this module predicts — from table statistics
alone — how many pages and seeks each access-method call would read under a
given :class:`PhysicalPlan`. It mirrors the geometry used by the real
renderer (extents, cell streams, column chunks); the test suite checks the
prediction against measured I/O on rendered layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algebra.physical import (
    LAYOUT_ARRAY,
    LAYOUT_COLUMNS,
    LAYOUT_FOLDED,
    LAYOUT_GRID,
    LAYOUT_MIRROR,
    LAYOUT_ROWS,
    PhysicalPlan,
)
from repro.engine.cost import CostEstimate, CostModel, estimate
from repro.engine.stats import TableStats, zone_survival_fraction
from repro.optimizer.workload import Query, Workload
from repro.types.types import FloatType, IntType

# Predicted output bytes per input byte, per codec, for plausible inputs.
# Calibrated against the codec micro-benchmarks (see EXPERIMENTS.md).
_CODEC_RATIO = {
    "none": 1.0,
    "varint": 0.25,  # small ints / deltas: ~2 bytes vs 8
    "delta": 0.35,
    "rle": 0.5,
    "dict": 0.4,
    "bitpack": 0.4,
    "for": 0.35,
    "lz": 0.5,
    "xor": 0.6,
}


# ---------------------------------------------------------------------------
# query-operator CPU costing
# ---------------------------------------------------------------------------
# The paper's storage model deliberately ignores CPU ("count bytes of I/O as
# well as disk seeks"), which is right for comparing layouts: both sides of a
# comparison pay the same operator work. The *query* planner, however, has to
# rank join orders and build sides whose I/O is identical, so it adds a rough
# per-row CPU term on top of the storage layer's I/O estimates. Magnitudes
# are microseconds per row for interpreted-Python batch operators.

_OPERATOR_US = {
    "filter": 0.15,
    "project": 0.05,
    "hash_build": 0.40,
    "hash_probe": 0.25,
    "group": 0.45,
    "emit": 0.03,
}

#: Per-comparison cost of the sort pipeline breaker.
_SORT_COMPARE_US = 0.08


def operator_cpu_ms(kind: str, rows: float) -> float:
    """Estimated CPU milliseconds for ``kind`` processing ``rows`` rows."""
    return _OPERATOR_US.get(kind, 0.1) * max(0.0, rows) / 1e3


def sort_cpu_ms(rows: float, limit: int | None = None) -> float:
    """Estimated CPU milliseconds to order ``rows`` rows: ``n log n`` for
    a full sort; with a ``limit``, one selection pass over all of them
    plus the sort of the ``limit`` rows kept."""
    n = max(0.0, rows)
    if limit is not None and limit < n:
        return (n + _sort_compares(float(limit))) * _SORT_COMPARE_US / 1e3
    return _sort_compares(n) * _SORT_COMPARE_US / 1e3


def _sort_compares(n: float) -> float:
    return n * math.log2(n) if n >= 2 else 0.0


@dataclass
class DesignCost:
    """Workload cost of one candidate design."""

    plan: PhysicalPlan
    total_ms: float
    per_query: dict[str, CostEstimate]
    storage_pages: int

    def __lt__(self, other: "DesignCost") -> bool:
        return self.total_ms < other.total_ms


class PlanCostEstimator:
    """Predict I/O for (plan, query) pairs from table statistics."""

    def __init__(
        self, stats: TableStats, cost_model: CostModel, page_size: int
    ):
        self.stats = stats
        self.model = cost_model
        self.page_size = page_size

    # -- field/record sizing ----------------------------------------------

    def field_width(self, plan: PhysicalPlan, name: str) -> float:
        """Stored bytes per value of ``name`` after its codec."""
        field_stats = self.stats.fields.get(name)
        base = (
            field_stats.avg_width
            if field_stats is not None and field_stats.avg_width
            else plan.schema.field(name).dtype.estimated_size()
        )
        codec = plan.codec_for(name)
        ratio = _CODEC_RATIO.get(codec, 1.0)
        if name in plan.delta_fields and codec == "varint":
            # Delta-then-varint on clustered values: ~2 bytes per value.
            return max(1.5, base * 0.2)
        return base * ratio

    def record_width(self, plan: PhysicalPlan) -> float:
        return sum(self.field_width(plan, f) for f in plan.schema.names())

    # -- per-layout page counts ---------------------------------------------

    def storage_pages(self, plan: PhysicalPlan) -> int:
        rows = self.stats.row_count
        if plan.kind == LAYOUT_MIRROR:
            return sum(self.storage_pages(p) for p in plan.mirror_plans)
        if plan.kind == LAYOUT_COLUMNS:
            groups = plan.column_groups or tuple(
                (f,) for f in plan.schema.names()
            )
            return sum(self._group_pages(plan, g, rows) for g in groups)
        if plan.kind == LAYOUT_FOLDED:
            return self._folded_pages(plan, rows)
        width = self.record_width(plan)
        return max(1, math.ceil(rows * width / self.page_size))

    def _group_pages(
        self, plan: PhysicalPlan, group: tuple[str, ...], rows: int
    ) -> int:
        width = sum(self.field_width(plan, f) for f in group)
        if len(group) > 1:
            width += 2  # slotted-page slot overhead per mini-record
        return max(1, math.ceil(rows * width / self.page_size))

    def _folded_pages(self, plan: PhysicalPlan, rows: int) -> int:
        group_width = sum(
            self.field_width(plan, f) for f in plan.group_fields
        )
        nest_schema_width = 0.0
        folded = plan.schema.field("__folded__")
        # Nested values keep their own width; keys are stored once per group.
        distinct = 1
        for f in plan.group_fields:
            field_stats = self.stats.fields.get(f)
            if field_stats is not None:
                distinct *= max(1, field_stats.distinct)
        distinct = min(distinct, max(1, rows))
        nested_width = folded.dtype.estimated_size() / 4  # per-value estimate
        total = distinct * group_width + rows * max(4.0, nested_width)
        return max(1, math.ceil(total / self.page_size))

    # -- query costing ----------------------------------------------------------

    def query_cost(self, plan: PhysicalPlan, query: Query) -> CostEstimate:
        """Predicted I/O of running ``query`` once against ``plan``."""
        if plan.kind == LAYOUT_MIRROR:
            return min(
                (self.query_cost(p, query) for p in plan.mirror_plans),
                key=lambda c: c.ms,
            )
        if plan.kind == LAYOUT_GRID:
            return self._grid_query_cost(plan, query)
        if plan.kind == LAYOUT_COLUMNS:
            return self._columns_query_cost(plan, query)
        # rows / folded / array: full scan of the object.
        pages = self.storage_pages(plan)
        if query.predicate is not None:
            sorted_pruned = False
            # Delta-encoded layouts serve neither pruning style at runtime:
            # stored values are not the logical values (no searchable sort
            # keys, no usable zones) and reconstruction reads every page.
            if plan.sort_keys and not plan.delta_fields:
                # A leading-sort-key range prunes a contiguous fraction.
                lead, _ = plan.sort_keys[0]
                ranges = query.ranges()
                if lead in ranges:
                    lo, hi = ranges[lead]
                    fraction = self.stats.fields[lead].selectivity(lo, hi)
                    pages = max(1, math.ceil(pages * fraction))
                    sorted_pruned = True
            if not sorted_pruned:
                # Zone-map pruning: pages whose min/max synopsis rules out
                # the predicate intervals are never read (this is what the
                # runtime does whenever the sorted-range path does not
                # apply). Expected survival under the stats' selectivity
                # (upper bound; clustered data does better).
                pages = self._zone_pruned_pages(pages, query, plan)
        return estimate(self.model, pages, 1)

    def _zone_pruned_pages(
        self,
        pages: int,
        query: Query,
        plan: PhysicalPlan,
        rows_per_zone: float | None = None,
    ) -> int:
        """Expected page count after zone-map pruning (≥1)."""
        ranges = query.ranges()
        if not ranges:
            return pages
        # Delta-encoded layouts cannot skip zones at runtime: stored values
        # are not the logical values, and reconstruction needs every
        # preceding record — so they earn no pruning credit here either.
        if plan.delta_fields:
            return pages
        selectivity = self.stats.predicate_selectivity(ranges)
        if rows_per_zone is None:
            rows_per_zone = self.stats.row_count / max(1, pages)
        survival = zone_survival_fraction(selectivity, rows_per_zone)
        return max(1, math.ceil(pages * survival))

    def _columns_query_cost(
        self, plan: PhysicalPlan, query: Query
    ) -> CostEstimate:
        groups = plan.column_groups or tuple((f,) for f in plan.schema.names())
        touched = query.fields_touched(plan.schema.names())
        needed = [g for g in groups if touched & set(g)]
        if not needed:
            needed = [groups[0]]
        rows = self.stats.row_count
        pages = sum(self._group_pages(plan, g, rows) for g in needed)
        if query.predicate is not None:
            # Chunk-zone pruning skips aligned chunks across every scanned
            # group; rows-per-zone is per group, not per total page count.
            rows_per_zone = rows / max(1.0, pages / max(1, len(needed)))
            pages = self._zone_pruned_pages(pages, query, plan, rows_per_zone)
        return estimate(self.model, pages, len(needed))

    def _grid_query_cost(self, plan: PhysicalPlan, query: Query) -> CostEstimate:
        assert plan.grid is not None
        rows = self.stats.row_count
        total_pages = max(
            1, math.ceil(rows * self.record_width(plan) / self.page_size)
        )
        # Cells per dimension from stats extents and strides.
        n_cells = 1
        cells_touched = 1.0
        ranges = query.ranges()
        for dim, stride in zip(plan.grid.dims, plan.grid.strides):
            field_stats = self.stats.fields.get(dim)
            if field_stats is None or not field_stats.is_numeric:
                return estimate(self.model, total_pages, 1)
            extent = float(field_stats.max_value) - float(field_stats.min_value)
            dim_cells = max(1, math.ceil(extent / stride))
            n_cells *= dim_cells
            if dim in ranges:
                lo, hi = ranges[dim]
                span = max(0.0, min(hi, field_stats.max_value)
                           - max(lo, field_stats.min_value))
                cells_touched *= min(dim_cells, span / stride + 1)
            else:
                cells_touched *= dim_cells
        fraction = min(1.0, cells_touched / n_cells)
        pages = max(1.0, total_pages * fraction)
        # Cell-order locality: z-order/hilbert keep nearby cells in few runs;
        # row-major orders pay roughly one run per row of cells touched.
        if plan.grid.cell_order in ("zorder", "hilbert"):
            seeks = max(1.0, math.sqrt(cells_touched))
        else:
            seeks = max(1.0, cells_touched ** (1 - 1 / max(1, len(plan.grid.dims))))
        seeks = min(seeks, pages)
        return estimate(self.model, pages, seeks)

    # -- workload costing ------------------------------------------------------

    def workload_cost(self, plan: PhysicalPlan, workload: Workload) -> DesignCost:
        per_query: dict[str, CostEstimate] = {}
        total = 0.0
        for query in workload.queries:
            cost = self.query_cost(plan, query)
            per_query[query.name] = cost
            total += cost.ms * query.weight
        return DesignCost(
            plan=plan,
            total_ms=total,
            per_query=per_query,
            storage_pages=self.storage_pages(plan),
        )
