"""Rule-based query planner: QuerySpec → logical plan → physical operators.

The planner is the middle stage of the query compiler
(:mod:`repro.query.plan` documents the overall shape). It applies the
classical rewrite rules over the logical IR and lowers the result to the
batch operators in :mod:`repro.query.operators`:

* **Predicate pushdown** — the spec's conjunctive predicate is split into
  conjuncts; each conjunct whose fields belong to exactly one table is
  folded into that table's :class:`~repro.query.plan.Scan` (where grid-cell
  pruning, sorted-page pruning, and index probes can exploit it); the rest
  becomes a residual :class:`~repro.query.plan.Filter` above the joins.
* **Projection pushdown** — every scan reads only the columns the query
  touches (output + join keys + residual predicate + sort fields), so
  column-group layouts skip unused groups.
* **Limit/order pushdown** — single-table queries fold order and limit into
  the scan itself, where order-satisfied scans stop reading pages early;
  above a group-by or join, a Limit directly over a Sort lowers to one
  top-k :class:`~repro.query.operators.SortOp`.
* **Access-path choice** — each scan is decided once
  (:meth:`Table.scan_access`: each run's index probe or pruned pages,
  priced with the paper's ``scan_cost`` terms, §4.1 method 4); the
  decision rides on the :class:`~repro.query.operators.TableScanOp` to
  the scan, which reads through it instead of deciding again.
* **Join ordering** — 2+ table queries are joined left-deep in greedy
  ascending order of estimated input cardinality
  (:meth:`Table.estimated_row_count` over collected statistics), and each
  hash join builds on its estimated-smaller side
  (:func:`repro.engine.stats.join_cardinality` sizes join outputs).

Every physical operator is annotated with estimated cardinality and its
own cost — a scan's storage I/O from the access-method cost API, the
per-row CPU terms in :mod:`repro.optimizer.cost_model` — which
``Q.explain()`` folds into cumulative per-node costs; cardinalities steer
the plan, costs are only priced when explained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.cost import CostEstimate
from repro.engine.stats import join_cardinality
from repro.errors import QueryError, StorageError
from repro.optimizer.cost_model import operator_cpu_ms, sort_cpu_ms
from repro.query import plan as lp
from repro.query.expressions import And, Predicate
from repro.query.operators import (
    FilterOp,
    GroupByOp,
    HashJoinOp,
    LimitOp,
    Operator,
    ProjectOp,
    SortOp,
    TableScanOp,
    format_plan,
)

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.engine.table import Table
    from repro.query.executor import QuerySpec

#: Guessed selectivity of a residual conjunct the statistics cannot see.
_RESIDUAL_SELECTIVITY = 1 / 3


@dataclass
class PlanExplain:
    """``Q.explain()`` result: the physical plan plus its root cost.

    Renders as the plan tree (one operator per line with per-node
    cardinality and cost estimates); the root's cumulative cost stays
    available as ``pages`` / ``seeks`` / ``ms`` for callers that treated
    the old bare :class:`~repro.engine.cost.CostEstimate` numerically.
    """

    root: Operator
    logical: lp.LogicalNode

    @property
    def cost(self) -> CostEstimate:
        return self.root.est_cost

    @property
    def pages(self) -> float:
        return self.root.est_cost.pages

    @property
    def seeks(self) -> float:
        return self.root.est_cost.seeks

    @property
    def ms(self) -> float:
        return self.root.est_cost.ms

    @property
    def est_rows(self) -> float:
        return self.root.est_rows

    def __str__(self) -> str:
        return format_plan(self.root)

    __repr__ = __str__


def compile_query(table: "Table", spec: "QuerySpec") -> Operator:
    """Compile ``spec`` (base table ``table``) into a physical operator tree."""
    logical, binder = _optimize(table, spec)
    return _lower(logical, binder)


def explain_query(table: "Table", spec: "QuerySpec") -> PlanExplain:
    logical, binder = _optimize(table, spec)
    return PlanExplain(root=_lower(logical, binder), logical=logical)


# ---------------------------------------------------------------------------
# binding: which table owns which output column
# ---------------------------------------------------------------------------


@dataclass
class _BoundTable:
    """One table participating in the query, with its output naming."""

    table: "Table"
    #: local field -> output column name (qualified on collision)
    out_names: dict[str, str]
    #: predicate conjuncts pushed into this table's scan
    pushed: list[Predicate]
    #: local fields this scan must produce (set later)
    needed: list[str]

    @property
    def name(self) -> str:
        return self.table.name


class _Binder:
    """Output-column ownership across the base table and joined tables.

    The base table keeps its field names; joined tables keep theirs unless
    they collide with an already-bound column, in which case the column is
    exposed as ``"<table>.<field>"``. Predicates, projections, aggregates,
    and sort keys all reference these output names.
    """

    def __init__(self, base: "Table"):
        self.base = _BoundTable(
            table=base,
            out_names={f: f for f in base.scan_schema().names()},
            pushed=[],
            needed=[],
        )
        self.joined: dict[str, _BoundTable] = {}
        self._owners: dict[str, tuple[_BoundTable, str]] = {
            out: (self.base, field)
            for field, out in self.base.out_names.items()
        }
        self._taken = set(self.base.out_names.values())

    def bind_join(self, table: "Table") -> _BoundTable:
        if table.name in self.joined or table.name == self.base.name:
            raise QueryError(
                f"table {table.name!r} joined more than once"
            )
        out_names: dict[str, str] = {}
        for field in table.scan_schema().names():
            out = field if field not in self._taken else f"{table.name}.{field}"
            if out in self._taken:
                raise QueryError(
                    f"join output column {out!r} collides; "
                    f"rename fields of {table.name!r}"
                )
            out_names[field] = out
            self._taken.add(out)
        bound = _BoundTable(
            table=table, out_names=out_names, pushed=[], needed=[]
        )
        self.joined[table.name] = bound
        for field, out in out_names.items():
            self._owners[out] = (bound, field)
        return bound

    def all_bound(self) -> list[_BoundTable]:
        return [self.base, *self.joined.values()]

    def owner_of(self, out_name: str) -> tuple[_BoundTable, str] | None:
        return self._owners.get(out_name)


# ---------------------------------------------------------------------------
# optimize: spec -> rewritten logical plan
# ---------------------------------------------------------------------------


def _optimize(
    table: "Table", spec: "QuerySpec"
) -> tuple[lp.LogicalNode, _Binder]:
    binder = _Binder(table)
    if not spec.joins:
        return _optimize_single(table, spec), binder
    return _optimize_joined(binder, spec), binder


def _optimize_single(table: "Table", spec: "QuerySpec") -> lp.LogicalNode:
    """Single-table plans: everything the scan can absorb is pushed down."""
    limit = spec.limit
    if limit is not None and limit < 0:
        limit = 0
    if not spec.aggregates:
        # The access method takes projection, predicate, order, and limit
        # natively — the whole query is one Scan leaf.
        return lp.Scan(
            table=table.name,
            fieldlist=tuple(spec.fieldlist) if spec.fieldlist else None,
            predicate=spec.predicate,
            order=tuple(spec.order),
            limit=limit,
        )
    needed = _aggregation_inputs(table, spec)
    node: lp.LogicalNode = lp.Scan(
        table=table.name, fieldlist=tuple(needed), predicate=spec.predicate
    )
    node = lp.GroupBy(node, tuple(spec.group_by), tuple(spec.aggregates))
    if spec.order:
        node = lp.Sort(node, tuple(spec.order))
    if limit is not None:
        node = lp.Limit(node, limit)
    return node


def _aggregation_inputs(table: "Table", spec: "QuerySpec") -> list[str]:
    """Scan fields an aggregation needs (group keys + aggregate sources)."""
    needed = list(spec.group_by)
    seen = set(needed)
    for agg in spec.aggregates:
        if agg.source is not None and agg.source not in seen:
            needed.append(agg.source)
            seen.add(agg.source)
    if not needed:
        # count(*) with no grouping: scan the narrowest thing available.
        needed = [table.scan_schema().names()[0]]
    return needed


def _optimize_joined(binder: _Binder, spec: "QuerySpec") -> lp.LogicalNode:
    store = binder.base.table.store
    clauses: list[tuple[lp.JoinClause, _BoundTable]] = []
    for clause in spec.joins:
        bound = binder.bind_join(store.table(clause.table))
        for _, right_field in clause.on:
            if right_field not in bound.out_names:
                raise QueryError(
                    f"join field {right_field!r} is not a column of "
                    f"{clause.table!r}"
                )
        clauses.append((clause, bound))

    residual = _push_predicates(binder, spec.predicate)
    output_fields = _default_output(binder)
    _mark_needed(binder, spec, residual, clauses)

    # Greedy join ordering: repeatedly take the joinable clause (all left
    # keys already bound) whose table has the smallest estimated cardinality
    # after pushdown.
    node: lp.LogicalNode = _scan_node(binder.base)
    available = set(binder.base.out_names.values())
    remaining = list(clauses)
    while remaining:
        joinable = [
            (clause, bound)
            for clause, bound in remaining
            if all(left in available for left, _ in clause.on)
        ]
        if not joinable:
            missing = sorted(
                left
                for clause, _ in remaining
                for left, _ in clause.on
                if left not in available
            )
            raise QueryError(
                f"join key(s) {missing} not available; check join order "
                f"and field names"
            )
        clause, bound = min(
            joinable,
            key=lambda pair: pair[1].table.estimated_row_count(
                _and_all(pair[1].pushed)
            ),
        )
        remaining.remove((clause, bound))
        on = tuple(
            (left, bound.out_names[right]) for left, right in clause.on
        )
        node = lp.Join(node, _scan_node(bound), on)
        available |= set(bound.out_names.values())

    if residual is not None:
        node = lp.Filter(node, residual)

    limit = spec.limit
    if limit is not None and limit < 0:
        limit = 0
    if spec.aggregates:
        node = lp.GroupBy(node, tuple(spec.group_by), tuple(spec.aggregates))
        if spec.order:
            node = lp.Sort(node, tuple(spec.order))
        if limit is not None:
            node = lp.Limit(node, limit)
        return node
    if spec.order:
        node = lp.Sort(node, tuple(spec.order))
    if limit is not None:
        node = lp.Limit(node, limit)
    # A final Project restores the user-visible column order (join
    # reordering must not leak into the output shape) and applies the
    # requested fieldlist.
    final = tuple(spec.fieldlist) if spec.fieldlist else tuple(output_fields)
    node = lp.Project(node, final)
    return node


def _scan_node(bound: _BoundTable) -> lp.Scan:
    return lp.Scan(
        table=bound.name,
        fieldlist=tuple(bound.needed) if bound.needed else None,
        predicate=_and_all(bound.pushed),
    )


def _and_all(parts: Sequence[Predicate]) -> Predicate | None:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _conjuncts(predicate: Predicate) -> list[Predicate]:
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(_conjuncts(part))
        return out
    return [predicate]


def _push_predicates(
    binder: _Binder, predicate: Predicate | None
) -> Predicate | None:
    """Assign each conjunct to a single owning table or keep it residual.

    A conjunct is pushable when every field it touches belongs to one table
    *under its local name* (a qualified ``"t.f"`` reference means the name
    collided, and the scan below knows nothing about qualified names).
    """
    if predicate is None:
        return None
    residual: list[Predicate] = []
    for conjunct in _conjuncts(predicate):
        fields = conjunct.fields_used()
        owners: set[str] = set()
        local_everywhere = True
        for name in fields:
            owner = binder.owner_of(name)
            if owner is None:
                owners.add("?")  # unknown field: defer to runtime error
                continue
            bound, local = owner
            owners.add(bound.name)
            if bound.out_names[local] != local:
                local_everywhere = False
        if len(owners) == 1 and "?" not in owners and local_everywhere:
            owner_name = next(iter(owners))
            for bound in binder.all_bound():
                if bound.name == owner_name:
                    bound.pushed.append(conjunct)
                    break
        else:
            residual.append(conjunct)
    return _and_all(residual)


def _default_output(binder: _Binder) -> list[str]:
    """User-visible output columns in declaration order (base, then joins)."""
    out: list[str] = []
    for bound in binder.all_bound():
        out.extend(bound.out_names[f] for f in bound.table.scan_schema().names())
    return out


def _mark_needed(
    binder: _Binder,
    spec: "QuerySpec",
    residual: Predicate | None,
    clauses: Sequence[tuple[lp.JoinClause, _BoundTable]],
) -> None:
    """Projection pushdown: compute each scan's required local fields."""
    needed_out: set[str] = set()
    if spec.aggregates:
        needed_out.update(spec.group_by)
        for agg in spec.aggregates:
            if agg.source is not None:
                needed_out.add(agg.source)
    elif spec.fieldlist:
        needed_out.update(spec.fieldlist)
    else:
        needed_out.update(_default_output(binder))
    if residual is not None:
        needed_out.update(residual.fields_used())
    if spec.order and not spec.aggregates:
        needed_out.update(name for name, _ in spec.order)
    for clause, bound in clauses:
        for left, right in clause.on:
            needed_out.add(left)
            needed_out.add(bound.out_names[right])
    for bound in binder.all_bound():
        wanted = {
            field
            for field, out in bound.out_names.items()
            if out in needed_out
        }
        if not wanted:
            # A scan must produce at least one column to count rows.
            wanted = {bound.table.scan_schema().names()[0]}
        bound.needed = [
            f for f in bound.table.scan_schema().names() if f in wanted
        ]


# ---------------------------------------------------------------------------
# lower: logical plan -> annotated physical operators
# ---------------------------------------------------------------------------


def _lower(node: lp.LogicalNode, binder: _Binder) -> Operator:
    if isinstance(node, lp.Scan):
        return _lower_scan(node, binder)
    if isinstance(node, lp.Filter):
        child = _lower(node.child, binder)
        op: Operator = FilterOp(child, node.predicate)
        selectivity = _RESIDUAL_SELECTIVITY ** len(_conjuncts(node.predicate))
        op.est_rows = child.est_rows * selectivity
        op.own_cost = _cpu(operator_cpu_ms("filter", child.est_rows))
        return op
    if isinstance(node, lp.Project):
        child = _lower(node.child, binder)
        if node.fields == child.fields:
            return child
        op = ProjectOp(child, node.fields)
        op.est_rows = child.est_rows
        op.own_cost = _cpu(operator_cpu_ms("project", child.est_rows))
        return op
    if isinstance(node, lp.Join):
        return _lower_join(node, binder)
    if isinstance(node, lp.GroupBy):
        child = _lower(node.child, binder)
        op = GroupByOp(child, node.keys, node.aggregates)
        op.est_rows = _group_cardinality(node.keys, child.est_rows, binder)
        op.own_cost = _cpu(
            operator_cpu_ms("group", child.est_rows)
            + operator_cpu_ms("emit", op.est_rows)
        )
        return op
    if isinstance(node, lp.Sort):
        return _lower_sort(node, None, binder)
    if isinstance(node, lp.Limit):
        if isinstance(node.child, lp.Sort):
            # Top-k: the sort keeps only ``count`` rows as it goes.
            return _lower_sort(node.child, node.count, binder)
        child = _lower(node.child, binder)
        op = LimitOp(child, node.count)
        op.est_rows = min(child.est_rows, float(node.count))
        return op
    raise QueryError(f"cannot lower logical node {node!r}")


def _lower_sort(node: lp.Sort, limit: int | None, binder: _Binder) -> Operator:
    child = _lower(node.child, binder)
    op = SortOp(child, node.keys, limit)
    op.est_rows = (
        child.est_rows if limit is None else min(child.est_rows, float(limit))
    )
    op.own_cost = _cpu(sort_cpu_ms(child.est_rows, limit))
    return op


def _lower_scan(node: lp.Scan, binder: _Binder) -> Operator:
    bound = (
        binder.base
        if node.table == binder.base.name
        else binder.joined[node.table]
    )
    table = bound.table
    try:
        # The scan's one access decision: labelled (and, when explained,
        # priced) here, then carried on the operator to the scan, which
        # reads through it.
        access = table.scan_access(
            fieldlist=list(node.fieldlist) if node.fieldlist else None,
            predicate=node.predicate,
            order=list(node.order) if node.order else None,
        )
    except StorageError:
        access = None  # unloaded table (pending rows only): no layout yet
    op = TableScanOp(
        table,
        fieldlist=node.fieldlist,
        predicate=node.predicate,
        order=node.order or None,
        limit=node.limit,
        access=access,
    )
    # Scans over joined tables expose (possibly qualified) output names.
    op.fields = tuple(
        bound.out_names[f] for f in op.fields
    )
    est = table.estimated_row_count(node.predicate)
    if table.stats is None:
        # No collected statistics (e.g. a pending-only table): fall back to
        # the workload monitor's observed cardinality for this access shape
        # — the feedback loop closing actual → estimated.
        observed = table.observed_row_estimate(
            list(node.fieldlist) if node.fieldlist else None,
            node.predicate,
            list(node.order) if node.order else None,
        )
        if observed is not None:
            est = observed
    if node.order and not _order_satisfied(table, node.order):
        # The ordering sees every row the predicate keeps; the limit only
        # makes it a selection instead of a sort.
        op.sort_cost = _cpu(sort_cpu_ms(est, node.limit))
    if node.limit is not None:
        est = min(est, float(node.limit))
    op.est_rows = est
    return op


def _order_satisfied(
    table: "Table", order: Sequence[tuple[str, bool]]
) -> bool:
    try:
        return table.order_satisfied(list(order))
    except StorageError:
        return False


def _lower_join(node: lp.Join, binder: _Binder) -> Operator:
    left = _lower(node.left, binder)
    right = _lower(node.right, binder)
    build_left = left.est_rows <= right.est_rows
    op = HashJoinOp(
        left,
        right,
        left_keys=[l for l, _ in node.on],
        right_keys=[r for _, r in node.on],
        build_left=build_left,
    )
    op.est_rows = join_cardinality(
        left.est_rows,
        right.est_rows,
        _key_stats(binder, node.on),
    )
    build_rows, probe_rows = (
        (left.est_rows, right.est_rows)
        if build_left
        else (right.est_rows, left.est_rows)
    )
    cpu = (
        operator_cpu_ms("hash_build", build_rows)
        + operator_cpu_ms("hash_probe", probe_rows)
        + operator_cpu_ms("emit", op.est_rows)
    )
    op.own_cost = _cpu(cpu)
    return op


def _key_stats(binder: _Binder, on: Sequence[tuple[str, str]]):
    """Per join-key-pair (left FieldStats, right FieldStats) for sizing."""
    pairs = []
    for left_out, right_out in on:
        pairs.append(
            (_field_stats(binder, left_out), _field_stats(binder, right_out))
        )
    return pairs


def _field_stats(binder: _Binder, out_name: str):
    owner = binder.owner_of(out_name)
    if owner is None:
        return None
    bound, local = owner
    stats = bound.table.stats
    if stats is None:
        return None
    return stats.fields.get(local)


def _group_cardinality(
    keys: Sequence[str], child_rows: float, binder: _Binder
) -> float:
    if not keys:
        return 1.0
    distinct = 1.0
    for key in keys:
        field_stats = _field_stats(binder, key)
        if field_stats is None or not field_stats.distinct:
            return child_rows  # unknown: assume no reduction
        distinct *= field_stats.distinct
    return min(child_rows, distinct)


def _cpu(ms: float) -> CostEstimate:
    return CostEstimate(0.0, 0.0, ms)
