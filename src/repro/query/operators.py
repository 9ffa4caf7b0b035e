"""Physical batch operators — the executable half of the query compiler.

Every operator consumes and produces :class:`~repro.layout.renderer.ColumnBatch`
streams (batch-at-a-time, like the scan pipeline underneath), exposes its
output column names as ``fields``, and carries the planner's per-node
estimates (``est_rows``, ``est_cost``) so ``Q.explain()`` can render the
tree. Operators hold no cost logic themselves: the planner
(:mod:`repro.query.planner`) annotates them after lowering.

The leaf is :class:`TableScanOp`, a thin adapter over
:meth:`Table.scan_column_batches` — predicate/projection/order/limit
pushdown, grid-cell pruning and column-group selection happen inside the
access method, which reads through the index-vs-scan decision the planner
made once and carried on the operator. Above it sit
:class:`FilterOp` (residual predicates), :class:`ProjectOp`,
:class:`HashJoinOp` (equi-join, key the estimated-smaller side),
:class:`GroupByOp` (flat accumulators by group id, no member-row
buffering), :class:`SortOp`, and :class:`LimitOp`.

Columnar batches flow through the tree untransposed: filters select
through the scans' filter chain and defer the gather, projections reorder
column vectors, and the two keyed operators run on one kernel —
:class:`repro.vector.KeyTable` turns key columns into dense group ids a
coalesced chunk at a time, group-by folds value vectors by id, the join
gathers both sides by index vectors and emits columnar batches. The
kernels take every vector shape (typed, list, numpy on or off) and answer
with Python's own ``==``, ``+`` and ``<`` semantics in each, so there is
one fold and one probe, not a fast path beside a row loop.

Null semantics follow SQL: join keys containing ``None`` never match, and
``count(field)`` / ``sum`` / ``avg`` / ``min`` / ``max`` skip ``None``
values (``count(*)`` counts every row).

Calling :meth:`Operator.batches` starts a fresh execution; operators are
re-runnable because each call re-reads the scans and rebuilds any state
(hash tables, accumulators).
"""

from __future__ import annotations

import operator as _operator
from collections import deque
from concurrent.futures import wait as _wait_futures
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro import vector
from repro.engine.cost import CostEstimate
from repro.errors import QueryError, StorageError
from repro.layout.renderer import (
    DEFAULT_BATCH_ROWS,
    WINDOW_ROWS,
    ColumnBatch,
    merge_batches,
    sort_batches,
)
from repro.query.expressions import Predicate, selector

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.engine.access import TableAccess
    from repro.engine.table import Table
    from repro.query.executor import Aggregate


class Operator:
    """Base physical operator: a re-runnable ColumnBatch stream."""

    #: Output column names, parallel to every produced batch's fields.
    fields: tuple[str, ...] = ()
    #: Planner annotations: estimated output rows, and this node's own
    #: estimated work (CPU terms; a scan's I/O), which :attr:`est_cost`
    #: adds to its inputs' when asked — only ``explain()`` reads costs, so
    #: a query that is just run never prices its plan.
    est_rows: float = 0.0
    own_cost: CostEstimate = CostEstimate.zero()

    @property
    def est_cost(self) -> CostEstimate:
        """Cumulative estimated cost of the subtree rooted here."""
        inputs = (child.est_cost for child in self.inputs())
        return sum(inputs, CostEstimate.zero()) + self.own_cost

    @property
    def name(self) -> str:
        return type(self).__name__.removesuffix("Op")

    def inputs(self) -> tuple["Operator", ...]:
        return ()

    def detail(self) -> str:
        """One-line operator-specific description for ``explain``."""
        return ""

    def batches(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def rows(self) -> list[tuple]:
        """Execute and materialize the full result."""
        return [row for batch in self.batches() for row in batch.rows()]


class RowsOp(Operator):
    """Source operator over materialized rows (tests, literal inputs)."""

    def __init__(self, fields: Sequence[str], rows: Sequence[tuple]):
        self.fields = tuple(fields)
        self._rows = [tuple(r) for r in rows]
        self.est_rows = float(len(self._rows))

    def detail(self) -> str:
        return f"{len(self._rows)} rows"

    def batches(self) -> Iterator[ColumnBatch]:
        for start in range(0, len(self._rows), DEFAULT_BATCH_ROWS):
            yield ColumnBatch.from_rows(
                self.fields, self._rows[start : start + DEFAULT_BATCH_ROWS]
            )


class TableScanOp(Operator):
    """Leaf: one table access with everything pushed down.

    ``access`` is the planner's access decision for exactly these arguments
    (a :class:`~repro.engine.access.TableAccess` from
    :meth:`Table.scan_access`, ``None`` for an unloaded table): ``explain()``
    labels and counts from it, and :meth:`batches` hands it to
    :meth:`Table.scan_column_batches`, which reads through it wherever the
    pinned snapshot still holds the runs and indexes it was decided on.
    """

    #: CPU of sorting the output when the stored order does not serve it.
    sort_cost: CostEstimate = CostEstimate.zero()

    def __init__(
        self,
        table: "Table",
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Sequence[tuple[str, bool]] | None = None,
        limit: int | None = None,
        access: "TableAccess | None" = None,
    ):
        self.table = table
        self.fieldlist = list(fieldlist) if fieldlist is not None else None
        self.predicate = predicate
        self.order = list(order) if order else None
        self.limit = limit
        self.access = access
        self._partitions_pruned: int | None = None
        if self.fieldlist is not None:
            self.fields = tuple(self.fieldlist)
        else:
            self.fields = tuple(table.scan_schema().names())

    @property
    def own_cost(self) -> CostEstimate:
        """The carried decision's I/O, priced when asked, plus any sort."""
        if self.access is None:  # unloaded table: no layout to cost yet
            return self.sort_cost
        return self.access.cost(self.table.store.cost_model) + self.sort_cost

    @property
    def pages_pruned(self) -> int:
        """Data pages zone-map/directory pruning will skip — the carried
        decision's :attr:`~repro.engine.access.TableAccess.pruned`, page
        arithmetic done only when ``explain()`` asks (a run read by an index
        probe prunes nothing: its pages are estimated)."""
        if self.access is None or self.predicate is None:
            return 0
        return self.access.pruned

    @property
    def partitions_pruned(self) -> int:
        """Whole partitions this scan's predicate rules out via the
        partition map (``Table.partitions_pruned``) — 0 for a table of one
        region. Lazy like :attr:`pages_pruned`: only ``explain()`` pays
        the metadata sweep."""
        if self._partitions_pruned is None:
            try:
                pruned = self.table.partitions_pruned(self.predicate)
            except StorageError:
                pruned = 0
            self._partitions_pruned = pruned
        return self._partitions_pruned

    @property
    def name(self) -> str:
        probe = self.access is not None and self.access.probes
        return "IndexScan" if probe else "TableScan"

    def detail(self) -> str:
        parts = [self.table.name]
        if self.fieldlist is not None:
            parts.append(f"fields={self.fieldlist}")
        if self.table.is_partitioned:
            parts.append(
                f"partitions={len(self.table.partitions)}"
                f" partitions_pruned={self.partitions_pruned}"
            )
            # The regions fan out to the store's shared thread pool.
            workers = int(getattr(self.table.store, "scan_workers", 0) or 0)
            if workers > 1 and len(self.table.partitions) > 1:
                parts.append(f"workers={workers}")
        if self.predicate is not None:
            parts.append(f"predicate={self.predicate!r}")
            parts.append(f"pages_pruned={self.pages_pruned}")
        if self.order:
            parts.append(
                "order=["
                + ", ".join(
                    f"{n}{'' if asc else ' desc'}" for n, asc in self.order
                )
                + "]"
            )
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if getattr(self.table.store, "degraded_reads", False):
            skipped = getattr(
                self.table._entry, "last_corruption_skipped", []
            )
            parts.append(f"corruption_skipped={len(skipped)}")
        return " ".join(parts)

    def batches(self) -> Iterator[ColumnBatch]:
        actual = 0
        # The access method's native ColumnBatch stream: columnar layouts
        # arrive as typed vectors (plus any pending selection) and
        # stay columnar through the plan tree.
        for batch in self.table.scan_column_batches(
            fieldlist=self.fieldlist,
            predicate=self.predicate,
            order=self.order,
            limit=self.limit,
            access=self.access,
        ):
            actual += batch.n_rows
            yield batch
        # Completed scans report actual-vs-estimated cardinality into the
        # table's workload monitor (abandoned scans would compare a full
        # estimate against a partial count, so they stay silent).
        self.table.record_scan_feedback(self.est_rows, actual)


def fan_out_partitions(executor, sources, window: int):
    """Morsel-style ordered merge of per-partition batch sources.

    ``sources`` are zero-arg callables, one per partition, each producing
    an iterator of batches (page fetch + codec decode happen inside, i.e.
    in the worker). Up to ``window`` partitions are in flight at once; the
    merged stream yields every partition's batches **in partition order**,
    so a parallel scan is indistinguishable from a serial one — order
    preservation is what lets sorted range-partitioned scans stay sorted
    and keeps the differential suite's answers identical with parallelism
    on and off.

    On early close (a consumer abandoning the scan) the in-flight futures
    are drained before returning so no worker outlives the iterator —
    otherwise an automatic re-layout could free pages under a live reader.

    Memory: each worker materializes its whole partition's batch list, so
    up to ``window`` partitions are resident at once — the morsel unit is
    deliberately the partition (regions are the independent storage
    objects). Bound memory by partition granularity (more, smaller
    partitions), not by raising ``window``.
    """
    sources = list(sources)
    window = max(1, int(window))

    def generate():
        futures: deque = deque()
        position = 0

        def submit() -> None:
            nonlocal position
            if position < len(sources):
                source = sources[position]
                position += 1
                futures.append(
                    executor.submit(lambda s=source: list(s()))
                )

        try:
            for _ in range(window):
                submit()
            while futures:
                batches = futures.popleft().result()
                submit()
                yield from batches
        finally:
            if futures:
                _wait_futures(list(futures))
                futures.clear()

    return generate()


class FilterOp(Operator):
    """Residual predicate over the child's output (post-join predicates,
    conjuncts that could not be pushed into any single scan), applied
    through the scans' own filter chain
    (:func:`repro.query.expressions.selector`): a columnar batch keeps its
    vectors and carries the mask as a deferred selection."""

    def __init__(self, child: Operator, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        self.fields = child.fields
        missing = predicate.fields_used() - set(child.fields)
        if missing:
            raise QueryError(
                f"predicate references unavailable field(s) {sorted(missing)}"
            )

    def inputs(self) -> tuple[Operator, ...]:
        return (self.child,)

    def detail(self) -> str:
        return repr(self.predicate)

    def batches(self) -> Iterator[ColumnBatch]:
        keep = selector(
            self.predicate, {name: i for i, name in enumerate(self.fields)}
        )
        for batch in self.child.batches():
            selected = batch.select(keep(batch))
            if selected.n_rows:
                yield selected


class ProjectOp(Operator):
    """Narrow/reorder columns (applied above joins and sorts; single-table
    projections are pushed into the scan instead)."""

    def __init__(self, child: Operator, fields: Sequence[str]):
        self.child = child
        self.fields = tuple(fields)
        positions = {name: i for i, name in enumerate(child.fields)}
        try:
            self._idx = [positions[f] for f in fields]
        except KeyError as exc:
            raise QueryError(
                f"unknown projection field {exc.args[0]!r}"
            ) from None

    def inputs(self) -> tuple[Operator, ...]:
        return (self.child,)

    def detail(self) -> str:
        return str(list(self.fields))

    def batches(self) -> Iterator[ColumnBatch]:
        idx = self._idx
        if len(idx) == 1:
            i = idx[0]
            project: Callable[[list], list] = lambda rows: [
                (row[i],) for row in rows
            ]
        else:
            getter = _operator.itemgetter(*idx)
            project = lambda rows: list(map(getter, rows))
        for batch in self.child.batches():
            if batch.is_columnar:
                # Reorder column vectors in place of transposing; any
                # pending selection rides along unresolved.
                yield batch.project_columns(idx, self.fields)
                continue
            yield ColumnBatch.from_rows(self.fields, project(batch.rows()))


def _chunks(
    batches: Iterator[ColumnBatch],
    fields: tuple[str, ...],
    idx: Sequence[int] | None = None,
) -> Iterator[ColumnBatch]:
    """Coalesce a batch stream into columnar batches of about
    :data:`~repro.layout.renderer.WINDOW_ROWS` rows each, in stream order,
    keeping only the columns ``idx`` (named ``fields``) when given — the
    rows a keyed operator buffers before one kernel call. The kernels cost
    a fixed few dozen microseconds per call whatever the row count, so a
    post-filter batch is far too small a unit, and a column window, the
    unit a column scan yields, is one call. At most one chunk plus one
    input batch of rows is buffered."""
    held: list[ColumnBatch] = []
    rows = 0
    for batch in batches:
        if not batch.n_rows:
            continue
        held.append(batch if idx is None else batch.project_columns(idx, fields))
        rows += batch.n_rows
        if rows >= WINDOW_ROWS:
            yield merge_batches(fields, held)
            held, rows = [], 0
    if held:
        yield merge_batches(fields, held)


class HashJoinOp(Operator):
    """Equi-join: key the build side, stream the probe side.

    The build side's keys go into a :class:`repro.vector.KeyTable` and its
    rows are ordered by key id; each probe chunk is one ``lookup`` plus
    one gather (:func:`repro.vector.take`) per output column, so the
    operator above sees columnar batches of typed vectors.

    Output rows are always ``left_row + right_row`` regardless of which
    side is built, so the planner's build-side choice (the estimated
    smaller input) never changes *which* rows come out. Their order is
    probe-major: probe rows in stream order, the partners of one probe row
    in build stream order. ``None`` join keys match nothing.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        build_left: bool = True,
    ):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise QueryError("hash join needs matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.build_left = build_left
        self.fields = left.fields + right.fields
        left_pos = {name: i for i, name in enumerate(left.fields)}
        right_pos = {name: i for i, name in enumerate(right.fields)}
        try:
            self._left_idx = [left_pos[k] for k in left_keys]
            self._right_idx = [right_pos[k] for k in right_keys]
        except KeyError as exc:
            raise QueryError(f"unknown join field {exc.args[0]!r}") from None

    def inputs(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def detail(self) -> str:
        keys = ", ".join(
            f"{a} = {b}" for a, b in zip(self.left_keys, self.right_keys)
        )
        side = "left" if self.build_left else "right"
        return f"on {keys} [build={side}]"

    def batches(self) -> Iterator[ColumnBatch]:
        if self.build_left:
            build, probe = self.left, self.right
            build_idx, probe_idx = self._left_idx, self._right_idx
        else:
            build, probe = self.right, self.left
            build_idx, probe_idx = self._right_idx, self._left_idx
        built = merge_batches(build.fields, list(build.batches()))
        if not built.n_rows:
            return
        built_columns = built.columns()
        table = vector.KeyTable()
        ids = table.ids([built_columns[i] for i in build_idx])
        order, offsets = vector.group_rows(ids, len(table))
        for chunk in _chunks(probe.batches(), probe.fields):
            columns = chunk.columns()
            found = table.lookup([columns[i] for i in probe_idx])
            probe_rows, build_rows = vector.match_rows(found, order, offsets)
            if not len(probe_rows):
                continue
            from_build = [vector.take(c, build_rows) for c in built_columns]
            from_probe = [vector.take(c, probe_rows) for c in columns]
            yield ColumnBatch.from_columns(
                self.fields,
                from_build + from_probe if self.build_left else from_probe + from_build,
            )


class GroupByOp(Operator):
    """Grouped aggregation over dense group ids.

    One pipeline-breaking pass: the key and aggregate-source columns of
    the input are folded a coalesced chunk at a time — a
    :class:`repro.vector.KeyTable` turns the chunk's keys into ids, and
    per aggregated field four flat accumulators indexed by id (non-null
    count, sum, min, max; plus one shared row count) take the chunk in one
    kernel call each. Memory is O(chunk + groups). The result is emitted
    in first-seen group order. ``count(field)`` / ``sum`` / ``avg`` /
    ``min`` / ``max`` skip ``None`` values; ``count(*)`` counts all rows;
    aggregates over a group whose values are all ``None`` yield ``None``.
    Sums are Python's left-to-right ``+``; of values that compare equal
    the first seen is the ``min`` / ``max``. Without keys the result is
    always exactly one row, also over no input rows.
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        aggregates: Sequence["Aggregate"],
    ):
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        self.fields = self.keys + tuple(
            a.output_name for a in self.aggregates
        )
        #: Aggregated fields, each with the accumulators its aggregates read.
        self._sources: dict[str, set[str]] = {}
        for agg in self.aggregates:
            if agg.source is not None:
                self._sources.setdefault(agg.source, set()).add(agg.func)
        # The fold sees the key columns, then one column per source.
        self._needed = self.keys + tuple(self._sources)
        positions = {name: i for i, name in enumerate(child.fields)}
        try:
            self._needed_idx = [positions[f] for f in self._needed]
        except KeyError as exc:
            raise QueryError(
                f"unknown aggregation field {exc.args[0]!r}"
            ) from None

    def inputs(self) -> tuple[Operator, ...]:
        return (self.child,)

    def detail(self) -> str:
        aggs = ", ".join(a.output_name for a in self.aggregates)
        return f"keys={list(self.keys)} aggs=[{aggs}]"

    def batches(self) -> Iterator[ColumnBatch]:
        n_keys = len(self.keys)
        table = vector.KeyTable()
        groups = 0 if n_keys else 1  # SQL: no GROUP BY is one row, always
        counts: list[int] = [0] * groups
        #: Per source: non-null counts, sums, mins, maxs — by group id.
        slots = {
            source: ([0] * groups, [0] * groups, [None] * groups, [None] * groups)
            for source in self._sources
        }
        chunks = _chunks(self.child.batches(), self._needed, self._needed_idx)
        for chunk in chunks:
            columns = chunk.columns()
            if n_keys:
                ids = table.ids(columns[:n_keys])
                grown = len(table) - groups
                groups = len(table)
                counts += [0] * grown
                for valid, sums, mins, maxs in slots.values():
                    valid += [0] * grown
                    sums += [0] * grown
                    mins += [None] * grown
                    maxs += [None] * grown
            else:
                ids = vector.zeros(chunk.n_rows)
            vector.count_groups(counts, ids)
            for (source, funcs), values in zip(
                self._sources.items(), columns[n_keys:]
            ):
                valid, sums, mins, maxs = slots[source]
                vector.count_groups(valid, ids, values)
                if funcs & {"sum", "avg"}:
                    vector.sum_groups(sums, ids, values)
                if "min" in funcs:
                    vector.extreme_groups(mins, ids, values, largest=False)
                if "max" in funcs:
                    vector.extreme_groups(maxs, ids, values, largest=True)
        if not groups:
            return
        out: list = [list(column) for column in zip(*table.keys())]
        for agg in self.aggregates:
            if agg.source is None:  # count(*)
                out.append(counts)
                continue
            valid, sums, mins, maxs = slots[agg.source]
            if agg.func == "count":
                out.append(valid)
            elif agg.func == "sum":
                out.append([s if n else None for s, n in zip(sums, valid)])
            elif agg.func == "avg":
                out.append([s / n if n else None for s, n in zip(sums, valid)])
            else:
                out.append(mins if agg.func == "min" else maxs)
        yield ColumnBatch(self.fields, groups, columns=out)


class SortOp(Operator):
    """Pipeline breaker: stable multi-key sort of the child's batches.

    With a ``limit`` (the planner fuses a Limit directly above a Sort into
    it) this is top-k selection in O(limit + batch) memory. The ordering
    is the batch layer's kernel (:func:`~repro.layout.renderer.sort_batches`)
    either way: key columns in, one row permutation out.
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[tuple[str, bool]],
        limit: int | None = None,
    ):
        self.child = child
        self.keys = tuple(keys)
        self.limit = limit
        positions = {name: i for i, name in enumerate(child.fields)}
        self.fields = child.fields
        self._idx: list[int] = []
        self._desc: list[bool] = []
        for name, ascending in keys:
            if name not in positions:
                raise QueryError(f"cannot order result by {name!r}")
            self._idx.append(positions[name])
            self._desc.append(not ascending)

    def inputs(self) -> tuple[Operator, ...]:
        return (self.child,)

    def detail(self) -> str:
        text = ", ".join(
            f"{name}{'' if asc else ' desc'}" for name, asc in self.keys
        )
        return text if self.limit is None else f"{text} top={self.limit}"

    def batches(self) -> Iterator[ColumnBatch]:
        ordered = sort_batches(
            self.child.batches(), self.fields, self._idx, self._desc, self.limit
        )
        if ordered.n_rows:
            yield ordered


class LimitOp(Operator):
    """Stop the stream after ``count`` rows."""

    def __init__(self, child: Operator, count: int):
        if count < 0:
            raise QueryError("limit must be non-negative")
        self.child = child
        self.count = count
        self.fields = child.fields

    def inputs(self) -> tuple[Operator, ...]:
        return (self.child,)

    def detail(self) -> str:
        return str(self.count)

    def batches(self) -> Iterator[ColumnBatch]:
        remaining = self.count
        if remaining <= 0:
            return
        for batch in self.child.batches():
            if batch.n_rows >= remaining:
                yield batch.head(remaining)
                return
            remaining -= batch.n_rows
            yield batch


def format_plan(op: Operator, indent: str = "") -> str:
    """Render a physical plan tree with per-node cost/cardinality."""
    cost = op.est_cost
    detail = op.detail()
    line = (
        f"{op.name}{' ' + detail if detail else ''}"
        f"  rows≈{op.est_rows:,.0f}"
        f"  cost≈{cost.ms:.2f}ms (pages={cost.pages:.0f} seeks={cost.seeks:.0f})"
    )
    lines = [indent + line]
    kids = op.inputs()
    for i, child in enumerate(kids):
        last = i == len(kids) - 1
        connector = "└─ " if last else "├─ "
        pad = "   " if last else "│  "
        sub = format_plan(child, "").splitlines()
        lines.append(indent + connector + sub[0])
        lines.extend(indent + pad + line for line in sub[1:])
    return "\n".join(lines)
