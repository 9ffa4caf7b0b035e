"""Physical batch operators — the executable half of the query compiler.

Every operator consumes and produces :class:`~repro.layout.renderer.ColumnBatch`
streams (batch-at-a-time, like the scan pipeline underneath), exposes its
output column names as ``fields``, and carries the planner's per-node
estimates (``est_rows``, ``est_cost``) so ``Q.explain()`` can render the
tree. Operators hold no cost logic themselves: the planner
(:mod:`repro.query.planner`) annotates them after lowering.

The leaf is :class:`TableScanOp`, a thin adapter over
:meth:`Table.scan_column_batches` — predicate/projection/order/limit
pushdown, grid-cell pruning, column-group selection, and the
index-vs-scan choice all happen inside the access method. Above it sit
:class:`FilterOp` (residual predicates), :class:`ProjectOp`,
:class:`HashJoinOp` (equi-join, hash the estimated-smaller side),
:class:`GroupByOp` (scalar accumulators, no member-row buffering),
:class:`SortOp`, and :class:`LimitOp`.

When the store's vectorized mode is on, columnar batches flow through the
tree untransposed: filters evaluate selection bitmaps
(:meth:`Predicate.filter_vector`) and defer the gather, projections
reorder column vectors, joins extract keys from packed column slices, and
group-by reduces typed buffers with numpy when it is importable. Every
vector path bails to the row-at-a-time code on anything it cannot
reproduce bit-for-bit, so results are identical either way.

Null semantics follow SQL: join keys containing ``None`` never match, and
``count(field)`` / ``sum`` / ``avg`` / ``min`` / ``max`` skip ``None``
values (``count(*)`` counts every row).

Calling :meth:`Operator.batches` starts a fresh execution; operators are
re-runnable because each call re-reads the scans and rebuilds any state
(hash tables, accumulators).
"""

from __future__ import annotations

import operator as _operator
from collections import defaultdict, deque
from concurrent.futures import wait as _wait_futures
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro import vector
from repro.engine.cost import CostEstimate
from repro.errors import QueryError, StorageError
from repro.layout.renderer import DEFAULT_BATCH_ROWS, ColumnBatch, sort_batches
from repro.query.expressions import Predicate

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.engine.table import Table
    from repro.query.executor import Aggregate


class Operator:
    """Base physical operator: a re-runnable ColumnBatch stream."""

    #: Output column names, parallel to every produced batch's fields.
    fields: tuple[str, ...] = ()
    #: Planner annotations (cumulative cost of the subtree rooted here).
    est_rows: float = 0.0
    est_cost: CostEstimate = CostEstimate.zero()

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

    ``access`` records the planner's access-path verdict (``"scan"`` or
    ``"index"``, from :meth:`Table.access_path`) for display; the actual
    choice is re-made inside :meth:`Table.scan_batches` with the same
    inputs, so the two always agree.
    """

    def __init__(
        self,
        table: "Table",
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Sequence[tuple[str, bool]] | None = None,
        limit: int | None = None,
        access: str = "scan",
    ):
        self.table = table
        self.fieldlist = list(fieldlist) if fieldlist is not None else None
        self.predicate = predicate
        self.order = list(order) if order else None
        self.limit = limit
        self.access = access
        self._pages_pruned: int | None = None
        self._partitions_pruned: int | None = None
        if self.fieldlist is not None:
            self.fields = tuple(self.fieldlist)
        else:
            self.fields = tuple(table.scan_schema().names())

    @property
    def pages_pruned(self) -> int:
        """Data pages zone-map/directory pruning will skip, from the layout
        synopses alone (``Table.pruned_pages``). Computed lazily on first
        access — only ``explain()`` renders it, so plain execution never
        pays the metadata sweep — and 0 for index probes, which bypass the
        scan path entirely."""
        if self._pages_pruned is None:
            pruned = 0
            if self.access == "scan" and self.predicate is not None:
                try:
                    pruned = self.table.pruned_pages(
                        self.predicate, self.fieldlist
                    )
                except StorageError:
                    pruned = 0  # unloaded table: no layout metadata yet
            self._pages_pruned = pruned
        return self._pages_pruned

    @property
    def partitions_pruned(self) -> int:
        """Whole partitions this scan's predicate rules out via the
        partition map (``Table.partitions_pruned``) — 0 for unpartitioned
        tables. Lazy like :attr:`pages_pruned`: only ``explain()`` pays
        the metadata sweep."""
        if self._partitions_pruned is None:
            pruned = 0
            if getattr(self.table, "is_partitioned", False):
                try:
                    pruned = self.table.partitions_pruned(self.predicate)
                except StorageError:
                    pruned = 0
            self._partitions_pruned = pruned
        return self._partitions_pruned

    @property
    def name(self) -> str:
        return "IndexScan" if self.access == "index" else "TableScan"

    def detail(self) -> str:
        parts = [self.table.name]
        if self.fieldlist is not None:
            parts.append(f"fields={self.fieldlist}")
        if getattr(self.table, "is_partitioned", False):
            parts.append(
                f"partitions={len(self.table.partitions)}"
                f" partitions_pruned={self.partitions_pruned}"
            )
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
        if getattr(self.table.store, "vectorized", True):
            # Consume the access method's native ColumnBatch stream:
            # columnar layouts arrive as typed vectors (plus any pending
            # selection bitmap) and stay columnar through the plan tree.
            for batch in self.table.scan_column_batches(
                fieldlist=self.fieldlist,
                predicate=self.predicate,
                order=self.order,
                limit=self.limit,
            ):
                actual += batch.n_rows
                yield batch
        else:
            for rows in self.table.scan_batches(
                fieldlist=self.fieldlist,
                predicate=self.predicate,
                order=self.order,
                limit=self.limit,
            ):
                actual += len(rows)
                yield ColumnBatch.from_rows(self.fields, rows)
        # Completed scans report actual-vs-estimated cardinality into the
        # table's workload monitor (abandoned scans would compare a full
        # estimate against a partial count, so they stay silent).
        self.table.record_scan_feedback(self.est_rows, actual)


class ParallelTableScanOp(TableScanOp):
    """Partition-parallel leaf: morsel-style fan-out over a partitioned
    table's surviving regions.

    The fan-out itself lives inside :meth:`Table.scan_batches` (which
    consults ``store.scan_workers`` and dispatches regions to the store's
    shared thread pool through :func:`fan_out_partitions`), so direct
    access-method calls and planned queries share one executor and one
    merge discipline. This operator is the plan-tree face of that path:
    the planner lowers a scan to it whenever the parallel path will
    actually run, so ``explain()`` shows the worker fan-out next to the
    partition-pruning counts.
    """

    @property
    def name(self) -> str:
        return "ParallelTableScan"

    def detail(self) -> str:
        workers = int(getattr(self.table.store, "scan_workers", 0) or 0)
        return super().detail() + f" workers={workers}"


def fan_out_partitions(executor, sources, window: int):
    """Morsel-style ordered merge of per-partition batch sources.

    ``sources`` are zero-arg callables, one per partition, each producing
    an iterator of batches (page fetch + codec decode happen inside, i.e.
    in the worker). Up to ``window`` partitions are in flight at once; the
    merged stream yields every partition's batches **in partition order**,
    so a parallel scan is indistinguishable from a serial one — order
    preservation is what lets sorted range-partitioned scans stay sorted
    and keeps the differential suite's batch ≡ reference ≡ planned
    equivalence intact with parallelism on.

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
    conjuncts that could not be pushed into any single scan)."""

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
        # Columnar batches (vectorized scans flowing up through joins are
        # still per-table; residual predicates see them directly above a
        # scan) take the bitmap path: evaluate the whole-column predicate
        # into a selection mask and defer the gather. Row-backed batches —
        # and any predicate that declines to vectorize — fall back to the
        # compiled per-row closure.
        positions = {name: i for i, name in enumerate(self.fields)}
        row_filter = self.predicate.compile(positions)
        predicate = self.predicate
        for batch in self.child.batches():
            if batch.is_columnar:
                bitmap = predicate.filter_vector(
                    batch.column_map(), batch.n_rows
                )
                if bitmap is not None:
                    selected = batch.select(bitmap)
                    if selected.n_rows:
                        yield selected
                    continue
            kept = list(filter(row_filter, batch.rows()))
            if kept:
                yield ColumnBatch.from_rows(self.fields, kept)


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
                # pending selection bitmap rides along unresolved.
                yield batch.project_columns(idx, self.fields)
                continue
            yield ColumnBatch.from_rows(self.fields, project(batch.rows()))


def _key_fn(idx: Sequence[int]) -> Callable[[tuple], Any]:
    """Join-key extractor; single keys stay scalar (no tuple allocation)."""
    if len(idx) == 1:
        i = idx[0]
        return lambda row: row[i]
    return _operator.itemgetter(*idx)


class HashJoinOp(Operator):
    """Equi-join: hash the build side, stream the probe side.

    Output rows are always ``left_row + right_row`` regardless of which
    side is built, so the planner's build-side choice (the estimated
    smaller input) never changes results. ``None`` join keys match nothing.
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

    @staticmethod
    def _null_key(key: Any, composite: bool) -> bool:
        return (None in key) if composite else (key is None)

    @staticmethod
    def _batch_keys(batch: ColumnBatch, idx: Sequence[int]) -> list:
        """Per-row join keys, sliced from packed columns when available.

        Columnar batches yield their key columns as whole vectors — one
        bulk ``tolist`` per key instead of an itemgetter call per row.
        Single keys stay scalar, composites become tuples, matching
        :func:`_key_fn` exactly.
        """
        if batch.is_columnar:
            cols = batch.columns()
            key_cols = [vector.to_list(cols[i]) for i in idx]
            if len(key_cols) == 1:
                return key_cols[0]
            return list(zip(*key_cols))
        key_of = _key_fn(idx)
        return [key_of(row) for row in batch.rows()]

    def batches(self) -> Iterator[ColumnBatch]:
        composite = len(self.left_keys) > 1
        null_key = self._null_key
        if self.build_left:
            build, probe = self.left, self.right
            build_idx, probe_idx = self._left_idx, self._right_idx
        else:
            build, probe = self.right, self.left
            build_idx, probe_idx = self._right_idx, self._left_idx
        table: dict[Any, list[tuple]] = defaultdict(list)
        for batch in build.batches():
            keys = self._batch_keys(batch, build_idx)
            for key, row in zip(keys, batch.rows()):
                if null_key(key, composite):
                    continue
                table[key].append(row)
        if not table:
            return
        get = table.get
        build_is_left = self.build_left
        for batch in probe.batches():
            out: list[tuple] = []
            extend = out.extend
            keys = self._batch_keys(batch, probe_idx)
            for key, row in zip(keys, batch.rows()):
                if null_key(key, composite):
                    continue
                matches = get(key)
                if not matches:
                    continue
                if build_is_left:
                    extend(b + row for b in matches)
                else:
                    extend(row + b for b in matches)
            if out:
                yield ColumnBatch.from_rows(self.fields, out)


#: Int sums stay exact in int64 as long as ``max(|value|) * n_rows`` is
#: below this; anything bigger bails to arbitrary-precision python ints.
_INT64_SAFE = 2**62


#: min/max slots treat ``None`` as "unset"; safe because None *values* are
#: skipped before reaching the slot (SQL null semantics).
class _AggState:
    """Scalar accumulators for one group — no member-row buffering."""

    __slots__ = ("count", "counts", "sums", "sum_counts", "mins", "maxs")

    def __init__(self, n_counts: int, n_sums: int, n_minmax: int):
        self.count = 0  # count(*): every row
        self.counts = [0] * n_counts  # count(field): non-null rows
        self.sums = [0] * n_sums
        self.sum_counts = [0] * n_sums  # non-null denominators for avg
        self.mins: list[Any] = [None] * n_minmax
        self.maxs: list[Any] = [None] * n_minmax


class GroupByOp(Operator):
    """Grouped aggregation folded into scalar accumulator states.

    One pipeline-breaking pass: every input batch folds into per-group
    scalar slots (shared row count, per-source non-null counts, running
    sums, mins, maxs), then the result is emitted in first-seen group
    order. ``count(field)`` / ``sum`` / ``avg`` / ``min`` / ``max`` skip
    ``None`` values; ``count(*)`` counts all rows; aggregates over a group
    whose values are all ``None`` yield ``None``. Without keys the result
    is always exactly one row, also over no input rows.
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
        positions = {name: i for i, name in enumerate(child.fields)}
        try:
            self._key_idx = [positions[k] for k in keys]
            # Slot layout: one list per accumulator family, deduplicated by
            # source field so sum+avg over the same column share a slot.
            self._count_fields: list[str] = []
            self._sum_fields: list[str] = []
            self._minmax_specs: list[tuple[str, str]] = []
            for agg in self.aggregates:
                if agg.source is None:
                    continue
                if agg.func == "count" and agg.source not in self._count_fields:
                    self._count_fields.append(agg.source)
                if agg.func in ("sum", "avg") and agg.source not in self._sum_fields:
                    self._sum_fields.append(agg.source)
                if agg.func in ("min", "max"):
                    spec = (agg.func, agg.source)
                    if spec not in self._minmax_specs:
                        self._minmax_specs.append(spec)
            self._count_idx = [positions[f] for f in self._count_fields]
            self._sum_idx = [positions[f] for f in self._sum_fields]
            self._minmax_idx = [positions[s] for _, s in self._minmax_specs]
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
        key_idx = self._key_idx
        count_idx = self._count_idx
        sum_idx = self._sum_idx
        minmax_idx = self._minmax_idx
        minmax_specs = self._minmax_specs
        n_counts, n_sums, n_minmax = (
            len(count_idx), len(sum_idx), len(minmax_idx)
        )
        key_of = _key_fn(key_idx) if key_idx else None
        single_key = len(key_idx) == 1
        states: dict[tuple, _AggState] = {}
        for batch in self.child.batches():
            if (
                batch.is_columnar
                and batch.n_rows
                and self._fold_vectorized(batch, states)
            ):
                continue
            for row in batch.rows():
                if key_of is None:
                    key = ()
                elif single_key:
                    key = (key_of(row),)
                else:
                    key = key_of(row)
                state = states.get(key)
                if state is None:
                    state = states[key] = _AggState(n_counts, n_sums, n_minmax)
                state.count += 1
                for slot, i in enumerate(count_idx):
                    if row[i] is not None:
                        state.counts[slot] += 1
                for slot, i in enumerate(sum_idx):
                    value = row[i]
                    if value is not None:
                        state.sums[slot] += value
                        state.sum_counts[slot] += 1
                for slot, i in enumerate(minmax_idx):
                    value = row[i]
                    if value is None:
                        continue
                    func, _ = minmax_specs[slot]
                    if func == "min":
                        current = state.mins[slot]
                        if current is None or value < current:
                            state.mins[slot] = value
                    else:
                        current = state.maxs[slot]
                        if current is None or value > current:
                            state.maxs[slot] = value
        if not states and not key_idx:
            # SQL: an aggregate without GROUP BY is one row even over no
            # input (count 0, sum/avg/min/max NULL) — a fresh state.
            states[()] = _AggState(n_counts, n_sums, n_minmax)
        out: list[tuple] = []
        for key, state in states.items():  # dicts preserve first-seen order
            result: list[Any] = list(key)
            for agg in self.aggregates:
                result.append(self._finalize(agg, state))
            out.append(tuple(result))
        if out:
            yield ColumnBatch.from_rows(self.fields, out)

    def _fold_vectorized(self, batch: ColumnBatch, states: dict) -> bool:
        """Fold one columnar batch into ``states`` with numpy reductions.

        Groups come from a stable argsort over combined key codes, so each
        sorted slice preserves the batch's original row order, and groups
        commit to ``states`` in first-seen order (``argsort`` of each
        group's first row position) — the dict ends up identical to the
        row loop's. Int sums reduce with ``np.add.reduceat`` (exact below
        the int64 guard); float sums accumulate sequentially in python over
        the sorted slices so rounding matches the row loop bit-for-bit.

        Returns False, leaving ``states`` untouched, whenever any piece
        can't be reproduced exactly: numpy unavailable, a needed column
        that isn't a typed numeric vector (typed vectors also guarantee
        no ``None``s, which is what lets counts equal group sizes), NaNs
        anywhere (their comparison semantics differ from the row loop's
        min/max and dict-key behavior), or an int sum that could overflow.
        """
        np = vector.numpy_module()
        if np is None or not vector.numpy_enabled():
            return False
        n = batch.n_rows
        cols = batch.columns()

        def ndarray(i):
            arr = vector.as_ndarray(cols[i])
            if (
                arr is not None
                and arr.dtype.kind == "f"
                and np.isnan(arr).any()
            ):
                return None
            return arr

        key_arrays = [ndarray(i) for i in self._key_idx]
        count_arrays = [ndarray(i) for i in self._count_idx]
        sum_arrays = [ndarray(i) for i in self._sum_idx]
        minmax_arrays = [ndarray(i) for i in self._minmax_idx]
        if any(
            a is None
            for group in (key_arrays, count_arrays, sum_arrays, minmax_arrays)
            for a in group
        ):
            return False

        if key_arrays:
            codes = None
            cardinality = 1
            for arr in key_arrays:
                uniques, inverse = np.unique(arr, return_inverse=True)
                k = len(uniques)
                if codes is None:
                    codes = inverse.astype(np.int64, copy=False)
                else:
                    if cardinality * k >= _INT64_SAFE:
                        return False
                    codes = codes * k + inverse
                cardinality *= k
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            change = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
            starts = np.concatenate([np.zeros(1, dtype=np.intp), change])
            firsts = order[starts]
            group_keys = list(
                zip(*(arr[firsts].tolist() for arr in key_arrays))
            )
            group_order = np.argsort(firsts, kind="stable").tolist()
        else:
            order = np.arange(n)
            starts = np.zeros(1, dtype=np.intp)
            group_keys = [()]
            group_order = [0]
        starts_list = [int(s) for s in starts.tolist()]
        stops_list = starts_list[1:] + [n]
        sizes = [hi - lo for lo, hi in zip(starts_list, stops_list)]

        int_sums: dict[int, list] = {}
        float_sums: dict[int, list] = {}
        for slot, arr in enumerate(sum_arrays):
            vals = arr[order]
            if arr.dtype.kind == "f":
                float_sums[slot] = vals.tolist()
            else:
                bound = max(abs(int(vals.min())), abs(int(vals.max())))
                if bound * n >= _INT64_SAFE:
                    return False
                int_sums[slot] = np.add.reduceat(vals, starts).tolist()
        minmax_segs = []
        for slot, arr in enumerate(minmax_arrays):
            vals = arr[order]
            reducer = (
                np.minimum
                if self._minmax_specs[slot][0] == "min"
                else np.maximum
            )
            minmax_segs.append(reducer.reduceat(vals, starts).tolist())

        n_counts = len(count_arrays)
        n_sums = len(sum_arrays)
        for g in group_order:
            key = group_keys[g]
            state = states.get(key)
            if state is None:
                state = states[key] = _AggState(
                    n_counts, n_sums, len(minmax_arrays)
                )
            size = sizes[g]
            state.count += size
            for slot in range(n_counts):
                state.counts[slot] += size
            for slot in range(n_sums):
                seg = int_sums.get(slot)
                if seg is not None:
                    state.sums[slot] += seg[g]
                else:
                    lo, hi = starts_list[g], stops_list[g]
                    state.sums[slot] = sum(
                        float_sums[slot][lo:hi], state.sums[slot]
                    )
                state.sum_counts[slot] += size
            for slot, seg in enumerate(minmax_segs):
                value = seg[g]
                if self._minmax_specs[slot][0] == "min":
                    current = state.mins[slot]
                    if current is None or value < current:
                        state.mins[slot] = value
                else:
                    current = state.maxs[slot]
                    if current is None or value > current:
                        state.maxs[slot] = value
        return True

    def _finalize(self, agg: "Aggregate", state: _AggState) -> Any:
        if agg.source is None:  # count(*)
            return state.count
        if agg.func == "count":
            return state.counts[self._count_fields.index(agg.source)]
        if agg.func == "sum":
            slot = self._sum_fields.index(agg.source)
            return state.sums[slot] if state.sum_counts[slot] else None
        if agg.func == "avg":
            slot = self._sum_fields.index(agg.source)
            n = state.sum_counts[slot]
            return state.sums[slot] / n if n else None
        if agg.func == "min":
            return state.mins[self._minmax_specs.index(("min", agg.source))]
        return state.maxs[self._minmax_specs.index(("max", agg.source))]


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
