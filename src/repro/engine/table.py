"""The access-method API of the storage system (paper §4.1).

A :class:`Table` exposes exactly the paper's interface:

1. ``scan(fieldlist, predicate, order)`` — full-relation scan with optional
   projection, range predicate, and sort order;
2. ``get_element(index, fieldlist)`` — positional access; a multidimensional
   index addresses a grid cell / array element;
3. ``next(order)`` — the element after the last ``get_element``;
4. ``scan_cost`` / ``get_element_cost`` — estimated milliseconds, computed
   from layout geometry *without touching data pages*;
5. ``order_list`` — sort orders the current organization serves "for free".

Scans follow the paper's §4.1 implementation notes: constituent objects of a
table are stored and walked in the same order (column groups merge
positionally), nested attributes are un-nested by merging with the parent
tuple, and when the requested order differs from the stored order the data is
buffered and re-sorted on the fly.

Every table is a list of *regions*, each a list of immutable *runs* plus a
pending insert buffer (:mod:`repro.engine.catalog`), shaped by two
parameters of its plan: a router (one region, or ``partition[...]``'s
regions routed by key) and a level policy (unbounded fan-in, or
``levels[...]``, whose regions are read newest-first), which compose as
``partition[k](levels[f; n](inner))``.

There is one write path too. :func:`split_design` splits a design into a
record pipeline, which a load and an insert apply to their rows, and a
structural residual, through which every write renders a region's batch of
stored records (:meth:`~repro.engine.database.RodentStore._render_region`).
After a load, a region's runs change only by a *seal* or a *merge*
(:mod:`repro.engine.levels`), under the region's design: a flush seals a
region's pending rows into one new run, and a compaction and a partition
re-layout each merge a region's runs into one. An update or a delete
renders nothing: it filters the pending rows and leaves tombstones, which
scans resolve and the next merge folds in. Each run keeps the design it was
rendered under. Scans read a region's runs and pending rows together.

There is one read path. Scans execute **batch-at-a-time** while keeping the
paper's per-tuple iterator API: the renderer yields page/chunk-sized
:class:`~repro.layout.renderer.ColumnBatch` objects, one selection step
(:func:`repro.query.expressions.selector`: the whole-column bitmap, else
the compiled closure) filters them — for scans, updates, deletes and
residual filters alike — projection reorders column vectors, and later
runs and pending records trail as extra batches. ``get_element`` /
``next`` are cursors over those batches, not a second reader.

How one run is read under one predicate — what is pruned, what that costs —
is decided in :mod:`repro.engine.access`; this module walks regions × runs
over those decisions, for the scan, its cost and its explain fields alike.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple, Sequence

from repro.algebra import ast
from repro.algebra.physical import (
    LAYOUT_ARRAY,
    LAYOUT_COLUMNS,
    LAYOUT_FOLDED,
    LAYOUT_GRID,
    LAYOUT_ROWS,
    PhysicalPlan,
)
from repro.engine import synopsis as zonemaps
from repro.engine.access import count_runs, decide_scan, open_run
from repro.engine.catalog import CatalogEntry
from repro.engine.cost import CostEstimate, estimate
from repro.errors import CorruptPageError, QueryError, StorageError
from repro.layout.columnar import apply_pipeline
from repro.layout.renderer import (
    ColumnBatch,
    StoredLayout,
    select_column_groups,
    sort_batches,
)
from repro.query.expressions import Predicate, selector
from repro.storage.page import SlottedPage
from repro.storage.serializer import RecordSerializer
from repro.types.schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.access import RunAccess, TableAccess
    from repro.engine.database import RodentStore
    from repro.engine.levels import _LevelResolver

Order = Sequence[Any]  # field names or (field, ascending) pairs


def normalize_order(order: Order | None) -> tuple[tuple[str, bool], ...]:
    """Normalize an order spec to ((field, ascending), ...)."""
    if not order:
        return ()
    normalized: list[tuple[str, bool]] = []
    for key in order:
        if isinstance(key, str):
            normalized.append((key, True))
        else:
            name, ascending = key
            normalized.append((name, bool(ascending)))
    return tuple(normalized)


#: The record-level operators, which map logical records to stored ones; the
#: others are structural: they render stored records into pages.
RECORD_OPS = (
    ast.Project, ast.Select, ast.Append, ast.OrderBy, ast.GroupBy, ast.Limit,
)


class DesignSplit(NamedTuple):
    """A physical design split at its stored-record shape (paper §3).

    ``pipeline`` (the record-level operators, inner-first) maps logical
    records to stored records in ``fields`` order; ``residual`` renders
    stored records, read as ``__stored__``, into pages. It keeps a sort or
    regroup whose keys are stored, so every run is sorted by itself. An
    array has no stored-record shape: no pipeline or fields (``None``),
    and the whole expression as residual, over the logical rows.
    """

    pipeline: tuple[ast.Node, ...] | None
    residual: ast.Node
    fields: tuple[str, ...] | None

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        """The stored records of the logical records ``batch`` holds, as a
        columnar batch in ``fields`` order: the pipeline is one permutation
        and selection of the columns
        (:func:`repro.layout.columnar.apply_pipeline`)."""
        if self.pipeline is None or (
            not self.pipeline and batch.fields == self.fields
        ):
            return batch
        return ColumnBatch.from_columns(self.fields, apply_pipeline(
            self.pipeline, batch.fields, batch.columns(), self.fields
        ))


def split_design(plan: PhysicalPlan) -> DesignSplit:
    """The one split of ``plan``'s design into record pipeline, structural
    residual and stored field order (:class:`DesignSplit`) — the one place
    that decides which operators are record-level. A ``mirror``'s pipeline
    is its left side's; its residual keeps both sides. Raises
    :class:`StorageError` for a design with no faithful split: a
    ``prejoin``, or a ``mirror`` whose sides store different records."""
    if any(isinstance(node, ast.Prejoin) for node in plan.expr.walk()):
        raise StorageError(
            f"{plan.expr.to_text()}: a prejoin design cannot be stored; "
            "join the tables in a query instead"
        )
    records = plan.kind != LAYOUT_ARRAY
    fields = tuple(_scan_schema(plan).names()) if records else None
    stored = set(fields or ())

    def record_ops(node: ast.Node) -> list[ast.Node]:
        """The record-level operators from ``node`` down to its table,
        outer-first (a ``mirror``'s left side)."""
        ops = []
        while not isinstance(node, (ast.TableRef, ast.Literal)):
            if isinstance(node, RECORD_OPS):
                ops.append(node)
            node = node.left if isinstance(node, ast.Mirror) else node.child
        return ops

    def kept(node: ast.Node) -> bool:
        """A sort or regroup on stored keys stays in the residual."""
        keys = (
            [k.name for k in node.keys] if isinstance(node, ast.OrderBy)
            else node.fields if isinstance(node, ast.GroupBy) else None
        )
        return keys is not None and stored.issuperset(keys)

    def stores(side: ast.Node) -> list[ast.Node]:
        """The operators that decide which records a mirror side stores,
        without their children: all but a kept sort or regroup with no
        ``limit`` above it."""
        ops, limited = [], False
        for op in record_ops(side):
            limited = limited or isinstance(op, ast.Limit)
            if limited or not kept(op):
                ops.append(op.with_children([ast.TableRef("")]))
        return ops

    for node in plan.expr.walk():
        if not isinstance(node, ast.Mirror):
            continue
        if any(isinstance(n, ast.Chunk) for n in node.walk()):
            raise StorageError(f"{node.to_text()}: a mirror side cannot be an array")
        if stores(node.left) != stores(node.right):
            raise StorageError(
                f"mirror sides {node.left.to_text()} and {node.right.to_text()} "
                "store different records: give them the same record operators "
                "(only a sort or regroup on stored fields may differ)"
            )

    def over_stored(node: ast.Node) -> ast.Node:
        if isinstance(node, ast.TableRef) or (
            records and isinstance(node, ast.Literal)
        ):
            return ast.TableRef("__stored__")
        if records and isinstance(node, RECORD_OPS) and not kept(node):
            return over_stored(node.child)
        return node.with_children([over_stored(c) for c in node.children()])

    if not records:
        return DesignSplit(None, over_stored(plan.expr), None)
    pipeline = tuple(reversed(record_ops(plan.expr)))
    return DesignSplit(pipeline, over_stored(plan.expr), fields)


def stored_split(plan: PhysicalPlan) -> DesignSplit:
    """:func:`split_design` of ``plan``, worked out once per plan object and
    kept in its ``__dict__`` (as :func:`functools.cached_property` keeps a
    value): a plan is frozen, and a re-layout replaces it."""
    memo = vars(plan)
    split = memo.get("_design_split")
    if split is None:
        split = memo["_design_split"] = split_design(plan)
    return split


class Table:
    """One stored table; created through :class:`repro.engine.database.RodentStore`."""

    def __init__(self, db: "RodentStore", entry: CatalogEntry):
        self._db = db
        self._entry = entry
        # When set, this handle is a *pinned view*: every layout-bearing
        # property below reads the TableSnapshot instead of the live entry,
        # so an in-flight scan keeps seeing the version it opened even as
        # writers commit new layouts. Created by :meth:`_pinned_view`.
        self._snap = None
        self._cursor: Iterator[tuple] | None = None
        self._cursor_order: tuple[tuple[str, bool], ...] = ()
        self._cursor_pos = -1

    def _pinned_view(self, snap) -> "Table":
        """A clone of this handle bound to one MVCC snapshot."""
        view = Table(self._db, self._entry)
        view._snap = snap
        return view

    @property
    def _state(self):
        """The pinned snapshot, else the live entry (same attribute names)."""
        return self._entry if self._snap is None else self._snap

    @property
    def _regions(self):
        """The table's regions (snapshot-frozen for pinned scans)."""
        return self._state.regions

    # -- basic properties ---------------------------------------------------

    @property
    def name(self) -> str:
        return self._entry.name

    @property
    def store(self) -> "RodentStore":
        """The owning store (the query planner resolves join tables here)."""
        return self._db

    @property
    def logical_schema(self) -> Schema:
        return self._entry.logical_schema

    @property
    def plan(self) -> PhysicalPlan:
        plan = self._state.plan
        if plan is None:
            raise StorageError(f"table {self.name!r} has no physical plan yet")
        return plan

    @property
    def is_loaded(self) -> bool:
        return self._state.loaded

    def _require_loaded(self) -> list:
        """The regions of a scannable table."""
        if not self.is_loaded:
            raise StorageError(
                f"table {self.name!r} has not been loaded yet"
            )
        return self._regions

    @property
    def layout(self) -> StoredLayout:
        """The main layout of a flat (one region, one main run) table."""
        regions = self._require_loaded()
        main = regions[0].main if len(regions) == 1 else None
        if main is None:
            raise StorageError(f"table {self.name!r} has no single layout")
        return main.layout

    @property
    def main_plan(self) -> PhysicalPlan:
        """The design of :attr:`layout` (positional access addresses it),
        which a deferred design change leaves as it was; any table whose
        plan is not one layout: :attr:`plan`."""
        plan = self.plan
        main = self._regions[0].main if plan.region_design is None else None
        return plan if main is None else main.plan

    @property
    def is_partitioned(self) -> bool:
        return self.plan.partition is not None

    @property
    def partitions(self):
        """The table's :class:`~repro.engine.catalog.Region` list — the
        partitions of a partitioned table; any other table is one region
        (frozen for pinned scans)."""
        return self._regions

    @property
    def partition_count(self) -> int:
        return len(self._regions)

    @property
    def run_count(self) -> int:
        """Runs in the manifests of a levelled table's regions."""
        if self.plan.levels is None:
            return 0
        return sum(len(region.runs) for region in self._regions)

    @property
    def row_count(self) -> int:
        """The rows a scan returns: the regions' stored counts. A keyed
        level policy's are an upper bound (shadowed versions are known only
        at merge), so that table alone counts what a scan resolves."""
        spec = self.plan.levels if self._regions else None
        if spec is not None and spec.key is not None:
            batches, _ = self._table_source(None, None)
            return sum(batch.n_rows for batch in batches)
        return sum(region.row_count for region in self._regions)

    def scan_schema(self) -> Schema:
        """Schema of the tuples a scan produces (folded layouts un-nest)."""
        return _scan_schema(self.plan)

    @property
    def stats(self):
        """Collected :class:`~repro.engine.stats.TableStats`, or ``None``."""
        return self._entry.stats

    def estimated_row_count(self, predicate: Predicate | None = None) -> float:
        """Expected rows a scan with ``predicate`` produces.

        The base count is the regions' stored counts, read from the
        catalog, not the pages: exact, but for a keyed table's shadowed
        versions. The predicate's prunable ranges scale it by histogram
        selectivity (independence assumption). Residual conditions beyond
        the ranges are ignored, so this is an upper-bound style estimate —
        what the planner, the adaptation checks and the lazy policy need.
        """
        return self.row_estimator(predicate)()

    def row_estimator(self, predicate: Predicate | None = None):
        """:meth:`estimated_row_count` of the table as it is now, as a
        callable: the row counts and statistics are taken here, the
        histogram selectivity only when it is called."""
        base = float(sum(region.row_count for region in self._regions))
        stats = self._entry.stats
        if predicate is None or stats is None:
            return lambda: base
        return lambda: base * stats.predicate_selectivity(predicate.ranges())

    def observed_row_estimate(
        self,
        fieldlist: Sequence[str] | None,
        predicate: Predicate | None,
        order: Order | None = None,
    ) -> float | None:
        """Decayed observed result cardinality of this access shape, if the
        workload monitor has seen it complete before. The planner consults
        this when table statistics cannot price the scan."""
        monitor = self._entry.monitor
        if monitor is None:
            return None
        from repro.optimizer.monitor import access_signature

        key, _, _ = access_signature(
            fieldlist, predicate, normalize_order(order)
        )
        pattern = monitor.patterns.get(key)
        if pattern is None:
            return None
        return pattern.avg_rows

    def record_scan_feedback(self, estimated, actual: float) -> None:
        """Planner feedback: a compiled scan's estimated (a number, or a
        callable the monitor evaluates when its feedback is read) vs
        actual rows.

        :class:`~repro.query.operators.TableScanOp` reports here after a
        completed execution; the workload monitor folds it into a decayed
        q-error that ``adaptivity_report`` exposes, so estimation drift is
        visible next to the adaptation decisions it influences.
        """
        self._db.adaptivity.record_estimate(self.name, estimated, actual)

    # ==================================================================
    # scan
    # ==================================================================

    def scan(
        self,
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Order | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple]:
        """Scan the relation (paper §4.1 method 1).

        Args:
            fieldlist: optional projection (output tuple order follows it).
            predicate: optional range predicate; grid layouts use its
                per-field ranges to skip cells via the cell directory, column
                layouts read only the groups the query touches, and a rows
                run holding a secondary index probes it instead of being
                scanned when the predicate is selective.
            order: optional sort order; when the stored order does not
                satisfy it, the scan sorts on the fly, over the key
                columns of its batches (``sort_batches``).
            limit: optional maximum row count, pushed into the pipeline —
                scans whose order is already satisfied stop reading pages
                once ``limit`` rows survive the predicate, and a scan that
                has to sort keeps only the best ``limit`` rows as it reads.

        The iterator is produced batch-at-a-time internally (see
        :meth:`scan_batches`).
        """
        batches = self._open_scan(
            fieldlist, predicate, order, limit, emit=ColumnBatch.iter_rows
        )
        return _ScanStream(chain.from_iterable(batches), batches)

    def scan_batches(
        self,
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Order | None = None,
        limit: int | None = None,
    ) -> Iterator[list[tuple]]:
        """Batch-at-a-time scan: yields lists of output tuples.

        The building blocks are assembled once per scan — vectorized
        selection bitmaps / compiled predicate closures, columnar or
        ``operator.itemgetter`` projection — then applied per batch, so
        per-row Python overhead is amortized across each page/chunk.
        Flattened, the batches equal :meth:`scan` output exactly.
        """
        return self._open_scan(
            fieldlist, predicate, order, limit, emit=ColumnBatch.rows
        )

    def scan_column_batches(
        self,
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Order | None = None,
        limit: int | None = None,
        access: TableAccess | None = None,
    ) -> Iterator[ColumnBatch]:
        """Vectorized scan: yields :class:`ColumnBatch` objects directly.

        The physical operators consume this form — columnar batches keep
        their typed vectors (and any pending selection) all the way
        into joins and aggregates. Row contents and order match
        :meth:`scan_batches` exactly. ``access`` is the planner's decision
        for these arguments (:meth:`scan_access`), read through where it
        still holds.
        """
        return self._open_scan(fieldlist, predicate, order, limit, access)

    def _open_scan(
        self,
        fieldlist: Sequence[str] | None,
        predicate: Predicate | None,
        order: Order | None,
        limit: int | None,
        access: TableAccess | None = None,
        emit=None,
    ) -> Iterator:
        """Every scan entry point: observation, the MVCC pin, and the scan's
        one generator (:meth:`_scan`), primed — its set-up runs now, so a
        bad argument raises here, and from here on its ``finally`` releases
        the pin: on exhaustion, on ``close()``, or when the scan is
        discarded unstarted."""
        if limit is not None and limit < 0:
            limit = 0  # a negative limit selects nothing, like [:0]
        order_keys = normalize_order(order)
        if access is not None and not access.asks(
            fieldlist, predicate, order_keys
        ):
            access = None
        # Feed the adaptive loop *before* pinning any layout state: a due
        # periodic adaptation may re-render the table here, and the pin
        # below then captures the new design.
        observation = self._db.adaptivity.observe_scan(
            self.name, fieldlist, predicate, order_keys,
            None if access is None else access.signature,
        )
        mvcc = self._entry.mvcc
        view = mvcc.pin(self._entry)
        scan = self._pinned_view(view)._scan(
            mvcc, view, fieldlist, predicate, order_keys, limit,
            None if limit is not None else observation, access, emit,
        )
        next(scan)
        return scan

    def _corruption_guard(self, exc: CorruptPageError, unit: str) -> None:
        """Contain an unrepairable corrupt page of ``unit`` (one run, named
        by its partition under a router), or re-raise it.

        Default behavior re-raises :class:`~repro.errors.CorruptPageError`
        (the query fails loudly). Under ``store.degraded_reads = True`` the
        remaining batches of the affected *unit* are skipped instead, and
        the skip is recorded both on the per-scan report
        (``corruption_skipped`` in explain()) and in the store's integrity
        registry — degraded results are never silently complete.
        """
        if not getattr(self._db, "degraded_reads", False):
            raise exc
        event = {
            "table": self.name,
            "unit": unit,
            "page_id": exc.page_id,
            "error": str(exc),
        }
        report = getattr(self, "_corruption_report", None)
        if report is not None:
            report.append(event)
        self._db.integrity.record_skip(dict(event))

    def _scan(
        self,
        mvcc,
        view,
        fieldlist: Sequence[str] | None,
        predicate: Predicate | None,
        order_keys: tuple[tuple[str, bool], ...],
        limit: int | None,
        observation,
        access: TableAccess | None,
        emit,
    ) -> Iterator:
        """THE scan, on this pinned view of ``view``: one generator from
        set-up to the last batch, whose ``finally`` releases the pin.

        The decision and the per-batch set-up are the planner's ``access``
        while it holds for ``view`` (a write since made a new view), else
        decided here. Yields :class:`ColumnBatch` objects — filtered,
        projected, and limit-trimmed, columnar sources keeping typed vectors
        plus a pending selection all the way out — each passed through
        ``emit`` when given. A completed scan reports its row count to the
        workload monitor (``observation``; limited scans pass none: limit is
        not part of the access signature, so a truncated count would
        corrupt the pattern's ``avg_rows``)."""
        try:
            if access is None or not access.holds(view, self._db.zone_pruning):
                access = decide_scan(self, fieldlist, predicate, order_keys)
            setup = access.setup
            if setup is None:
                setup = access.setup = self._scan_setup(access)
            # Per-scan degraded-read ledger: corrupt units this scan skipped.
            # Published on the (shared) catalog entry so explain() can
            # report the most recent scan's skips.
            self._corruption_report = []
            self._entry.last_corruption_skipped = self._corruption_report
            batches, _ = self._table_source(access.needed, predicate, access)
            keep, project, remaining = setup.keep, setup.project, limit
            yield  # primed: set-up is done, the pin is ours to release
            if remaining == 0:
                return
            if setup.sort is not None:
                if keep is not None:
                    batches = (batch.select(keep(batch)) for batch in batches)
                ordered = sort_batches(batches, setup.fields, *setup.sort, limit)
                batches, keep, remaining = (ordered,), None, None
            count = 0
            for batch in batches:
                if keep is not None:
                    batch = batch.select(keep(batch))
                if not batch.n_rows:
                    continue
                if project is not None:
                    batch = project(batch)
                if remaining is not None:
                    if batch.n_rows >= remaining:
                        batch = batch.head(remaining)
                        yield batch if emit is None else emit(batch)
                        return
                    remaining -= batch.n_rows
                count += batch.n_rows
                yield batch if emit is None else emit(batch)
            if observation is not None:
                monitor, key = observation
                monitor.record_result(key, count)
        finally:
            mvcc.release(view)

    def _scan_setup(self, access: TableAccess) -> "ScanSetup":
        """What a scan does to each batch of ``access``'s target fields,
        derived once per decision: the compiled predicate, the sort the
        stored order does not serve, the projection. A field the scan
        cannot produce raises :class:`QueryError`."""
        fieldlist, predicate = access.fieldlist, access.predicate
        avail = access.target
        positions = {name: i for i, name in enumerate(avail)}
        keep = None
        if predicate is not None:
            missing = predicate.fields_used() - set(avail)
            if missing:
                raise QueryError(
                    f"predicate references unavailable field(s) {sorted(missing)}"
                )
            keep = selector(predicate, positions)
        sort = None
        order_keys = access.order_keys
        if order_keys and not self._order_satisfied(order_keys):
            for name, _ in order_keys:
                if name not in positions:
                    raise QueryError(f"unknown order field {name!r}")
            sort = (
                [positions[name] for name, _ in order_keys],
                [not ascending for _, ascending in order_keys],
            )
        if fieldlist is not None:
            for name in fieldlist:
                if name not in positions:
                    raise QueryError(f"unknown projection field {name!r}")
        out = avail if fieldlist is None else fieldlist
        return ScanSetup(
            tuple(avail), keep, sort, _batch_reorderer(avail, out)
        )

    def _needed_fields(
        self,
        fieldlist: Sequence[str] | None,
        predicate: Predicate | None,
        order_keys: tuple[tuple[str, bool], ...],
    ) -> list[str] | None:
        """Fields a scan must materialize, or None for 'all'."""
        if fieldlist is None:
            return None
        needed = list(fieldlist)
        seen = set(needed)
        if predicate is not None:
            for name in sorted(predicate.fields_used()):
                if name not in seen:
                    needed.append(name)
                    seen.add(name)
        for name, _ in order_keys:
            if name not in seen:
                needed.append(name)
                seen.add(name)
        return needed

    def _prune_intervals(
        self, predicate: Predicate | None
    ) -> dict[str, tuple[float, float]]:
        """Per-field pruning intervals, empty when zone pruning is off."""
        if predicate is None or not getattr(self._db, "zone_pruning", True):
            return {}
        return zonemaps.predicate_intervals(predicate)

    # ==================================================================
    # the table as a list of regions of runs
    # ==================================================================

    def _table_source(
        self,
        needed: Sequence[str] | None,
        predicate: Predicate | None,
        access: TableAccess | None = None,
    ) -> tuple[Iterator[ColumnBatch], list[str]]:
        """``(source, fields)`` of a scan: every region it must read.

        The decision's survivors, each read by :meth:`_region_batches`
        under its level policy's resolver, in one target field order —
        ``access``, or a decision made here for ``needed`` fields under
        ``predicate``. Under a router, the scan counts toward the partition
        pruning counters and the monitor's per-partition skew.
        """
        if access is None:
            access = decide_scan(self, needed, predicate)
        regions, target = access.survivors, access.target
        # A corrupt run is contained whole, per the store's degraded-read
        # policy, and named by its partition when there is a router.
        routed = self.plan.partition is not None
        if routed:
            entry = self._entry
            entry.partition_scans += 1
            entry.partitions_pruned_total += len(access.regions) - len(regions)
            self._db.adaptivity.observe_partitions(
                self.name, [r.pid for r in regions]
            )

        def source(region):
            prefix = f"partition[{region.pid}] " * routed
            return self._region_batches(
                region, access.run_needed, access.run_predicate, target,
                self._resolver(region, target),
                lambda run: f"{prefix}run[{run.rid}]", access,
            )

        workers = int(getattr(self._db, "scan_workers", 0) or 0)
        if workers > 1 and len(regions) > 1:
            # Regions fan out to the store's shared thread pool
            # morsel-style and merge back **in partition order**, so
            # parallel results are byte-identical to serial ones (the
            # buffer pool is lock-guarded for exactly this path).
            from repro.query.operators import fan_out_partitions

            sources = [partial(source, region) for region in regions]
            return (
                fan_out_partitions(self._db.scan_executor(), sources, workers),
                target,
            )
        return chain.from_iterable(map(source, regions)), target

    def _resolver(
        self, region, fields: Sequence[str]
    ) -> "_LevelResolver | None":
        """The resolution of ``region``'s runs over ``fields``-shaped rows:
        a keyed level policy's, else its tombstones' (``None``: neither)."""
        spec = self.plan.levels
        key = None if spec is None else spec.key
        if key is None and not region.level_tombstones:
            return None
        from repro.engine.levels import _LevelResolver

        return _LevelResolver(key, fields, region.level_tombstones)

    def _target_fields(self, needed: Sequence[str] | None) -> list[str]:
        """The canonical scan-schema order restricted to the fields a scan
        touches — the one order runs of different designs project to."""
        scan_names = self.scan_schema().names()
        if needed is None:
            return list(scan_names)
        needed_set = set(needed)
        return [f for f in scan_names if f in needed_set]

    def partition_survivors(self, predicate: Predicate | None) -> list:
        """Regions a scan with ``predicate`` must read (pure metadata).

        Whole partitions are ruled out by intersecting the predicate's
        per-field ranges with the partition map — range bounds, value keys,
        or (for point predicates) the hash bucket — before any region's
        zone maps even load. Pruning is conservative: expression keys and
        non-numeric values keep every region.
        """
        regions = self._require_loaded()
        spec = self.plan.partition
        key_field = spec.key_field if spec is not None else None
        if predicate is None or key_field is None:
            return list(regions)
        lo, hi = predicate.ranges().get(
            key_field, (float("-inf"), float("inf"))
        )
        if lo == float("-inf") and hi == float("inf"):
            return list(regions)
        return [
            r for r in regions if _region_may_match(spec, r, lo, hi)
        ]

    def partitions_pruned(self, predicate: Predicate | None) -> int:
        """Partitions a scan with ``predicate`` skips outright — from the
        partition map alone, no I/O and no counter side effects (what
        ``Q.explain()`` reports per scan node)."""
        if not self.is_loaded:
            return 0
        return len(self._regions) - len(self.partition_survivors(predicate))

    def _region_batches(
        self,
        region,
        needed: Sequence[str] | None,
        predicate: Predicate | None,
        target: Sequence[str],
        resolver: "_LevelResolver | None" = None,
        unit=None,
        access: TableAccess | None = None,
        select: Predicate | None = None,
    ) -> Iterator[ColumnBatch]:
        """THE batch scan of one region.

        Runs stream in stored order with the pending buffer trailing — or,
        under a keyed ``resolver`` (last writer wins), the pending buffer
        first and the runs newest-first through it; a run with tombstones
        newer than it passes through the resolver's survivors. Every run
        prunes against ``predicate`` by its own synopses, whatever its
        design (:func:`~repro.engine.access.open_run`), the pending buffer
        by its incrementally maintained zone; a run's secondary-index probe
        is one more such access. Batches are projected to
        ``target``. ``unit(run)`` names a run for degraded-read
        containment; ``None`` leaves containment to the caller. Under a
        decision (``access``) every run is read through the access it
        decided, and its intervals and compiled predicate are reused.
        Every batch is filtered by ``select``, when given (by
        ``predicate``, the caller's job, otherwise).
        """
        fields = tuple(target)
        positions = None
        if access is None:
            intervals = self._prune_intervals(predicate)
        else:
            intervals = access.intervals
        # A verdict that cannot raise selects before the tombstones apply,
        # so only the rows the scan keeps become tuples to resolve; one that
        # can must never see a suppressed row.
        keep = pick = None
        if predicate is not None and predicate.total:
            if access is not None and access.setup is not None:
                keep = access.setup.keep  # the scan's own, over ``target``
            else:
                positions = {f: i for i, f in enumerate(fields)}
                keep = selector(predicate, positions)
        if select is not None:
            if select is predicate and keep is not None:
                pick = keep
            else:
                positions = positions or {f: i for i, f in enumerate(fields)}
                pick = selector(select, positions)
        newest_first = resolver is not None and resolver.keyed
        runs = region.runs
        if newest_first:
            pending = self._pending_batch(region, intervals, resolver, fields, pick)
            if pending is not None:
                yield pending
            runs = runs[::-1]
        for run in runs:
            if not run.row_count:
                continue
            if access is not None:
                opened = access.runs[id(run)][1]
            else:
                opened = self._open_run(run, needed, predicate, intervals)
            reorder = _batch_reorderer(opened.fields, fields)
            try:
                if resolver is None or not resolver.enter_run(run):
                    # Fast path (no tombstone newer than the run, no merge
                    # key): no suppression can apply, batches pass through
                    # the vectorized pipeline.
                    for batch in opened.batches():
                        if reorder is not None:
                            batch = reorder(batch)
                        yield batch if pick is None else batch.select(pick(batch))
                    continue
                for batch in opened.batches():
                    if reorder is not None:
                        batch = reorder(batch)
                    if keep is not None:
                        batch = batch.select(keep(batch))
                    batch = resolver.survivors(batch)
                    if pick is not None and pick is not keep:
                        batch = batch.select(pick(batch))
                    if batch.n_rows:
                        yield batch
            except CorruptPageError as exc:
                if unit is None:
                    raise
                self._corruption_guard(exc, unit(run))
        if not newest_first:
            pending = self._pending_batch(region, intervals, resolver, fields, pick)
            if pending is not None:
                yield pending

    def _pending_batch(
        self, region, intervals, resolver, fields: tuple, pick
    ) -> ColumnBatch | None:
        """``region``'s pending rows as one batch of ``fields``, resolved
        and filtered by ``pick`` — ``None`` when it holds none, or its zone
        rules the prune ``intervals`` out."""
        zone = region.pending_zone
        if intervals and zone is not None and not zone.may_match(intervals):
            return None
        if not region.pending:
            return None
        names = tuple(self.scan_schema().names())
        batch = ColumnBatch.from_columns(names, region.pending.columns())
        if resolver is not None:
            batch = resolver.resolve_pending(batch)
        reorder = _batch_reorderer(names, fields)
        batch = batch if reorder is None else reorder(batch)
        return batch if pick is None else batch.select(pick(batch))

    def _region_rows(self, region) -> list[tuple]:
        """Every live stored-shape row of one region (runs + pending,
        resolved) in canonical scan order."""
        names = self.scan_schema().names()
        return _batch_rows(self._region_batches(
            region, None, None, names, self._resolver(region, names)
        ))

    def _open_run(
        self,
        run,
        needed: Sequence[str] | None,
        predicate: Predicate | None,
        intervals: dict[str, tuple[float, float]],
    ) -> RunAccess:
        """:func:`~repro.engine.access.open_run` of ``run`` (its indexes
        too) with this store's renderer, statistics, cost model and batch
        size."""
        db = self._db
        return open_run(
            db.renderer, run.layout, needed, predicate, intervals,
            self._entry.stats, db.cost_model, db.batch_rows, run.indexes,
        )

    def _order_satisfied(self, order_keys: tuple[tuple[str, bool], ...]) -> bool:
        """Does a scan serve ``order_keys`` without sorting?

        Later runs and pending rows are unordered relative to a region's
        first run, and the runs of a levelled region interleave. Otherwise every
        non-empty region must store that order itself (regions may have
        diverged designs, so each is checked), and — with multiple
        non-empty regions — the regions must concatenate in key order,
        which only range partitioning on the leading (ascending) sort key
        guarantees (regions are kept sorted by range bucket).
        """
        if not order_keys:
            return True
        regions = self._regions
        if any(
            r.pending or len(r.runs) > 1 or r.level_tombstones for r in regions
        ):
            return False
        live = [r for r in regions if r.row_count]
        for region in live:
            (run,) = region.runs
            if tuple(run.plan.sort_keys)[: len(order_keys)] != order_keys:
                return False
        if len(live) <= 1:
            return True
        spec = self.plan.partition
        return (
            spec is not None
            and spec.method == "range"
            and spec.key_field is not None
            and order_keys[0] == (spec.key_field, True)
        )

    # ==================================================================
    # secondary indexes (paper §1: "B+Trees as well as a variety of
    # geo-spatial indices")
    # ==================================================================

    def create_index(self, field_name: str) -> None:
        """Declare a B+Tree secondary index over ``field_name``: every rows
        run of the table holds one (:mod:`repro.engine.indexes`)."""
        self._declare_index((field_name,))

    def create_spatial_index(self, x_field: str, y_field: str) -> None:
        """Declare an R-Tree over two numeric point fields, held by every
        rows run of the table."""
        self._declare_index((x_field, y_field))

    def _declare_index(self, fields: tuple[str, ...]) -> None:
        """Declare the index over ``fields`` and build it for every run
        that can hold it and lacks it, as one mutation of the table (no
        seal or merge interleaves; later ones build their runs' own).
        Derived data: nothing is logged."""
        from repro.engine.indexes import build_indexes, check_declaration

        entry, renderer = self._entry, self._db.renderer
        with self._db.mutate(self.name):
            check_declaration(self, fields)
            built = [
                (run, build_indexes(renderer, run.layout, [fields]))
                for run in entry.runs()
                if fields not in run.indexes
            ]
            with entry.mvcc.lock:
                if fields not in entry.indexes:
                    entry.indexes += (fields,)
                for run, index in built:
                    run.indexes = {**run.indexes, **index}

    def drop_index(self, field_name: str) -> None:
        """Drop the B+Tree over ``field_name``: every run's tree retires
        (a scan pinned on it keeps its nodes until it drains)."""
        fields, entry = (field_name,), self._entry
        with self._db.mutate(self.name), entry.mvcc.lock:
            entry.indexes = tuple(f for f in entry.indexes if f != fields)
            for run in entry.runs():
                if fields in run.indexes:
                    indexes = dict(run.indexes)
                    tree = indexes.pop(fields).tree
                    self._db._retire_pages(entry, tree.page_ids())
                    run.indexes = indexes

    # ==================================================================
    # get_element / next
    # ==================================================================

    def get_element(
        self,
        index: int | Sequence[int],
        fieldlist: Sequence[str] | None = None,
    ):
        """Positional access (paper §4.1 method 2).

        For array layouts a multidimensional ``index`` addresses one element;
        for grid layouts it addresses a cell (returning the cell's records);
        otherwise ``index`` is a flat position in storage order.
        """
        plan = self.main_plan
        renderer = self._db.renderer
        if plan.kind == LAYOUT_ARRAY:
            return renderer.get_array_element(self.layout, index)
        if plan.kind == LAYOUT_GRID and not isinstance(index, int):
            entry = self._cell_at(tuple(index))
            cell = renderer.iter_grid_batches(self.layout, [entry], None)
            region = self._regions[0]
            resolver = self._resolver(region, self.scan_schema().names())
            if resolver is not None and resolver.enter_run(region.main):
                cell = map(resolver.survivors, cell)  # drop tombstoned rows
            return self._project_records(_batch_rows(cell), fieldlist)
        if not isinstance(index, int):
            raise QueryError(
                f"layout {plan.kind} requires a flat integer index"
            )
        record = self._element_at(index)
        self._cursor = None
        self._cursor_pos = index
        if fieldlist is None:
            return record
        projected = self._project_records([record], fieldlist)
        return projected[0]

    def _cell_at(self, coord: tuple[int, ...]):
        for entry in self.layout.cell_directory:
            if entry.coord == coord:
                return entry
        raise QueryError(f"no grid cell at coordinate {coord}")

    def _element_at(self, index: int) -> tuple:
        if index < 0:
            raise QueryError("element index must be non-negative")
        plan = self.main_plan
        renderer = self._db.renderer
        if (
            plan.kind == LAYOUT_ROWS
            and self.layout.page_row_counts
            and not self._regions[0].level_tombstones
        ):
            remaining = index
            for page_pos, count in enumerate(self.layout.page_row_counts):
                if remaining < count:
                    page_id = self.layout.extent.page_ids[page_pos]
                    frame = renderer.pool.fetch(page_id)
                    try:
                        page = SlottedPage(renderer.page_size, frame.data)
                        blob = page.get(remaining)
                        record = RecordSerializer(plan.schema).decode(blob)
                    finally:
                        renderer.pool.unpin(page_id)
                    if plan.delta_fields:
                        # Delta rows need the running prefix; fall back to
                        # a sequential walk for correctness.
                        break
                    return record
                remaining -= count
        # Past the main run (later runs, pending rows) or not directly
        # addressable: a positional walk — engine plumbing, not query
        # workload.
        with self._db.adaptivity.pause():
            for position, record in enumerate(self.scan()):
                if position == index:
                    return record
        raise QueryError(
            f"element index {index} out of range (table has "
            f"{self.row_count} rows)"
        )

    def next(self, order: Order | None = None):
        """The element after the previous ``get_element`` (§4.1 method 3)."""
        order_keys = normalize_order(order)
        if self._cursor is None or order_keys != self._cursor_order:
            start = getattr(self, "_cursor_pos", -1) + 1
            self._cursor = self._scan_from(start, order)
            self._cursor_order = order_keys
        try:
            value = next(self._cursor)
        except StopIteration:
            self._cursor = None
            raise QueryError("next() past the end of the table") from None
        self._cursor_pos = getattr(self, "_cursor_pos", -1) + 1
        return value

    def _scan_from(self, start: int, order: Order | None) -> Iterator[tuple]:
        """Row iterator positioned at row ``start``: whole batches ahead of
        the target are counted and dropped without per-tuple ``next()``
        calls (the cursor-rebuild path after ``get_element``)."""
        with self._db.adaptivity.pause():  # cursor plumbing, not workload
            if start <= 0:
                return self.scan(order=order)
            batches = self.scan_batches(order=order)

        def generate() -> Iterator[tuple]:
            remaining = start
            for batch in batches:
                if remaining >= len(batch):
                    remaining -= len(batch)
                    continue
                yield from (batch[remaining:] if remaining else batch)
                remaining = 0

        return generate()

    def _project_records(
        self, records: list[tuple], fieldlist: Sequence[str] | None
    ) -> list[tuple]:
        if fieldlist is None:
            return records
        positions = {n: i for i, n in enumerate(self.scan_schema().names())}
        try:
            out_idx = [positions[f] for f in fieldlist]
        except KeyError as exc:
            raise QueryError(
                f"unknown projection field {exc.args[0]!r}"
            ) from None
        return _batch_projector(out_idx)(records)

    # ==================================================================
    # cost API
    # ==================================================================

    def scan_access(
        self,
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Order | None = None,
    ) -> TableAccess:
        """The access decision a scan with these arguments makes
        (:func:`~repro.engine.access.decide_scan`), on the table state a
        scan pinned now would read: the planner prices it and hands it to
        :meth:`scan_column_batches` to read through."""
        view = self
        if self._snap is None:
            view = self._pinned_view(self._entry.mvcc.pin(self._entry, False))
        return decide_scan(view, fieldlist, predicate, normalize_order(order))

    def scan_cost(
        self,
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Order | None = None,
    ) -> CostEstimate:
        """Estimated cost of the scan, in milliseconds (§4.1 method 4): the
        runs it reads, each as its access decided — an index probe or the
        run's pruned pages."""
        decided = self.scan_access(fieldlist, predicate, order)
        return decided.cost(self._db.cost_model)

    def _run_accesses(
        self,
        regions: Sequence,
        needed: Sequence[str] | None,
        predicate: Predicate | None,
        intervals: dict[str, tuple[float, float]],
        pruning: Predicate | None,
    ) -> Iterator[tuple[Any, RunAccess]]:
        """THE metadata walk: ``(run, RunAccess)`` for every run of
        ``regions`` a scan opens with these arguments (:meth:`_run_scan_args`)
        — the very values :meth:`_region_batches` reads through, so cost and
        explain fold what the scan does. Pending rows are memory-resident.

        Under a keyed level policy a region's oldest run alone prunes by
        the scan's own predicate (``pruning``): it has no older version to
        shadow, while a newer run's non-matching version must still hide
        an older matching one."""
        oldest = None
        if predicate is not pruning:
            oldest = (pruning, self._prune_intervals(pruning))
        for region in regions:
            runs = region.runs
            for run in runs:
                if oldest is not None and run is runs[0]:
                    yield run, self._open_run(run, needed, *oldest)
                else:
                    yield run, self._open_run(run, needed, predicate, intervals)

    def _run_scan_args(
        self,
        regions: Sequence,
        needed: Sequence[str] | None,
        predicate: Predicate | None,
    ) -> tuple[Sequence[str] | None, Predicate | None]:
        """The projection and predicate a scan of ``regions`` hands each
        *run* — what the costing and pruning estimates must assume too.
        Only resolution widens them: a keyed level policy scans un-pruned
        and un-projected (a newer version must shadow older ones of its key
        even when it fails the predicate; only a region's oldest run
        prunes, :meth:`_run_accesses`), leaving selection to the downstream
        filter, and tombstones compare whole rows."""
        spec = self.plan.levels
        if spec is not None and spec.key is not None:
            return None, None
        if any(r.level_tombstones for r in regions):
            return None, predicate
        return needed, predicate

    def access_path(
        self,
        fieldlist: Sequence[str] | None = None,
        predicate: Predicate | None = None,
        order: Order | None = None,
    ) -> tuple[str, CostEstimate]:
        """The access method a scan with these arguments will actually use.

        Returns ``("index", cost)`` when some run is read through an index
        probe, else ``("scan", cost)`` — the cost is :meth:`scan_cost`.
        """
        decided = self.scan_access(fieldlist, predicate, order)
        path = "index" if decided.probes else "scan"
        return path, decided.cost(self._db.cost_model)

    def pruned_pages(
        self,
        predicate: Predicate | None = None,
        fieldlist: Sequence[str] | None = None,
    ) -> int:
        """Exact number of data pages the scan's pruning will skip, from
        the layout synopses alone (:attr:`TableAccess.pruned`: every run's
        verdict plus the partitions ruled out)."""
        if predicate is None or not self.is_loaded:
            return 0
        return self.scan_access(fieldlist, predicate).pruned

    def get_element_cost(
        self,
        index: int | Sequence[int],
        fieldlist: Sequence[str] | None = None,
    ) -> CostEstimate:
        """Estimated cost of ``get_element`` (§4.1 method 5)."""
        model = self._db.cost_model
        plan = self.main_plan
        if plan.kind in (LAYOUT_ROWS, LAYOUT_ARRAY):
            return estimate(model, 1, 1)
        if plan.kind == LAYOUT_GRID and not isinstance(index, int):
            try:
                entry = self._cell_at(tuple(index))
            except QueryError:
                return estimate(model, 0, 0)
            pages = self._db.renderer.pages_for_cells(self.layout, [entry])
            return estimate(model, len(pages), count_runs(pages))
        if plan.kind == LAYOUT_COLUMNS:
            groups = len(select_column_groups(self.layout, fieldlist))
            return estimate(model, groups, groups)
        # Everything else — folded and mirror layouts, the regions of a
        # partitioned table, the runs of a levelled one — is walked in
        # scan order: bounded by a full scan.
        return self.scan_access().cost(model)

    def order_list(self) -> list[tuple[tuple[str, bool], ...]]:
        """Sort orders the current organization serves efficiently (§4.1
        method 6): every prefix of the stored sort keys."""
        stored = tuple(self.plan.sort_keys)
        return [stored[: i + 1] for i in range(len(stored))]

    def order_satisfied(self, order: Order | None) -> bool:
        """True when a scan with ``order`` will not buffer-and-sort.

        The public face of the runtime gate scans use: the stored sort keys
        must prefix-cover ``order`` and no later runs or pending rows may
        trail the first run. The query planner consults this (rather
        than re-deriving it from :meth:`order_list`) so its sort-cost
        estimates track exactly what :meth:`scan_batches` will do.
        """
        return self._order_satisfied(normalize_order(order))

    # ==================================================================
    # inserts, flushes, compaction (paper §5 reorganization states)
    # ==================================================================

    def insert(self, records: Sequence[Sequence[Any]]) -> int:
        """Insert logical records; they land in the pending buffer.

        The insert runs as a transaction: the surviving rows are WAL-logged
        (durable stores) so crash recovery can replay them, and the pending
        buffer swap happens under the entry's MVCC lock so pinned scans
        never observe a half-applied batch.

        Returns the number of records that survive the plan's record-level
        pipeline (a plan with a ``select`` drops non-matching records).
        """
        schema = self.logical_schema
        transformed = self._stored_split().apply(ColumnBatch.from_columns(
            tuple(schema.names()), schema.coerce_columns(records)
        ))
        with self._db.mutate(self.name) as m:
            if transformed.n_rows:
                with self._entry.mvcc.lock:
                    self._add_pending(transformed)
                m.log_rows(self.name, list(zip(*transformed.columns())))
        if transformed.n_rows:
            # After the insert transaction commits (a crash in between
            # simply leaves the rows in pending for the next seal — WAL
            # replay restores them from the insert's KIND_ROWS record).
            self._db.maintain_levels(self.name, transformed.n_rows)
        return transformed.n_rows

    def _add_pending(self, batch: ColumnBatch) -> None:
        """Buffer a ``batch`` of stored-shape records in their regions'
        pending buffers — the one landing path of :meth:`insert` and of WAL
        replay. The table's router sends each row to its region (creating
        regions for unseen value-partition keys); a one-region table's
        router is trivial. Caller holds the entry's MVCC lock."""
        db, entry = self._db, self._entry
        names = self.scan_schema().names()
        router = db.router_for(entry)
        for locator, part in router.split(batch):
            if part.n_rows:
                db._region_for(entry, router, locator).add_columns(
                    names, part.columns()
                )

    def _stored_split(self) -> DesignSplit:
        """The table's design split; a design with no stored-record shape
        (an array) takes no inserts, updates or deletes."""
        split = stored_split(self.plan)
        if split.pipeline is None:
            raise StorageError(
                f"table {self.name!r} has an {self.plan.kind} design with no "
                f"stored-record shape: it takes no inserts, updates or "
                f"deletes; load it again instead"
            )
        return split

    def flush_inserts(self):
        """Seal pending records into new on-disk runs, one per region with
        pending rows (:func:`~repro.engine.levels.seal`).

        Each run renders under its region's design (a levelled table's at
        level 0). Returns the new runs' layouts, ``None`` when nothing was
        pending.
        """
        from repro.engine.levels import seal

        with self._db.mutate(self.name) as m:
            runs = [seal(self, region, m) for region in self._entry.regions]
        return [run.layout for run in runs if run is not None] or None

    @property
    def unmerged_row_count(self) -> int:
        """Rows a compaction folds in: every run after a region's first,
        and the pending rows."""
        return sum(
            sum(run.row_count for run in region.runs[1:])
            + len(region.pending)
            for region in self._regions
        )

    def compact(self) -> None:
        """The one full merge, for every table shape: each region's runs
        and pending rows merge into one run under its design, tombstones
        and last-writer-wins resolution applied, one region per
        transaction (:func:`~repro.engine.levels.merge_regions`). A region
        already :meth:`~repro.engine.catalog.Region.merged` is untouched.
        """
        from repro.engine.levels import merge_regions

        merge_regions(self, [
            region for region in self._require_loaded() if not region.merged()
        ])

    # ==================================================================
    # deletes and updates (tombstones)
    # ==================================================================

    def delete(self, predicate: Predicate | None = None) -> int:
        """Transactionally remove matching rows (all rows when ``predicate``
        is ``None``).

        A delete renders no page (:func:`~repro.engine.levels.rewrite`):
        it drops matching pending rows and leaves tombstones for the
        matches in runs, which the next merge folds in; in-flight snapshot
        scans keep reading the version they pinned. Returns the number of
        rows removed.
        """
        return self._rewrite(predicate, None)

    def update(
        self, assignments: dict, predicate: Predicate | None = None
    ) -> int:
        """Transactionally update matching rows.

        ``assignments`` maps field name -> new value, or field name -> a
        callable receiving the row as a dict and returning the new value.
        The matches are deleted as by :meth:`delete`, their new versions
        appended to the pending rows. Returns the number of rows changed.
        """
        if not assignments:
            return 0
        return self._rewrite(predicate, assignments)

    def _rewrite(
        self, predicate: Predicate | None, assignments: dict | None
    ) -> int:
        names = list(self._stored_split().fields)
        positions = {n: i for i, n in enumerate(names)}
        if assignments is not None:
            unknown = sorted(set(assignments) - set(names))
            if unknown:
                raise QueryError(
                    f"cannot update unknown field(s) {unknown}"
                )
        if predicate is not None:
            missing = predicate.fields_used() - set(names)
            if missing:
                raise QueryError(
                    f"predicate references unavailable field(s) "
                    f"{sorted(missing)}"
                )
        if assignments is not None:
            spec = self.plan.partition
            if spec is not None and spec.key_field in assignments:
                raise StorageError(
                    "cannot update the partition key in place; "
                    "re-load or re-layout the table instead"
                )

        def updated(row: tuple) -> tuple:
            values = list(row)
            for field, value in assignments.items():
                if callable(value):
                    value = value(dict(zip(names, row)))
                values[positions[field]] = value
            return tuple(values)

        from repro.engine import levels

        edit = None if assignments is None else updated
        return levels.rewrite(self, predicate, edit, names)

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        plan = self._entry.plan.describe() if self._entry.plan else "unplanned"
        return f"<Table {self.name} rows={self.row_count} [{plan}]>"


class ScanSetup(NamedTuple):
    """What a scan does to each batch of its decision's target ``fields``
    (:meth:`Table._scan_setup`): filter by ``keep``, sort by ``sort`` —
    ``(key positions, descending flags)``, ``None`` when the stored order
    serves the scan — and project (``project``, ``None``: as stored)."""

    fields: tuple[str, ...]
    keep: Any
    sort: tuple[list[int], list[bool]] | None
    project: Any


class _ScanStream:
    """Row iterator over a scan: chain-speed iteration plus ``close()``.

    ``for``-loops and genexprs call ``iter()`` and get the raw
    ``itertools.chain`` — per-row ``next()`` stays entirely in C. The
    wrapper itself only fields direct ``next(it)`` calls and ``close()``,
    which abandons the scan by closing its generator (dropping the MVCC
    pin promptly instead of at GC).
    """

    __slots__ = ("_rows", "_scan")

    def __init__(self, rows, scan):
        self._rows = rows
        self._scan = scan

    def __iter__(self):
        return self._rows

    def __next__(self):
        return next(self._rows)

    def close(self) -> None:
        self._scan.close()


def _scan_schema(plan: PhysicalPlan) -> Schema:
    """Schema of scan results: folded layouts un-nest to group+nest fields."""
    if plan.region_design is not None:
        # Every region and run projects to the template's scan shape, even
        # when individual regions or runs carry diverged designs.
        return _scan_schema(plan.region_design)
    if plan.kind != LAYOUT_FOLDED:
        return plan.schema
    from repro.layout.renderer import _nest_types
    from repro.types.schema import Field

    nest_types = _nest_types(
        plan.schema.field("__folded__").dtype, len(plan.nest_fields)
    )
    fields = [plan.schema.field(f) for f in plan.group_fields]
    fields += [
        Field(name, dtype)
        for name, dtype in zip(plan.nest_fields, nest_types)
    ]
    return Schema(fields)


def _region_may_match(spec, region, lo: float, hi: float) -> bool:
    """Can ``region`` hold a record whose partition key lies in [lo, hi]?

    The partition-pruning core: range regions test bound overlap, value
    regions test key membership, hash regions match only when a point
    predicate (lo == hi) pins the bucket. Conservative in every
    non-numeric / non-point case.
    """
    if spec.method == "range":
        if region.lower is not None and region.lower > hi:
            return False
        if region.upper is not None and region.upper <= lo:
            return False
        return True
    if spec.method == "value":
        value = region.key
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return True
        return lo <= value <= hi
    if lo == hi:  # hash: a point predicate pins one bucket
        from repro.layout.partitioning import stable_hash

        return stable_hash(lo) % spec.buckets == region.key
    return True


def _batch_reorderer(avail: Sequence[str], target: Sequence[str]):
    """``ColumnBatch -> ColumnBatch`` re-ordering ``avail``-shaped batches to
    ``target`` (``None`` when the orders already agree). Columnar
    batches keep their vectors and any pending selection; row-major
    ones project their tuples."""
    if list(avail) == list(target):
        return None
    index = {f: i for i, f in enumerate(avail)}
    idx = [index[f] for f in target]
    fields = tuple(target)
    project_rows = _batch_projector(idx)

    def reorder(batch: ColumnBatch) -> ColumnBatch:
        if batch.is_columnar:
            return batch.project_columns(idx, fields)
        return ColumnBatch.from_rows(fields, project_rows(batch.rows()))

    return reorder


def _batch_projector(out_idx: Sequence[int] | None):
    """Batch projection: list of rows -> list of projected rows, or None."""
    if out_idx is None:
        return None
    if len(out_idx) == 1:
        i = out_idx[0]
        return lambda rows: [(row[i],) for row in rows]
    getter = operator.itemgetter(*out_idx)
    return lambda rows: list(map(getter, rows))


def _batch_rows(batches: Iterable[ColumnBatch]) -> list[tuple]:
    """The rows of ``batches``, as native-python tuples."""
    return list(chain.from_iterable(map(ColumnBatch.iter_rows, batches)))
