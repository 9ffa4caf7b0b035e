"""Seal and merge: the only two ways a region's runs change.

A table is a list of regions, each a list of immutable runs plus a pending
insert buffer (:mod:`repro.engine.catalog`). As in CobbleDB, a flush and a
compaction are compositions of one seal and one merge, for every shape: a
flat table is a level with unbounded fan-in.

* :func:`seal` renders a region's pending rows into one new run under the
  region's design — ``Table.flush_inserts``, the levelled auto-seal and
  (:func:`sealed_run`) every region of a bulk load;
* :func:`merge` reads chosen runs, and the pending rows when asked, under
  one resolver and renders one run under the region's design — levelled
  merges and (:func:`merge_regions`, one region per transaction)
  ``compact()`` and every region re-layout.

Both swap through :func:`replace_runs`, which an abort undoes, and so does
:func:`redesign`, which only changes the design later seals and merges
render under: a re-layout of any table shape is a redesign plus a merge.
An ``update`` or ``delete`` renders nothing, whatever the shape
(:func:`rewrite`): it filters the pending rows and leaves tombstones that
reads resolve and the next merge folds in. The level cascade lives here
too; ``RodentStore`` and ``Table`` keep the public entry points.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.algebra import ast
from repro.algebra.physical import PhysicalPlan
from repro.algebra.transforms import eval_scalar
from repro.engine.catalog import CatalogEntry, PendingBuffer, Region, Run
from repro.engine.indexes import build_indexes
from repro.engine.synopsis import may_hold
from repro.engine.table import Table, _batch_rows, _scan_schema
from repro.errors import RodentStoreError
from repro.layout.renderer import ColumnBatch, merge_batches
from repro.query.expressions import Predicate

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import RodentStore, _Mutation


def sealed_run(
    store: RodentStore,
    plan: PhysicalPlan,
    region: Region,
    batch: ColumnBatch,
    indexes: Sequence[tuple[str, ...]],
) -> Run:
    """A ``batch`` of stored-shape rows rendered as one run, not yet
    swapped in, under ``region``'s design (keyed levels: the last row per
    key kept), with the declared ``indexes`` it can hold built beside its
    zone maps. The render of every seal and of every bulk load."""
    spec = plan.levels
    if spec is not None and spec.key is not None:
        batch = _LevelResolver(spec.key, batch.fields, []).resolve_pending(batch)
    layout = store._render_region(plan, region.plan, batch)
    return Run(
        region.plan, layout,
        indexes=build_indexes(store.renderer, layout, indexes),
    )


def seal(table: Table, region: Region, m: _Mutation) -> Run | None:
    """Seal ``region``'s pending rows into one new run (:func:`sealed_run`)
    swapped in as a step of ``m``: recovery sees the rows either pending or
    sealed, never both and never neither. ``None`` when nothing was
    pending. The buffer's columns render as they are."""
    if not region.pending:
        return None
    db, entry = table._db, table._entry
    batch = ColumnBatch.from_columns(
        tuple(table.scan_schema().names()), region.pending.columns()
    )
    run = sealed_run(db, entry.plan, region, batch, entry.indexes)
    replace_runs(db, entry, region, [], [run], m, ingest=True)
    return run


def merge(
    table: Table,
    region: Region,
    sources: "list[Run]",
    m: _Mutation,
    *,
    pending: bool = False,
    level: int | None = None,
) -> Run | None:
    """Merge ``sources`` — runs of ``region`` — and, with ``pending``, its
    pending rows into one run, swapped in for them as a step of ``m``.

    Sources are read newest first through the scan's own region path under
    one resolver, so a merge drops exactly what a scan suppresses. The
    survivors join oldest first, pending rows last (pages stay
    byte-identical), in one :func:`merge_batches`. The run renders under
    the region's design at ``level`` (default: its size class), with the
    table's declared indexes; a levelled merge that resolves to nothing
    renders none.
    """
    db, entry = table._db, table._entry
    spec = entry.plan.levels
    fields = tuple(table.scan_schema().names())
    resolver = table._resolver(region, fields)
    held: list[ColumnBatch] = []
    if pending and region.pending:
        newest = ColumnBatch.from_columns(fields, region.pending.columns())
        if resolver is not None:
            newest = resolver.resolve_pending(newest)
        held.append(newest)
    for run in reversed(sorted(sources, key=lambda run: run.max_seq)):
        batches = table._region_batches(
            Region(runs=[run]), None, None, fields, resolver=resolver
        )
        held[:0] = batches  # oldest source first, pending rows last
    merged = merge_batches(fields, held)
    new: list[Run] = []
    if spec is None or merged.n_rows:
        if spec is not None and level is None:
            # A full merge: one resulting run cannot interleave any other
            # run's range, so its size class is safe to use.
            level = max(
                [spec.level_of(merged.n_rows, db.level_seal_rows)]
                + [run.level for run in sources]
            )
        layout = db._render_region(entry.plan, region.plan, merged)
        new.append(Run(
            region.plan, layout, level=level or 0,
            indexes=build_indexes(db.renderer, layout, entry.indexes),
        ))
    replace_runs(db, entry, region, sources, new, m, keep_pending=not pending)
    return new[0] if new else None


def replace_runs(
    store: RodentStore,
    entry: CatalogEntry,
    region: Region,
    old: "list[Run]",
    new: "list[Run]",
    m: _Mutation,
    *,
    plan: PhysicalPlan | None = None,
    table_plan: PhysicalPlan | None = None,
    ingest: bool = False,
    keep_pending: bool = False,
) -> None:
    """THE run swap: ``old`` runs of ``region`` out (none for a seal),
    ``new`` runs in — rendered from them plus, unless ``keep_pending``, the
    pending rows, which clear — with the region's design (``plan``) and a
    levelled re-layout's table design (``table_plan``).

    Each new run takes the next run id and a fresh sequence number; a
    partial merge inherits its sources' newest, so other runs keep their
    place in time. A pinned scan sees either side of the swap (MVCC lock);
    superseded runs are retired, their indexes with them, waiting for the
    durable commit and the last draining reader; renders are charged to the
    write-amplification ledger (a seal's as ingest, a merge's as
    compaction); the rows it drops leave the region's ``hidden`` count. An
    abort of ``m`` puts back what the swap replaced (the table's snapshot,
    taken when ``m`` locked it).
    """
    dropped = sum(r.row_count for r in old) - sum(r.row_count for r in new)
    with entry.mvcc.lock:
        for run in new:
            if old and keep_pending:
                run.max_seq = max(r.max_seq for r in old)
            else:
                # Folded-in pending rows are newer than every tombstone (an
                # inherited seq would let a surviving tombstone suppress
                # them at scan), and a full merge applied every tombstone
                # to every source: a fresh sequence lets the GC below drop
                # them all.
                run.max_seq = entry.next_run_seq
                entry.next_run_seq += 1
            run.min_seq = min((r.min_seq for r in old), default=run.max_seq)
            run.rid = entry.next_run_id
            entry.next_run_id += 1
        gone = set(map(id, old))
        runs = [run for run in region.runs if id(run) not in gone] + new
        region.runs = sorted(runs, key=lambda run: run.max_seq)
        if plan is not None:
            region.plan = plan
        if table_plan is not None:
            entry.plan = table_plan
        if not keep_pending:
            dropped += len(region.pending)
            region.clear_pending()
        # (Keyed, it may drop shadowed versions never counted as hidden.)
        region.hidden = max(0, region.hidden - dropped)
        if old:
            store._retire_runs(entry, old)
            # A tombstone applies only to the region's runs older than its
            # seq; with none left it is garbage (a full merge drops them).
            region.level_tombstones = [
                t for t in region.level_tombstones
                if any(run.max_seq < t[0] for run in region.runs)
            ]
        for run in new:
            store._wa_note(entry, run.layout, ingest)
    m.touch(entry.name)


def redesign(
    table: Table, layout: str | ast.Node, regions: Sequence[Region]
) -> None:
    """Make ``layout`` — one layout of the stored fields, as
    :meth:`RodentStore.region_plan` checks — the design of ``regions`` of
    ``table``, and the table's when every region takes it (under the
    table's router and level policy, if any), by one :func:`replace_runs`
    per region that swaps no run: later seals and merges render under it,
    old runs keep theirs until a merge reaches them. Pending rows and
    row-valued tombstones follow a new stored field order."""
    db, entry = table._db, table._entry
    plan = db.region_plan(table.name, layout)
    keyed = entry.plan.levels is not None and entry.plan.levels.key is not None
    table_plan = None
    if set(map(id, entry.regions)) <= set(map(id, regions)):
        table_plan = db._compile(table.name, _around(entry.plan.expr, plan.expr))
        plan = table_plan.region_template
    old = table.scan_schema().names()
    new = old if table_plan is None else _scan_schema(table_plan).names()
    idx = [old.index(f) for f in new]

    def reorder(row) -> tuple:
        return tuple(row[i] for i in idx)

    with db.mutate(table.name) as m, entry.mvcc.lock:
        # (A table with no partition yet swaps through a detached region.)
        for region in list(regions) or [Region()]:
            replace_runs(
                db, entry, region, [], [], m,
                plan=plan, table_plan=table_plan, keep_pending=True,
            )
            if old != new and region.pending:
                rows = list(map(reorder, region.pending.rows()))
                region.clear_pending()
                region.add_pending(new, rows)
            if old != new and region.level_tombstones and not keyed:
                region.level_tombstones = [
                    (seq, reorder(row))
                    for seq, row in region.level_tombstones
                ]


def _around(table_expr: ast.Node, design: ast.Node) -> ast.Node:
    """``design`` under the router and level policy of ``table_expr``."""
    if isinstance(table_expr, (ast.Partition, ast.Levels)):
        return table_expr.with_children([_around(table_expr.child, design)])
    return design


def merge_regions(
    table: Table,
    regions: Sequence[Region],
    layout: str | ast.Node | None = None,
) -> None:
    """The one full merge, and the one region re-layout, of every table
    shape (``Table.compact``, ``relayout_partition``, reorganizations): a
    :func:`merge` of each region, after a :func:`redesign` to ``layout``
    when given, one region per transaction — the whole table's redesign
    rides in the first. Each step frees the pages it superseded before the
    next renders, and checks its region again under its own lock (gone, or
    with no ``layout`` already :meth:`Region.merged`: skipped). A failed
    step leaves its region, and every later one, as it was."""
    db, entry = table._db, table._entry
    regions = list(regions)
    whole = layout is not None and (
        set(map(id, entry.regions)) <= set(map(id, regions))
    )
    if whole and not regions:
        redesign(table, layout, [])  # a table with no region yet
    for step, region in enumerate(regions):
        with db.mutate(table.name) as m:
            if not any(r is region for r in entry.regions):
                continue
            if layout is not None and (step == 0 or not whole):
                redesign(table, layout, regions if whole else [region])
            elif region.merged():
                continue
            merge(table, region, list(region.runs), m, pending=True)


# -- updates and deletes ---------------------------------------------------


#: A region whose tombstones hide this fraction of its runs' rows (its
#: ``hidden`` count: a row-valued tombstone hides every equal row), or
#: number that many (a keyed tombstone may hide no run row, yet every scan
#: resolves it), merges at once: its dead rows cannot pile up unmerged. It
#: trades merge writes for resolution work on reads. 4 000 single-row
#: deletes from a 20 000-row flat table (4 KiB pages, Xeon, one core) wrote
#: 0.40 / 0.14 / 0.07 / 0 pages per delete at 0.02 / 0.05 / 0.1 / 0.25, and
#: a selective scan then took 2.7 / 2.8 / 3.0 / 9.0 ms: 0.1 is the most
#: that keeps reads cheap.
RECLAIM_FRACTION = 0.1


def rewrite(
    table: Table,
    predicate: Predicate | None,
    updated: Callable[[tuple], tuple] | None,
    names: list[str],
) -> int:
    """Delete (``updated`` is ``None``) or update, in every region the
    predicate can reach, in one transaction that renders no page unless a
    region's tombstones (:func:`_tombstone`) are due a merge
    (:func:`_reclaim`). Returns the number of rows changed."""
    total = 0
    with table._db.mutate(table.name) as m:
        for region in table.partition_survivors(predicate):
            total += _tombstone(table, region, predicate, updated, names, m)
            _reclaim(table, region, m)
    return total


def _reclaim(table: Table, region: Region, m: _Mutation) -> None:
    """Merge ``region`` as a step of ``m`` when the rows its tombstones
    hide, or the tombstones themselves, reach :data:`RECLAIM_FRACTION` of
    its runs' rows."""
    stored = sum(run.row_count for run in region.runs)
    dead = max(region.hidden, len(region.level_tombstones))
    if dead >= RECLAIM_FRACTION * stored > 0:
        merge(table, region, list(region.runs), m, pending=True)


def _tombstone(
    table: Table,
    region: Region,
    predicate: Predicate | None,
    updated: Callable[[tuple], tuple] | None,
    names: list[str],
    m: _Mutation,
) -> int:
    """:func:`rewrite` of one region: the *visible* rows ``predicate``
    matches (all for ``None``) are resolved once, from the pages it may
    match; pending rows are filtered in place, updated rows appended, and
    one tombstone per distinct victim in a run — the merge key under a
    keyed level policy, the row otherwise — suppresses it until a merge
    drops them. Returns the number of rows matched."""
    db, entry = table._db, table._entry
    spec = table.plan.levels
    key_expr = None if spec is None else spec.key
    positions = {n: i for i, n in enumerate(names)}

    def victim_of(row: tuple):
        if key_expr is None:
            return _identity(tuple(row))
        return _one_nan(eval_scalar(key_expr, row, positions))

    _, pruning = table._run_scan_args([region], None, predicate)
    with db.adaptivity.pause():
        batches = table._region_batches(
            region, None, pruning, names, table._resolver(region, names),
            select=predicate,
        )
        matched = _batch_rows(batches)
    if not matched:
        return 0
    if predicate is None and updated is None:
        # Delete-all: drop every run outright (and with them every
        # tombstone), no new ones.
        replace_runs(db, entry, region, list(region.runs), [], m)
        return len(matched)
    new_rows = [updated(r) for r in matched] if updated else []
    # The merge key kills every older version of that key; a row value
    # kills every equal copy, NaN equal to NaN (predicates are
    # value-deterministic, so equal copies always match together).
    victim_set = set(map(victim_of, matched))
    with entry.mvcc.lock:
        pending = region.pending.rows()
        survivors = [r for r in pending if victim_of(r) not in victim_set]
        # Distinct victims in first-match order. A multiset walk read the
        # pending rows last: only the rows matched before, in runs, need one.
        in_runs = len(matched) - len(pending) + len(survivors)
        victims = list(dict.fromkeys(
            map(victim_of, matched[:in_runs] if key_expr is None else matched)
        ))
        key = None if spec is None else spec.key_field
        if key is not None:
            # A key no run's zones can hold had only pending versions,
            # which the filter above dropped: its tombstone would hide no
            # row, yet count towards a merge.
            victims = [
                v for v in victims
                if any(may_hold(run.layout, key, v) for run in region.runs)
            ]
        # The zone already covers every survivor: only the updated rows
        # fold in — O(changes), not O(pending) — and the bounds stay a
        # sound over-approximation until the next seal.
        if region.pending_zone is None or not (survivors or new_rows):
            region.clear_pending()
            new_rows = survivors + new_rows
        else:
            region.pending = PendingBuffer()
            region.pending.append(list(zip(*survivors)))
        if new_rows:
            region.add_pending(names, new_rows)
        if region.runs and victims:
            seq = entry.next_run_seq
            entry.next_run_seq += 1
            region.level_tombstones = region.level_tombstones + [
                (seq, v) for v in victims
            ]
            # (Keyed, one match may stand for several pending versions.)
            region.hidden += max(0, in_runs)
    m.touch(table.name)
    return len(matched)


# -- the level cascade ------------------------------------------------------


def maintain_levels(table: Table, rows_written: int) -> None:
    """:meth:`RodentStore.maintain_levels`."""
    db, name, plan = table._db, table.name, table._entry.plan
    if plan is None or plan.levels is None:
        return
    if rows_written:
        db.adaptivity.note_write(name, rows_written)
    if db._closed:
        return
    regions = table._entry.regions
    while any(len(r.pending) >= db.level_seal_rows for r in regions):
        db.seal_level_run(name)  # the fullest region's
    if not any(_levels_over_fanout(r, plan.levels.k) for r in regions):
        return
    if db.scan_workers <= 1:
        db.compact_levels(name)
        return
    with db._level_lock:
        if name in db._compacting:
            return  # one in-flight merge per table
        db._compacting.add(name)

    def job() -> None:
        try:
            db.compact_levels(name)
        except RodentStoreError:
            # Lost a race (drop/close/fault); the next insert's
            # maintain_levels retries if the fan-out still holds.
            pass
        finally:
            with db._level_lock:
                db._compacting.discard(name)

    db.scan_executor().submit(job)


def compact_levels(table: Table) -> dict:
    """:meth:`RodentStore.compact_levels`: in every region, one
    :func:`merge` per level over fan-out, shallowest first, until none
    is."""
    db, entry = table._db, table._entry
    report = {"merges": 0, "runs_merged": 0}
    with db.mutate(table.name) as m:
        for region in entry.regions:
            while True:
                over = _levels_over_fanout(region, entry.plan.levels.k)
                if not over:
                    break
                sources = [run for run in region.runs if run.level == over[0]]
                # Merges target exactly level+1: size-based promotion could
                # interleave another level's sequence range inside the
                # merged run's, breaking newest-first resolution.
                merge(table, region, sources, m, level=over[0] + 1)
                report["merges"] += 1
                report["runs_merged"] += len(sources)
    return report


def _levels_over_fanout(region: Region, k: int) -> list[int]:
    """Levels of a levelled region holding at least ``k`` runs, shallowest
    first."""
    counts = Counter(run.level for run in region.runs)
    return sorted(level for level, c in counts.items() if c >= k)


class _LevelResolver:
    """Resolution state of one scan or merge of a region that has a merge
    key (a keyed level policy) or tombstones.

    Keyed (last-writer-wins) regions are fed newest-first: the pending
    buffer, then runs by descending ``max_seq``; a row is suppressed when a
    newer segment emitted its merge key, or a tombstone newer than its run
    names it. Multiset regions suppress, in each run, rows equal to a
    tombstone newer than the run, in any walk order. No tombstone applies
    to the pending buffer, whose rows postdate every tombstone (a delete
    filters pending rows itself). A merge drives the same object, so it
    drops exactly what a scan suppresses.
    """

    __slots__ = ("keyed", "key_of", "seen", "dead", "nan", "_tombstones")

    def __init__(self, key_expr, names: Sequence[str], tombstones):
        self.keyed = key_expr is not None
        if self.keyed:
            positions = {n: i for i, n in enumerate(names)}
            self.key_of = lambda row: _one_nan(
                eval_scalar(key_expr, row, positions)
            )
        else:
            self.key_of = None
        self.seen: set = set()  # merge keys emitted or tombstoned (keyed)
        self.dead: set = set()  # tombstone row values of this run (multiset)
        self.nan = False  # does one hold a NaN? (rows then need _identity())
        self._tombstones = tombstones

    def resolve_pending(self, batch: ColumnBatch) -> ColumnBatch:
        """The pending buffer's rows, resolved before any run (no
        tombstone applies). Keyed: last write wins, keeping each key's
        final occurrence in its insertion slot order (through the rows
        view)."""
        if not self.keyed:
            return batch
        rows = batch.rows()
        kept = self._newest(rows, range(len(rows) - 1, -1, -1))[::-1]
        return batch if len(kept) == len(rows) else batch.take(kept)

    def enter_run(self, run) -> bool:
        """Apply the tombstones newer than ``run``; True when its rows
        must pass through :meth:`survivors` (keyed runs always do — the
        seen-set must grow even when nothing is suppressed yet)."""
        newer = {value for seq, value in self._tombstones if seq > run.max_seq}
        if self.keyed:
            self.seen |= newer
            return True
        self.dead = set(map(_identity, newer))
        self.nan = any(math.nan in row for row in self.dead)
        return bool(newer)

    def survivors(self, batch: ColumnBatch) -> ColumnBatch:
        """The rows of ``batch``, one segment of the entered run in stored
        order, that no newer key or tombstone suppresses."""
        rows = batch.rows()
        if self.keyed:
            kept = list(map(rows.__getitem__, self._newest(rows, range(len(rows)))))
        else:
            dead = self.dead
            if self.nan:
                kept = [row for row in rows if _identity(row) not in dead]
            else:
                kept = [row for row in rows if row not in dead]
        if len(kept) == len(rows):
            return batch
        return ColumnBatch.from_rows(batch.fields, kept)

    def _newest(self, rows: Sequence[tuple], walk: Iterable[int]) -> list[int]:
        """Keyed: the positions, in ``walk`` order, of the rows of one
        segment whose key no newer segment (or earlier position of
        ``walk``) emitted or tombstoned."""
        seen = self.seen
        key_of = self.key_of
        out: list[int] = []
        for i in walk:
            key = key_of(rows[i])
            if key in seen:
                continue
            seen.add(key)
            out.append(i)
        return out


def _one_nan(key):
    """A merge key as the seen-set and tombstones hold it: a NaN made the
    one ``math.nan`` object, so a NaN key is one key, as a NaN row value
    is one value (:func:`_identity`)."""
    return math.nan if key != key else key


def _identity(row: tuple) -> tuple:
    """``row`` as a row-valued tombstone names it: every NaN made the one
    ``math.nan`` object, which tuples compare and hash by identity. (A NaN
    equals nothing, itself included, yet a delete must find its row.)"""
    if all(v == v for v in row):
        return row
    return tuple(math.nan if v != v else v for v in row)
