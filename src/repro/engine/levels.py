"""Seal and merge: the only two ways a region's runs change.

A table is a list of regions, each a list of immutable runs plus a pending
insert buffer (:mod:`repro.engine.catalog`). As in CobbleDB, a flush and a
compaction are compositions of one seal and one merge, for every shape: a
flat table is a level with unbounded fan-in.

* :func:`seal` renders a region's pending rows into one new run under the
  region's design — ``Table.flush_inserts``, the levelled auto-seal and
  (:func:`sealed_run`) every region of a bulk load;
* :func:`merge` reads chosen runs, and the pending rows when asked, under
  one resolver, may apply a batch edit, and renders one run under the
  region's design — levelled merges, copy-on-write ``update``/``delete``
  of a region with unbounded fan-in and (:func:`merge_regions`)
  ``compact()`` and every region re-layout.

Both swap through :func:`replace_runs`, which an abort undoes, and so does
:func:`redesign`, which only changes the design later seals and merges
render under: a re-layout of any table shape is a redesign plus a merge.
Tombstone deletes and the level cascade live here too; ``RodentStore`` and
``Table`` keep the public entry points.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.physical import PhysicalPlan
from repro.algebra.transforms import eval_scalar
from repro.engine.catalog import CatalogEntry, Region, Run
from repro.engine.table import Table, _batch_rows, _scan_schema
from repro.errors import RodentStoreError
from repro.layout.renderer import ColumnBatch, merge_batches
from repro.query.expressions import Predicate, selector

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import RodentStore, _Mutation


def sealed_run(
    store: RodentStore,
    plan: PhysicalPlan,
    region: Region,
    names: Sequence[str],
    rows: list[tuple],
) -> Run:
    """Stored-shape ``rows`` (fields ``names``) rendered as one run, not
    yet swapped in, under ``region``'s design (keyed levels: the last row
    per key kept). The render of every seal and of every bulk load."""
    names = tuple(names)
    spec = plan.levels
    if spec is not None and spec.key is not None:
        rows = _LevelResolver(spec, names, []).resolve_pending(rows)
    batch = ColumnBatch.from_rows(names, rows)
    return Run(region.plan, store._render_region(plan, region.plan, batch))


def seal(table: Table, region: Region, m: _Mutation) -> Run | None:
    """Seal ``region``'s pending rows into one new run (:func:`sealed_run`)
    swapped in as a step of ``m``: recovery sees the rows either pending or
    sealed, never both and never neither. ``None`` when nothing was
    pending."""
    if not region.pending:
        return None
    db, entry = table._db, table._entry
    rows = [tuple(r) for r in region.pending]
    run = sealed_run(
        db, entry.plan, region, table.scan_schema().names(), rows
    )
    replace_runs(db, entry, region, [], [run], m, ingest=True)
    return run


def merge(
    table: Table,
    region: Region,
    sources: "list[Run]",
    m: _Mutation,
    *,
    pending: bool = False,
    edit: Callable[[list[ColumnBatch]], ColumnBatch | None] | None = None,
    level: int | None = None,
    compaction: bool = True,
) -> Run | None:
    """Merge ``sources`` — runs of ``region`` — and, with ``pending``, its
    pending rows into one run, swapped in for them as a step of ``m``.

    Sources are read newest first through the scan's own region path under
    one resolver, so a levelled merge drops exactly what a scan suppresses.
    The survivors join oldest first, pending rows last (pages stay
    byte-identical), in one :func:`merge_batches` or through ``edit``, which
    maps them to the region's new batch (``None``: nothing changes). The run
    renders under the region's design at ``level`` (default: its size
    class); a levelled merge that resolves to nothing renders none.
    """
    db, entry = table._db, table._entry
    spec = entry.plan.levels
    fields = tuple(table.scan_schema().names())
    resolver = table._resolver(region, fields)
    rows = [tuple(r) for r in region.pending] if pending else []
    if resolver is not None:
        rows = resolver.resolve_pending(rows)
    held: list[ColumnBatch] = []
    for run in reversed(sorted(sources, key=lambda run: run.max_seq)):
        batches, _ = table._region_batches(
            Region(runs=[run]), None, None, fields, resolver=resolver
        )
        held[:0] = batches  # oldest source first
    if rows:
        held.append(ColumnBatch.from_rows(fields, rows))
    if edit is None:
        merged = merge_batches(fields, held)
    else:
        merged = edit(held)
        if merged is None:
            return None
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
        new.append(Run(region.plan, layout, level=level or 0))
    replace_runs(
        db, entry, region, sources, new, m,
        compaction=compaction, keep_pending=not pending,
    )
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
    compaction: bool = False,
    keep_pending: bool = False,
) -> None:
    """THE run swap: ``old`` runs of ``region`` out (none for a seal),
    ``new`` runs in — rendered from them plus, unless ``keep_pending``, the
    pending rows, which clear — with the region's design (``plan``) and a
    levelled re-layout's table design (``table_plan``).

    Each new run takes the next run id and a fresh sequence number; a
    partial merge inherits its sources' newest, so other runs keep their
    place in time. A pinned scan sees either side of the swap (MVCC lock);
    superseded pages are retired, waiting for the durable commit and the
    last draining reader; indexes are dropped; renders are charged to the
    write-amplification ledger. An abort of ``m`` puts back what the swap
    replaced (the table's snapshot, taken when ``m`` locked it).
    """
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
            region.clear_pending()
        if old:
            store._drop_indexes(entry)
            store._retire_runs(entry, old)
            # A tombstone applies only to the region's runs older than its
            # seq; with none left it is garbage (a full merge drops them).
            region.level_tombstones = [
                t for t in region.level_tombstones
                if any(run.max_seq < t[0] for run in region.runs)
            ]
        for run in new:
            store._wa_note(entry, run.layout, ingest, compaction)
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
    table_plan = None
    if set(map(id, entry.regions)) <= set(map(id, regions)):
        table_plan = db._interpreter().compile(
            _around(entry.plan.expr, plan.expr)
        )
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
                rows = list(map(reorder, region.pending))
                region.clear_pending()
                region.add_pending(new, rows)
            if (
                old != new and region.level_tombstones
                and entry.plan.levels.key is None
            ):
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
    shape: :func:`redesign` ``regions`` to ``layout`` when given, then
    :func:`merge` each one's runs and pending rows into one run under its
    design, all in one transaction — ``Table.compact``,
    ``relayout_partition`` and every reorganization that rewrites old
    runs."""
    with table._db.mutate(table.name) as m:
        if layout is not None:
            redesign(table, layout, regions)
        for region in regions:
            merge(table, region, list(region.runs), m, pending=True)


# -- updates and deletes ---------------------------------------------------


def rewrite(
    table: Table,
    predicate: Predicate | None,
    updated: Callable[[tuple], tuple] | None,
    names: list[str],
) -> int:
    """Delete (``updated`` is ``None``) or update, in every region the
    predicate can reach, in one transaction. Under a level policy no run
    is rewritten (:func:`_tombstone`); otherwise one :func:`merge` per
    region whose ``edit`` applies the rewrite — nothing is rendered for a
    region without a victim. Returns the number of rows changed."""
    positions = {n: i for i, n in enumerate(names)}
    keep = None if predicate is None else selector(predicate, positions)
    levelled = table.plan.levels is not None
    total = 0

    def victims(batch: ColumnBatch) -> list | None:
        """Per-row verdicts of ``predicate`` on one batch (``None`` =
        nothing matches), from the scan's own selection step."""
        if keep is None:
            return [True] * batch.n_rows
        mask = keep(batch)
        return vector.to_list(mask) if vector.mask_count(mask) else None

    def edit(batches: list[ColumnBatch]) -> ColumnBatch | None:
        nonlocal total
        masks = [victims(batch) for batch in batches]
        if not any(masks):
            return None  # no row materialized
        out: list[tuple] = []
        for batch, mask in zip(batches, masks):
            rows = batch.rows()
            if mask is None:
                out.extend(rows)
                continue
            total += sum(mask)
            if updated is None:  # a delete drops the row
                out.extend(row for row, hit in zip(rows, mask) if not hit)
            else:
                out.extend(
                    updated(row) if hit else row
                    for row, hit in zip(rows, mask)
                )
        return ColumnBatch.from_rows(tuple(names), out)

    with table._db.mutate(table.name) as m:
        for region in table.partition_survivors(predicate):
            if levelled:
                total += _tombstone(table, region, keep, updated, names, m)
            else:
                merge(
                    table, region, list(region.runs), m,
                    pending=True, edit=edit, compaction=False,
                )
    return total


def _tombstone(
    table: Table,
    region: Region,
    keep,
    updated: Callable[[tuple], tuple] | None,
    names: list[str],
    m: _Mutation,
) -> int:
    """:func:`rewrite` of one levelled region: matching *visible* rows
    (``keep``, ``None`` for all) are resolved once; pending rows are
    filtered (and updates re-appended) in place, and one tombstone per
    distinct victim — merge key when keyed, the row otherwise — suppresses
    matches in the region's runs until a merge drops them. Returns the
    number of rows matched."""
    db, entry = table._db, table._entry
    key_expr = table.plan.levels.key
    positions = {n: i for i, n in enumerate(names)}

    def victim_of(row: tuple):
        if key_expr is None:
            return tuple(row)
        return eval_scalar(key_expr, row, positions)

    with db.adaptivity.pause():
        batches, _ = table._region_batches(
            region, None, None, names, table._resolver(region, names)
        )
        if keep is not None:
            batches = (batch.select(keep(batch)) for batch in batches)
        matched = _batch_rows(batches)
    if not matched:
        return 0
    if keep is None and updated is None:
        # Delete-all: drop every run outright (and with them every
        # tombstone), no new ones.
        replace_runs(db, entry, region, list(region.runs), [], m)
        return len(matched)
    new_rows = [updated(r) for r in matched] if updated else []
    # Distinct victims in first-match order: the merge key kills every
    # older version of that key; a row value kills every equal copy
    # (predicates are value-deterministic, so equal copies always match
    # together).
    victims = list(dict.fromkeys(map(victim_of, matched)))
    victim_set = set(victims)
    with entry.mvcc.lock:
        survivors = [
            tuple(r) for r in region.pending if victim_of(r) not in victim_set
        ]
        # The zone already covers every survivor: only the updated rows
        # fold in — O(changes), not O(pending) — and the bounds stay a
        # sound over-approximation until the next seal.
        if region.pending_zone is None or not (survivors or new_rows):
            region.clear_pending()
            new_rows = survivors + new_rows
        else:
            region.pending = survivors
        if new_rows:
            region.add_pending(names, new_rows)
        if region.runs:
            seq = entry.next_run_seq
            entry.next_run_seq += 1
            region.level_tombstones = region.level_tombstones + [
                (seq, v) for v in victims
            ]
        table._mark_indexes_stale()
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
    """Newest-first resolution state of one levelled scan or merge.

    Segments are fed newest-first: the pending buffer, then runs by
    descending ``max_seq``. Keyed (last-writer-wins) tables suppress a row
    whose merge key a newer segment emitted; multiset tables suppress rows
    equal to an active tombstone value. A tombstone with sequence ``s``
    activates as the walk reaches a run with ``max_seq < s``, never for the
    pending buffer, whose rows postdate every tombstone (a levelled delete
    filters pending rows itself). A merge drives the same object, so it
    drops exactly what a scan would suppress.
    """

    __slots__ = ("keyed", "key_of", "seen", "dead", "_inactive")

    def __init__(self, spec, names: Sequence[str], tombstones):
        self.keyed = spec.key is not None
        if self.keyed:
            positions = {n: i for i, n in enumerate(names)}
            key_expr = spec.key
            self.key_of = lambda row: eval_scalar(key_expr, row, positions)
        else:
            self.key_of = None
        self.seen: set = set()  # merge keys emitted or tombstoned (keyed)
        self.dead: set = set()  # active tombstone row values (multiset)
        # Ascending by seq; popped from the tail as the walk gets older.
        self._inactive = sorted(tombstones, key=lambda t: t[0])

    def resolve_pending(self, rows: Sequence[tuple]) -> list[tuple]:
        """Pending-buffer rows, resolved before any run (no tombstone is
        active yet). Keyed: last write wins, keeping each key's final
        occurrence in its insertion slot order."""
        return self.resolve(map(tuple, reversed(rows)))[::-1]

    def enter_run(self, run) -> bool:
        """Activate tombstones newer than ``run``; True when its rows must
        pass through :meth:`resolve` (keyed runs always do — the seen-set
        must grow even when nothing is suppressed yet)."""
        inactive = self._inactive
        while inactive and inactive[-1][0] > run.max_seq:
            _, value = inactive.pop()
            if self.keyed:
                self.seen.add(value)
            else:
                self.dead.add(value)
        return self.keyed or bool(self.dead)

    def resolve(self, rows: Iterable[tuple]) -> list[tuple]:
        """Surviving rows of one run segment, in stored order."""
        if self.keyed:
            seen = self.seen
            key_of = self.key_of
            out: list[tuple] = []
            for row in rows:
                key = key_of(row)
                if key in seen:
                    continue
                seen.add(key)
                out.append(row)
            return out
        dead = self.dead
        if not dead:
            return list(rows)
        return [row for row in rows if tuple(row) not in dead]
