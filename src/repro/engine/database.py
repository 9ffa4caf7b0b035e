"""The RodentStore engine: wiring of Figure 1.

``RodentStore`` owns the storage stack (disk manager, buffer pool, WAL,
transactions), the catalog, the algebra interpreter, and the layout renderer.
A front end (SQL engine, array system, ORM, or — here — the mini relational
API in :mod:`repro.query.frontend`) creates tables, declares their physical
design with a storage-algebra expression, loads data, and queries through the
:class:`repro.engine.table.Table` access methods.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro import vector
from repro.algebra import ast
from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.parser import parse
from repro.algebra.physical import PhysicalPlan
from repro.engine import levels
from repro.engine.catalog import Catalog, CatalogEntry, Region, Run
from repro.engine.cost import CostModel
from repro.engine.mvcc import TableSnapshot
from repro.engine.stats import TableStats
from repro.engine.table import (
    Table,
    _scan_schema,
    stored_split,
)
from repro.errors import (
    CatalogError,
    CorruptPageError,
    CrashError,
    RodentStoreError,
    StorageError,
    WALError,
)
from repro.layout.partitioning import Locator, PartitionRouter
from repro.layout.renderer import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    LayoutRenderer,
    StoredLayout,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DEFAULT_PAGE_SIZE, DiskManager, IOStats
from repro.storage.locks import LockManager
from repro.storage.transactions import TransactionManager
from repro.storage.wal import (
    KIND_CATALOG,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_FRESH_PAGE,
    KIND_ROWS,
    WriteAheadLog,
)
from repro.types.schema import Schema


class _Mutation:
    """One transaction's accumulated logical effects.

    Engine mutations run inside ``store.mutate(name)``; while the body
    executes, the effects (rendered pages, inserted rows, catalog images)
    are only *recorded* here. They are appended to the WAL in one shot at
    commit, under the store's commit lock — so a concurrent checkpoint can
    never truncate half of a transaction's effect records, and recovery
    sees a transaction's effects all-or-nothing.

    The pages the transaction supersedes wait here too (:meth:`retire`):
    until its COMMIT record is durable the recoverable catalog still names
    them, so nothing — not a later step of the same transaction either —
    may be handed them to overwrite. An abort frees only those the tables
    it puts back no longer name (:meth:`undo`); after a crash they come
    back when the store next derives its free map.

    And the state it may replace: the first time it locks a table
    (:meth:`lock`) it takes the table's snapshot — the one a pinned scan
    reads, :class:`~repro.engine.mvcc.TableSnapshot` — and whether the
    catalog holds it. An abort puts each locked table back as that
    snapshot found it and frees the runs rendered since (:meth:`undo`):
    the catalog is again the one the log last committed, whatever the
    body changed.
    """

    def __init__(self, store: "RodentStore", txn):
        self.store = store
        self.txn = txn
        self._touched: list[str] = []
        self._dropped: list[str] = []
        self._rows: list[tuple[str, list[list]]] = []
        self._fresh: list[tuple[int, bytes | bytearray]] = []
        self._retired: list[tuple[CatalogEntry, list[int]]] = []
        #: Per locked table: its entry (``None``: none yet) and snapshot.
        self._before: dict[
            str, tuple[CatalogEntry | None, TableSnapshot | None]
        ] = {}

    def lock(self, name: str) -> None:
        """Take the table's exclusive lock (strict 2PL; held to commit)
        and, the first time, its snapshot: what an abort puts back."""
        self.txn.lock_exclusive(f"table:{name}")
        if name not in self._before:
            entry = self.store.catalog.get(name)
            snap = None
            if entry is not None:
                with entry.mvcc.lock:
                    snap = TableSnapshot(entry)
            self._before[name] = (entry, snap)

    def touch(self, name: str) -> None:
        """Log the table's full catalog image at commit (structural txns)."""
        if name not in self._touched:
            self._touched.append(name)

    def mark_dropped(self, name: str) -> None:
        self._dropped.append(name)
        if name in self._touched:
            self._touched.remove(name)

    def log_rows(self, name: str, rows: Sequence[tuple]) -> None:
        """Log inserted rows (stored-record shape) at commit."""
        if rows:
            self._rows.append((name, [list(r) for r in rows]))

    def log_fresh_page(self, page_id: int, image: bytes | bytearray) -> None:
        """Log, at commit, the image a render just wrote to a page it
        allocated (the renderer is done with the buffer: it is kept, not
        copied)."""
        self._fresh.append((page_id, image))

    def retire(self, entry: CatalogEntry, page_ids: Sequence[int]) -> None:
        """Free ``page_ids`` of ``entry`` once this transaction's commit is
        durable (and the last scan pinned before it has drained)."""
        if page_ids:
            self._retired.append((entry, list(page_ids)))

    def undo(self) -> None:
        """Abort: put every locked table back in the catalog as
        :meth:`lock` found it, and free the pages of the runs (and their
        indexes) the transaction made since — no committed catalog names
        them."""
        store = self.store
        for name, (entry, snap) in reversed(self._before.items()):
            store.catalog.put_back(name, entry)
            if entry is None:
                continue
            made = {p for e, ids in self._retired if e is entry for p in ids}
            with entry.mvcc.lock:
                made.update(
                    p for run in entry.runs() for p in run.page_ids()
                )
                snap.restore(entry)
                made -= snap.page_ids()
            if made:
                store._release_pages(entry, sorted(made))

    def release_retired(self) -> None:
        """After the durable commit: hand the superseded pages on."""
        for entry, page_ids in self._retired:
            self.store._release_pages(entry, page_ids)

    def _append_effects(self) -> bool:
        """Append every recorded effect to the WAL (commit time); returns
        whether there was any.

        Runs under the store's commit lock. A page record is the image the
        renderer wrote — handed over as it was written, never read back —
        and nothing else: a render only fills pages it allocated, which
        nothing committed names, so a loser's pages are simply free.
        """
        if not (self._fresh or self._rows or self._touched or self._dropped):
            return False
        store = self.store
        wal = store.wal
        txn_id = self.txn.txn_id

        def compact(obj) -> bytes:  # recovery parses any JSON spacing
            return json.dumps(obj, separators=(",", ":")).encode()

        with store._commit_lock:
            for page_id, image in self._fresh:
                wal.append(
                    KIND_FRESH_PAGE, txn_id, page_id=page_id, after=image
                )
            for name, rows in self._rows:
                payload = compact({"table": name, "rows": rows})
                wal.append(KIND_ROWS, txn_id, payload=payload)
            for name in self._touched:
                if not store.catalog.has(name):
                    continue
                from repro.engine.persistence import entry_to_dict

                payload = compact(entry_to_dict(store.catalog.entry(name)))
                wal.append(KIND_CATALOG, txn_id, payload=payload)
            for name in self._dropped:
                payload = compact({"name": name, "dropped": True})
                wal.append(KIND_CATALOG, txn_id, payload=payload)
        return True


class RodentStore:
    """An adaptive, declarative storage system (single node).

    Args:
        path: database file path, or ``None`` for an in-memory store.
        page_size: disk page size in bytes (the paper's case study uses
            1000 KB pages; benchmarks here default to smaller pages at
            smaller data scale).
        pool_capacity: buffer pool frames.
        eviction: buffer pool policy (``"lru"`` or ``"clock"``).

    Example::

        store = RodentStore(page_size=8192)
        store.create_table(
            "Traces",
            Schema.of("t:int", "lat:int", "lon:int", "id:int"),
            layout="zorder(grid[lat, lon],[1000, 1000](Traces))",
        )
        store.load("Traces", records)
        for r in store.table("Traces").scan(predicate=Rect(...)):
            ...
    """

    def __init__(
        self,
        path: str | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_capacity: int = 256,
        eviction: str = "lru",
        wal_path: str | None = None,
        cost_model: CostModel | None = None,
        adaptive: bool = False,
        adapt_interval: int = 64,
        scan_workers: int = 0,
        durable: bool = False,
        catalog_path: str | None = None,
        group_commit_window: float = 0.0,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        checksums: bool = True,
        degraded_reads: bool = False,
        level_seal_rows: int = 2048,
    ):
        from repro.engine.adaptive import AdaptiveController

        self.durable = bool(durable)
        if self.durable:
            if path is None:
                raise StorageError(
                    "durable=True needs a file-backed store (path=...)"
                )
            if wal_path is None:
                wal_path = path + ".wal"
            if catalog_path is None:
                catalog_path = path + ".catalog.json"
        self.catalog_path = catalog_path
        self.disk = DiskManager(
            path, page_size=page_size, verify_checksums=checksums
        )
        #: Shared corruption ledger (verifications, failures, repairs,
        #: quarantined pages) — surfaced via storage_stats()["integrity"].
        self.integrity = self.disk.integrity
        from repro.engine.recovery import check_format, recover_store

        try:
            catalog = check_format(self, wal_path) if self.durable else None
            self.wal = WriteAheadLog(wal_path)
        except BaseException:
            self.disk.close()  # a store refused at open keeps no file open
            raise
        self.pool = BufferPool(self.disk, capacity=pool_capacity, policy=eviction)
        self.wal.integrity = self.integrity
        #: A checksum mismatch on a pool miss tries the WAL repair ladder
        #: before surfacing as CorruptPageError.
        self.pool.repair_handler = self._repair_page
        #: Degraded reads: scans skip corrupt, unrepairable units and
        #: report them (per-scan ``corruption_skipped`` in explain() and
        #: the integrity registry) instead of failing the query. Off by
        #: default — corruption fails loudly.
        self.degraded_reads = bool(degraded_reads)
        self._io_faults = None
        self.locks = LockManager()
        # Non-durable stores run in locking-only mode (log=False): an
        # in-memory WAL would grow without bound under a write workload.
        self.transactions = TransactionManager(
            self.wal,
            self.locks,
            log=self.durable,
            group_window_s=group_commit_window,
        )
        #: Serializes commit-time WAL effect appends against checkpoints,
        #: so a checkpoint never truncates half of a transaction's records.
        self._commit_lock = threading.Lock()
        # Re-entrancy guard: a maintenance op nested inside another (e.g.
        # a relayout's bulk load) joins the outer transaction instead of
        # deadlocking on its own table lock.
        self._mutation_local = threading.local()
        self.recoveries_run = 0
        self.checkpoints = 0
        self.recovery_summary: dict | None = None
        self.catalog = Catalog()
        self.renderer = LayoutRenderer(self.pool)
        if self.durable:
            self.renderer.page_sink = self._note_rendered_page
        self.cost_model = cost_model or CostModel(page_size=page_size)
        #: Zone-map scan pruning (per-page/chunk/cell min-max synopses).
        #: Settable at runtime; benchmarks flip it for before/after runs.
        self.zone_pruning = True
        #: Worker threads for partition-parallel scans; 0/1 = serial.
        #: Settable at runtime — the shared executor is (re)built lazily.
        self.scan_workers = scan_workers
        #: Target rows per gathered batch of a rows run (other runs have
        #: their own batch unit). Settable at runtime.
        self.batch_rows = int(batch_rows)
        if self.batch_rows < 1:
            raise StorageError("batch_rows must be >= 1")
        #: Rows a levelled table's pending buffer accumulates before it
        #: seals into an immutable level-0 run. Settable at runtime (the
        #: ingest benchmark sweeps it).
        self.level_seal_rows = int(level_seal_rows)
        if self.level_seal_rows < 1:
            raise StorageError("level_seal_rows must be >= 1")
        #: Tables with a background level-merge in flight, guarded by
        #: ``_level_lock`` — at most one merge per table is scheduled.
        self._level_lock = threading.Lock()
        self._compacting: set[str] = set()
        self._scan_executor = None
        self._closed = False
        #: Why the store stopped taking writes, ``None`` while it takes
        #: them. A commit whose fsync failed may or may not be durable:
        #: every later mutation and checkpoint is refused, reads go on, and
        #: a reopen lets recovery decide (fail-stop).
        self._stopped: str | None = None
        #: The adaptive loop (monitor → advise → reorganize). Scans are
        #: always monitored; automatic periodic reorganization only runs
        #: while :attr:`adaptive` is True (or on explicit :meth:`adapt`
        #: calls).
        self.adaptivity = AdaptiveController(
            self, enabled=adaptive, check_interval=adapt_interval
        )
        if self.durable:
            # A non-empty WAL means the last session did not close cleanly:
            # replay committed work, roll back losers, checkpoint.
            try:
                self.recovery_summary = recover_store(self, catalog)
            except BaseException:
                self.wal.close()
                self.disk.close()
                raise
            if not os.path.exists(catalog_path):
                # A new store: its catalog stamps the format from the start
                # (all a checkpoint of it would write), so a log with no
                # catalog beside it is an older engine's.
                from repro.engine.persistence import save_catalog

                save_catalog(self, catalog_path + ".tmp")
                os.replace(catalog_path + ".tmp", catalog_path)

    @property
    def adaptive(self) -> bool:
        """Whether automatic periodic reorganization is on.

        A plain settable flag, symmetric with :attr:`zone_pruning`:
        ``store.adaptive = False`` pauses the automatic loop (monitoring
        continues; :meth:`adapt` still works). The controller itself —
        knobs, report, policies — lives at :attr:`adaptivity`.
        """
        return self.adaptivity.enabled

    @adaptive.setter
    def adaptive(self, value: bool) -> None:
        self.adaptivity.enabled = bool(value)

    # -- transactions ------------------------------------------------------

    @contextmanager
    def mutate(self, name: str) -> Iterator[_Mutation]:
        """Run an engine mutation as one transaction.

        Takes the table's exclusive lock (strict two-phase locking — writers
        on the same table serialize; readers never block, they pin MVCC
        snapshots instead), accumulates the mutation's effects, and at exit
        appends them to the WAL and commits (group commit). An error before
        the COMMIT record is appended — in the body or in an append —
        aborts: every table it locked is put back as the lock found it
        (see :class:`_Mutation`) and the locks are released. Nested
        ``mutate`` calls on the same thread join the outer transaction, so
        a re-layout that bulk-loads internally is one atomic unit. A
        failure past the COMMIT record (its fsync) stops the store.
        """
        outer = getattr(self._mutation_local, "ctx", None)
        if outer is not None:
            outer.lock(name)
            yield outer
            return
        self._require_writable()
        txn = self.transactions.begin()
        m = _Mutation(self, txn)
        self._mutation_local.ctx = m
        try:
            m.lock(name)
            yield m
            self._mutation_local.ctx = None
            if self.transactions.log and m._append_effects():
                txn.commit()  # fsyncs: from here the old pages are garbage
            else:
                txn.commit(effects=False)
        except BaseException:
            self._mutation_local.ctx = None
            # Past its COMMIT record only the fsync failed: the commit may
            # be durable, so nothing is put back and the store stops.
            if txn.commit_logged:
                self._stopped = (
                    f"the commit of transaction {txn.txn_id} failed its fsync"
                )
            else:
                try:
                    m.undo()  # under the table lock, before abort releases it
                finally:
                    txn.abort()  # writes nothing: the log may have failed
            raise
        m.release_retired()

    def _require_writable(self) -> None:
        if self._stopped is not None:
            raise StorageError(
                f"the store stopped taking writes ({self._stopped}); "
                "reopen it so recovery decides whether that commit happened"
            )

    def _note_rendered_page(
        self, page_id: int, image: bytes | bytearray
    ) -> None:
        """The renderer's page sink: a page it allocated now holds
        ``image``; the running transaction logs that at commit."""
        m = getattr(self._mutation_local, "ctx", None)
        if m is not None:
            m.log_fresh_page(page_id, image)

    def checkpoint(self) -> None:
        """Fold all durable state into the page file + catalog, then
        truncate the WAL.

        Protocol (crash-safe at every step): flush dirty frames, give a
        free tail of the page file back (no committed state names a free
        page, so the file may shrink whichever catalog wins), fsync the
        page file, write the catalog to ``<catalog_path>.tmp``, append a
        CHECKPOINT record and sync it, atomically promote the tmp catalog,
        truncate the log. Recovery promotes a leftover tmp catalog only
        when the CHECKPOINT record made it to the log. Callers must have
        quiesced writers (close, recovery, explicit maintenance windows) —
        the commit lock keeps effect records whole but does not wait out
        transactions that are still mid-body.
        """
        self._require_writable()
        if not self.durable:
            self.pool.flush_all()
            self.disk.truncate_free_tail()
            return
        from repro.engine.persistence import save_catalog

        assert self.catalog_path is not None
        tmp_path = self.catalog_path + ".tmp"
        with self._commit_lock:
            self.pool.flush_all()
            self.disk.truncate_free_tail()
            self.disk.fsync()
            save_catalog(self, tmp_path)
            self.wal.append(KIND_CHECKPOINT, 0)
            self.wal.sync()
            os.replace(tmp_path, self.catalog_path)
            self.wal.truncate()
            self.checkpoints += 1

    def inject_faults(self, injector) -> None:
        """Arm a :class:`~repro.storage.faults.FaultInjector` on the WAL
        and page-file write paths (pass ``None`` to disarm)."""
        self.disk.faults = injector
        self.wal.faults = injector

    def inject_io_faults(self, injector) -> None:
        """Arm an :class:`~repro.storage.faults.IoFaultInjector` on the
        page, WAL, and catalog read/write paths (pass ``None`` to disarm)."""
        self.disk.io_faults = injector
        self.wal.io_faults = injector
        self._io_faults = injector

    @property
    def checksums(self) -> bool:
        """Whether ``read_page`` verifies frame checksums (settable)."""
        return self.disk.verify_checksums

    @checksums.setter
    def checksums(self, value: bool) -> None:
        self.disk.verify_checksums = bool(value)

    # -- integrity ---------------------------------------------------------

    def _repair_page(self, page_id: int) -> bytearray | None:
        """Repair a corrupt page from its latest committed WAL after-image.

        The renderer logs *full-page* after-images of run pages at commit,
        so a run page whose transaction is still in the WAL can be
        rewritten bit-for-bit. Any other tenant — a B-tree or R-tree node,
        never logged — would get the image of the page id's previous
        tenant, so only pages a catalog run occupies are repaired. Pages a
        checkpoint folded into the page file have no WAL copy left. Either
        way the page stays quarantined and ``None`` is returned.
        """
        if page_id not in self._referenced_pages():
            return None
        images: list[tuple[int, bytes]] = []  # (txn, image), log order
        committed: set[int] = set()
        try:
            for r in self.wal.records():
                if r.kind == KIND_COMMIT:
                    committed.add(r.txn_id)
                elif r.kind == KIND_FRESH_PAGE and r.page_id == page_id:
                    images.append((r.txn_id, r.after))
        except WALError:
            return None  # the log itself is damaged: no trusted source
        # The *latest* committed image: the page id's last tenant.
        image = next(
            (after for txn, after in reversed(images) if txn in committed),
            None,
        )
        if image is None:
            return None
        self.disk.write_page(page_id, image)
        self.integrity.record_page_repair(page_id)
        return bytearray(image)

    def scrub(self, repair: bool = True) -> dict:
        """Verify every referenced page, WAL record, and the catalog file.

        Walks the store end to end: checksum-verifies each page referenced
        by a catalog layout (attempting WAL repair for failures when
        ``repair=True``), iterates the WAL (record CRCs + LSN continuity),
        re-verifies the catalog file checksum, and checks cross-structure
        invariants — the free-page map against the referenced pages, zone
        synopses against actual page contents, the partition map against
        each region's rows, and each region's stored row count against its
        resolving scan (:meth:`_scrub_entry`). Returns a report dict
        (also kept as ``storage_stats()["integrity"]["last_scrub"]``);
        ``report["clean"]`` is True when nothing failed.
        """
        start = time.perf_counter()
        report: dict[str, Any] = {
            "pages_checked": 0,
            "pages_failed": 0,
            "pages_repaired": 0,
            "unrepairable": [],
            "wal_records_checked": 0,
            "wal_ok": True,
            "wal_error": None,
            "catalog_ok": True,
            "catalog_error": None,
            "synopsis_mismatches": [],
            "partition_mismatches": [],
            "row_count_mismatches": [],
        }
        self.pool.flush_all()
        referenced = self._referenced_pages()
        report["pages_referenced"] = len(referenced)
        report["pages_allocated"] = self.disk.num_pages
        report["pages_free"] = self.disk.free_pages
        # A page both free and referenced would be handed to the next
        # render while a run still reads it.
        report["free_and_referenced"] = sorted(
            referenced & self.disk.free_page_ids()
        )
        for page_id in sorted(referenced):
            report["pages_checked"] += 1
            try:
                self.disk.read_page(page_id)
            except (CorruptPageError, StorageError) as exc:
                report["pages_failed"] += 1
                repaired = (
                    self._repair_page(page_id)
                    if repair and isinstance(exc, CorruptPageError)
                    else None
                )
                if repaired is not None:
                    report["pages_repaired"] += 1
                else:
                    report["unrepairable"].append(
                        {"page_id": page_id, "error": str(exc)}
                    )
        try:
            for _ in self.wal.records():
                report["wal_records_checked"] += 1
        except WALError as exc:
            report["wal_ok"] = False
            report["wal_error"] = str(exc)
        if self.catalog_path is not None and os.path.exists(self.catalog_path):
            from repro.engine.persistence import read_catalog_payload

            try:
                read_catalog_payload(self, self.catalog_path)
            except CatalogError as exc:
                report["catalog_ok"] = False
                report["catalog_error"] = str(exc)
        with self.adaptivity.pause():
            for entry in self.catalog:
                self._scrub_entry(entry, report)
        report["elapsed_s"] = time.perf_counter() - start
        report["clean"] = (
            report["pages_failed"] == report["pages_repaired"]
            and not report["unrepairable"]
            and not report["free_and_referenced"]
            and report["wal_ok"]
            and report["catalog_ok"]
            and not report["synopsis_mismatches"]
            and not report["partition_mismatches"]
            and not report["row_count_mismatches"]
        )
        self.integrity.record_scrub(report)
        return report

    def _scrub_entry(self, entry: CatalogEntry, report: dict) -> None:
        """Cross-structure invariants for one table (best effort).

        Each region's resolving scan must return its stored count — under a
        keyed level policy, whose count is an upper bound, at most that
        many rows and no key twice — and under a router, only rows that
        route back to it. A scan that raises is a mismatch too, unless the
        page walk already found a page of the table unrepairable: the scan
        would only re-raise what it recorded.
        """
        if entry.plan is None:
            return
        table = Table(self, entry)
        names = table.scan_schema().names()
        try:
            scanned = [
                (region, table._region_rows(region))
                for region in entry.regions
            ]
        except RodentStoreError as exc:
            lost = {u["page_id"] for u in report["unrepairable"]}
            pages = {p for run in entry.runs() for p in run.page_ids()}
            if not lost & pages:
                report["row_count_mismatches"].append(
                    {"table": entry.name, "error": str(exc)}
                )
            return
        routed = entry.plan.partition is not None
        router = self.router_for(entry) if routed else None
        for region, rows in scanned:
            stored, resolver = region.row_count, table._resolver(region, names)
            twice, bad = 0, len(rows) != stored
            if resolver is not None and resolver.keyed:
                twice = len(rows) - len(set(map(resolver.key_of, rows)))
                bad = twice or len(rows) > stored
            if bad:
                report["row_count_mismatches"].append({
                    "table": entry.name, "pid": region.pid,
                    "stored": stored, "scanned": len(rows),
                    **({"duplicate_keys": twice} if twice else {}),
                })
            for row in rows if routed else ():
                try:
                    key = router.locate(row).key
                except RodentStoreError:
                    break
                if key != region.key:
                    report["partition_mismatches"].append({
                        "table": entry.name, "pid": region.pid,
                        "expected_key": region.key, "routed_key": key,
                    })
                    break
        self._scrub_synopses(
            entry, [row for _, rows in scanned for row in rows], report
        )

    def _scrub_synopses(
        self, entry: CatalogEntry, rows: list[tuple], report: dict
    ) -> None:
        """Zone synopses must be parallel to their directories and must
        *contain* the actual data: a zone claiming tighter bounds than
        reality would let pruning skip live rows."""
        tables = [
            r.pending_zone
            for r in entry.regions
            if r.pending_zone is not None
        ]
        layouts = [run.layout for run in entry.runs()]
        bounded = True  # does some zone cover every stored row?
        for layout in layouts:  # grows as it goes: mirrors hold the zones
            layouts.extend(layout.mirrors)
            if layout.synopsis_error is not None:
                report["synopsis_mismatches"].append(
                    {"table": entry.name, "error": layout.synopsis_error}
                )
            s = layout.synopsis
            if s is not None:
                tables += [s.page_zones, *s.group_zones]
                tables += [s.cell_zones, s.folded_zones]
            elif not layout.mirrors:
                bounded = False
        if not rows or not bounded:
            return
        names = _scan_schema(entry.plan).names()
        for i, name in enumerate(names):
            columns = [t.fields[name] for t in tables if name in t.fields]
            try:
                union_min = vector.min_max_nulls(
                    [vector.min_max_nulls(c.mins)[0] for c in columns]
                )[0]
                union_max = vector.min_max_nulls(
                    [vector.min_max_nulls(c.maxs)[1] for c in columns]
                )[1]
            except TypeError:
                return  # mixed types: containment is undefined
            if union_min is None:
                continue  # no zone bounds this field
            values = [r[i] for r in rows if i < len(r) and r[i] is not None]
            if not values:
                continue
            try:
                actual_min, actual_max = min(values), max(values)
                out_of_bounds = (
                    actual_min < union_min or actual_max > union_max
                )
            except TypeError:
                continue
            if out_of_bounds:
                report["synopsis_mismatches"].append(
                    {
                        "table": entry.name,
                        "field": name,
                        "zone_bounds": [union_min, union_max],
                        "actual_bounds": [actual_min, actual_max],
                    }
                )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down deterministically: stop the scan thread pool (joining
        its workers so pytest never sees leaked threads), checkpoint (or
        flush) every table's buffered state, and release the storage stack.
        A durable store that closes cleanly truncates its WAL — reopening
        finds an empty log and skips recovery; any other exit leaves the
        log in place and the next open replays it. Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.shutdown_scan_executor()
        try:
            self.checkpoint()
        except StorageError:
            # A poisoned (fault-injected) or stopped store does not
            # checkpoint; leave the WAL for recovery and release the stack.
            pass
        self.wal.close()
        self.disk.close()

    def shutdown_scan_executor(self) -> None:
        """Stop and join the shared scan workers (no-op when never used)."""
        executor = self._scan_executor
        self._scan_executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def scan_executor(self):
        """The shared partition-scan thread pool, sized to
        :attr:`scan_workers` (rebuilt when the knob changes)."""
        from concurrent.futures import ThreadPoolExecutor

        workers = max(2, int(self.scan_workers))
        executor = self._scan_executor
        if executor is not None and executor._max_workers != workers:
            executor.shutdown(wait=True)
            executor = None
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="rodent-scan",
            )
            self._scan_executor = executor
        return executor

    def __enter__(self) -> "RodentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- DDL ---------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        layout: str | ast.Node | None = None,
    ) -> Table:
        """Create a table with an optional declarative physical design.

        ``layout`` is a storage-algebra expression (text or AST); omitted, it
        defaults to the canonical row-major representation ``rows(name)``.
        A design the store cannot hold raises :class:`StorageError` here
        (:func:`split_design`).
        """
        with self.mutate(name) as m:
            entry = self.catalog.create(name, schema)
            entry.plan = plan = self._compile(name, layout)
            entry.regions, entry.loaded = _unloaded_regions(plan)
            # Log the (empty) catalog entry so a table created after the
            # last checkpoint exists again at recovery — otherwise its
            # replayed row inserts would have nowhere to land.
            m.touch(name)
        return Table(self, entry)

    def _resolve_expr(
        self, name: str, layout: str | ast.Node | None
    ) -> ast.Node:
        if layout is None:
            return ast.TableRef(name)
        if isinstance(layout, str):
            return parse(layout)
        return layout

    def _compile(self, name: str, layout: str | ast.Node | None) -> PhysicalPlan:
        """``layout`` compiled as a design of ``name``, and split once
        (:func:`stored_split`): a design with no faithful split is refused
        before anything renders."""
        expr = self._resolve_expr(name, layout)
        plan = AlgebraInterpreter(self.catalog.schemas()).compile(expr)
        stored_split(plan)
        return plan

    def drop_table(self, name: str) -> None:
        entry = self.catalog.entry(name)
        with self.mutate(name) as m:
            # Regions keep their runs — a pinned scan may still be
            # reading them; only the page frees are deferred.
            self._retire_runs(entry, list(entry.runs()))
            if entry.monitor is not None:
                entry.monitor.forget_partitions([])
            self.catalog.drop(name)
            m.mark_dropped(name)

    def _referenced_pages(self) -> set[int]:
        """Every page some catalog run's layout occupies: what the catalog
        names and the WAL logs (a run's indexes are derived, neither)."""
        referenced: set[int] = set()
        for entry in self.catalog:
            for run in entry.runs():
                referenced.update(run.layout.page_ids())
        return referenced

    def derive_free_pages(self) -> None:
        """Rebuild the disk's free map from the catalog: every allocated
        page no run references is free. Only valid when nothing else owns
        a page — just after the catalog loaded or recovery replayed,
        before any run holds an index again."""
        self.disk.reset_free(self._referenced_pages())

    def _retire_pages(
        self, entry: CatalogEntry, page_ids: Sequence[int]
    ) -> None:
        """The one way a page of ``entry`` becomes free again. Inside a
        transaction the pages wait for its durable commit (the recoverable
        catalog names them until then); either way they then wait for the
        last scan pinned before the swap."""
        m = getattr(self._mutation_local, "ctx", None)
        if m is not None:
            m.retire(entry, page_ids)
        elif page_ids:
            self._release_pages(entry, page_ids)

    def _retire_runs(self, entry: CatalogEntry, runs: "Sequence[Run]") -> None:
        # The id list is captured eagerly: a layout may change after it
        # was superseded. A run's indexes go with it.
        self._retire_pages(entry, [p for run in runs for p in run.page_ids()])

    def _release_pages(
        self, entry: CatalogEntry, page_ids: Sequence[int]
    ) -> None:
        """Free ``page_ids`` — pool frame discard plus return to the disk's
        free spans — when the entry's MVCC machinery decides the last
        pinned reader has drained."""

        def free() -> None:
            self.renderer.cache.forget_pages(page_ids)
            for page_id in page_ids:
                self.pool.discard(page_id)
                self.disk.free_page(page_id)

        with entry.mvcc.lock:
            entry.mvcc.retire(free)

    # -- data loading ----------------------------------------------------------

    def load(self, name: str, records: Sequence[Sequence[Any]]) -> Table:
        """Bulk-load logical records, rendering the table's physical design.

        A load *replaces* the table's contents, whatever its shape: the
        runs and pending rows of an earlier load are superseded."""
        entry = self.catalog.entry(name)
        if entry.plan is None:
            raise CatalogError(f"table {name!r} has no physical plan")
        return self._load_with_plan(entry, entry.plan, records)

    def _load_with_plan(
        self,
        entry: CatalogEntry,
        plan: PhysicalPlan,
        records: Sequence[Sequence[Any]],
    ) -> Table:
        """(Re)render ``entry`` under ``plan`` from logical ``records``.

        The shared core of :meth:`load` and :meth:`relayout` (which folds
        the current rows into ``records`` first). Rendering happens
        *before* any entry state changes, into a private region list that
        :meth:`_install` then swaps in. The whole operation is one
        transaction: the rendered pages and the new catalog image are
        WAL-logged at commit.
        """
        schema = entry.logical_schema
        with self.mutate(entry.name) as m:
            columns = [
                vector.typed_column(column, vector.typecode_for(f.dtype))
                for f, column in zip(schema.fields, schema.coerce_columns(records))
            ]
            stats = TableStats.from_columns(schema, columns)
            batch = ColumnBatch.from_columns(tuple(schema.names()), columns)
            regions = self._render_regions(entry, plan, batch)
            self._install(entry, plan, stats, regions, m)
            return Table(self, entry)

    def _render_regions(
        self, entry: CatalogEntry, plan: PhysicalPlan, batch: ColumnBatch
    ) -> list[Region]:
        """Render a batch of logical records into the regions ``plan``
        describes.

        The design's record pipeline (:func:`split_design`) maps them to
        stored records once, as an insert would, as one permutation of the
        batch's columns; the plan's router splits them into regions — one
        for a trivial router; one per partition
        otherwise, where fixed splits (range/hash) render every region
        eagerly (empty ones included: the partition map is part of the
        physical design) and value partitions appear in first-seen key
        order. Each region's rows render as one run, as a seal renders one
        (:func:`~repro.engine.levels.sealed_run`, the table's declared
        indexes built beside it). Under a level policy a
        bulk load is already "fully compacted": the run lands at its size
        class directly, the pending buffer starts empty, and an empty
        region holds no run.
        """
        others = sorted(plan.expr.table_names() - {entry.name})
        if others:
            raise StorageError(f"the design of {entry.name!r} reads {others}")
        stored = stored_split(plan).apply(batch)
        router = PartitionRouter(plan.partition, stored.fields)
        spec = plan.levels
        regions: list[Region] = []
        lookup: dict = {}
        try:
            for locator, part in router.split(stored):
                region, _ = _find_or_create_region(
                    router, plan, regions, lookup, len(regions), locator
                )
                if part.n_rows or spec is None:
                    run = levels.sealed_run(
                        self, plan, region, part, entry.indexes
                    )
                    if spec is not None:
                        run.level = spec.level_of(
                            run.row_count, self.level_seal_rows
                        )
                    region.runs = [run]
        except CrashError:
            raise
        except Exception:
            # Nothing names the runs rendered before the failure (the failed
            # render gave back its own extents): free them. A crash leaves
            # them to the next open.
            rendered = [run for region in regions for run in region.runs]
            self._release_pages(
                entry, [p for run in rendered for p in run.page_ids()]
            )
            raise
        return regions

    def _install(
        self,
        entry: CatalogEntry,
        plan: PhysicalPlan,
        stats: TableStats,
        regions: list[Region],
        m: _Mutation,
    ) -> None:
        """Swap a freshly rendered design into ``entry``.

        The plan and the new regions swap in together under the entry's
        MVCC lock (a pinned scan either sees the old plan+regions pair or
        the new one, never a mismatch), and every superseded run is
        retired, not freed — its pages come back after the durable commit,
        once the last draining reader lets go.
        Every derived structure describing the old design goes with it:
        the old runs' indexes, pending buffers and their zones, the
        partition map and its skew history (new regions reusing an old pid
        must not inherit its weight), the old regions' tombstones and the
        run sequence space.
        """
        with entry.mvcc.lock:
            self._retire_runs(entry, list(entry.runs()))
            entry.plan = plan
            entry.stats = stats
            entry.regions = regions
            entry.loaded = True
            entry.region_index = {}
            # Allocators restart past what the render numbered: partition
            # ids 0..n-1, runs 0..r-1, all at sequence 0.
            entry.next_partition_id = len(regions)
            entry.next_run_id, entry.next_run_seq = 0, 1
            for run in entry.runs():
                run.rid = entry.next_run_id
                entry.next_run_id += 1
                self._wa_note(entry, run.layout, ingest=True)
        if entry.monitor is not None:
            entry.monitor.forget_partitions([])
        m.touch(entry.name)

    # -- horizontal partitions ---------------------------------------------

    def router_for(self, entry: CatalogEntry) -> PartitionRouter:
        """The entry's router (trivial for a one-region table), bound to its
        stored-record shape."""
        return PartitionRouter(
            entry.plan.partition, _scan_schema(entry.plan).names()
        )

    def _region_for(
        self, entry: CatalogEntry, router: PartitionRouter, locator: Locator
    ) -> Region:
        """Find or create the region ``locator`` addresses.

        Lookups go through a per-entry ``key -> region`` index (rebuilt
        whenever the region list changed shape) so bulk insert routing
        stays O(rows), not O(rows x partitions). Range regions insert in
        bucket order so the table's region list stays sorted by key range
        (the property that lets a range-partitioned scan serve ``ORDER BY
        key`` without sorting).
        """
        lookup = entry.region_index
        if len(lookup) != len(entry.regions):
            lookup.clear()
            lookup.update({r.key: r for r in entry.regions})
        region, entry.next_partition_id = _find_or_create_region(
            router,
            entry.plan,
            entry.regions,
            lookup,
            entry.next_partition_id,
            locator,
        )
        return region

    def _render_region(
        self,
        table_plan: PhysicalPlan,
        plan: PhysicalPlan,
        batch: ColumnBatch,
    ) -> StoredLayout:
        """Render one region's rows — a batch of stored records in the table
        plan's field order — through ``plan``'s structural residual
        (:func:`split_design`): the one render of every write.

        Takes the table plan and region plan explicitly — not the entry or
        a region — so callers can render *before* mutating any shared
        state: a failed render (e.g. a record exceeding page capacity
        under the new design) must leave the region exactly as it was, and
        a re-layout renders against the *new* table plan before swapping
        it in.
        """
        split = stored_split(plan)
        canonical = stored_split(table_plan).fields
        if split.fields != canonical:
            index = {f: i for i, f in enumerate(canonical)}
            batch = batch.project_columns(
                [index[f] for f in split.fields], split.fields
            )
        return self.renderer.render_region(plan, split.residual, batch)

    def relayout_partition(
        self, name: str, pid: int, layout: str | ast.Node
    ) -> Table:
        """Re-organize ONE region — a partition, or the one region of any
        other table — under a new design: the eager schedule of one region
        (:func:`~repro.engine.levels.merge_regions`) — no other partition
        is read or written. The design must pass :meth:`region_plan`.
        """
        entry = self.catalog.entry(name)
        region = next((r for r in entry.regions if r.pid == pid), None)
        if region is None:
            raise StorageError(f"table {name!r} has no partition {pid}")
        table = Table(self, entry)
        levels.merge_regions(table, [region], layout)
        return table

    def region_plan(self, name: str, layout: str | ast.Node) -> PhysicalPlan:
        """Compile ``layout`` as the design of one region of ``name`` — a
        flat table, a partition, or the runs of a levelled table.

        The rule every region design shares (every redesign, and the
        reorganizer's and the adaptive controller's choice of one): the
        design is one layout, neither partitioned nor levelled, and it
        re-renders stored records, so it must produce exactly the table's
        stored fields — regions stay mutually projectable. Raises
        :class:`StorageError` otherwise.
        """
        entry = self.catalog.entry(name)
        plan = self._compile(name, layout)
        if plan.region_design is not None:
            raise StorageError(
                "a region's design is one layout: it cannot itself be "
                "partitioned or levelled"
            )
        canonical, produced = (
            sorted(_scan_schema(p).names()) for p in (entry.plan, plan)
        )
        if canonical != produced:
            raise StorageError(
                f"a region's design must keep the stored fields {canonical}; "
                f"new design produces {produced}"
            )
        return plan

    # -- adaptivity: change a table's physical design ------------------------

    def relayout(
        self,
        name: str,
        layout: str | ast.Node,
        source_records: Sequence[Sequence[Any]] | None = None,
    ) -> Table:
        """Re-organize ``name`` under a new algebra expression by a reload
        through its logical rows: the path for a design that changes the
        table's shape (flat, partitioned, levelled) or drops fields. A new
        design of the regions is a redesign plus a merge instead
        (:func:`~repro.engine.levels.merge_regions`).

        When ``source_records`` is omitted the current representation must
        retain every logical field (a design that projected fields away is
        lossy, so the caller has to re-supply the data — the paper's design
        tools would keep the base table for exactly this reason).
        """
        entry = self.catalog.entry(name)
        new_plan = self._compile(name, layout)
        with self.mutate(name):
            if source_records is None:
                source_records = self._recover_logical_records(entry)
            # One transaction: recover rows (every run and the pending
            # rows), render under the new plan, swap plan+regions together
            # (never a mismatch), retire every old run.
            return self._load_with_plan(entry, new_plan, source_records)

    def _recover_logical_records(self, entry: CatalogEntry) -> list[tuple]:
        table = Table(self, entry)
        stored_fields = table.scan_schema().names()
        logical_fields = entry.logical_schema.names()
        missing = [f for f in logical_fields if f not in stored_fields]
        if missing:
            raise StorageError(
                f"cannot re-derive logical records: current layout dropped "
                f"field(s) {missing}; pass source_records"
            )
        # Recovery reads every run and the pending rows — they are all part
        # of the logical relation and must survive the re-layout. The scan
        # is maintenance traffic: keep it out of the workload monitor.
        with self.adaptivity.pause():
            return list(table.scan(fieldlist=logical_fields))

    # -- levelled (LSM) storage ---------------------------------------------

    def maintain_levels(self, name: str, rows_written: int = 0) -> None:
        """Post-insert maintenance for a levelled table (a no-op for any
        other): notes the write load the adaptive loop weighs run merges
        against, seals each region's pending buffer into a level-0 run once
        it reaches :attr:`level_seal_rows`, then kicks a merge when any
        region's level fan-out reached the design's ``k`` — in the
        background on the
        shared worker pool when ``scan_workers > 1``, synchronously
        otherwise (deterministic for tests and single-threaded stores).
        """
        levels.maintain_levels(
            Table(self, self.catalog.entry(name)), rows_written
        )

    def _levelled(self, name: str) -> Table:
        entry = self.catalog.entry(name)
        if entry.plan is None or entry.plan.levels is None:
            raise StorageError(f"table {name!r} is not levelled")
        return Table(self, entry)

    def seal_level_run(self, name: str) -> StoredLayout | None:
        """Seal the fullest region's pending buffer into an immutable
        level-0 run (:func:`~repro.engine.levels.seal`), in one
        transaction. Returns the new run's layout, or ``None`` when nothing
        was pending."""
        table = self._levelled(name)
        with self.mutate(name) as m:
            regions = table._entry.regions or [Region()]
            fullest = max(regions, key=lambda r: len(r.pending))
            run = levels.seal(table, fullest, m)
        return None if run is None else run.layout

    def compact_levels(self, name: str) -> dict:
        """Merge levelled runs (the LSM compaction): in every region,
        repeatedly merge the shallowest level whose fan-out reached ``k``
        into one run of the next level, cascading until no level is over
        fan-out. Returns
        ``{"merges", "runs_merged"}``. (``Table.compact`` is the full
        merge, for every table shape.)
        """
        return levels.compact_levels(self._levelled(name))

    def _wa_note(
        self, entry: CatalogEntry, layout: StoredLayout, ingest: bool
    ) -> None:
        """Charge a rendered layout to the entry's write-amplification
        ledger: every render adds to ``wa_bytes_written``; first-time
        renders of freshly ingested rows also add to ``wa_bytes_ingested``,
        and every other render (a merge) counts its rewritten pages. The
        ratio is surfaced by ``storage_stats()``."""
        pages = layout.total_pages()
        nbytes = pages * self.disk.page_size
        entry.wa_bytes_written += nbytes
        if ingest:
            entry.wa_bytes_ingested += nbytes
        else:
            entry.wa_pages_compacted += pages
            entry.wa_compactions += 1

    def adapt(self, name: str | None = None) -> dict:
        """Run the adaptive loop now: advise on the observed workload and
        reorganize when a clearly better design exists.

        Equivalent to the periodic check the controller runs every
        ``adapt_interval`` observed scans (when ``adaptive=True``), but
        operator-initiated: the minimum-observation gate and the rewrite
        amortization charge are waived, the hysteresis margin is not.
        Returns the decision for ``name``, or ``{table: decision}`` for
        every table when ``name`` is omitted.
        """
        if name is not None:
            return self.adaptivity.check(name, force=True)
        return self.adaptivity.check_all(force=True)

    # -- persistence ---------------------------------------------------------

    def save_catalog(self, path: str) -> None:
        """Persist schemas, physical designs, and layout metadata as JSON.

        Combined with a file-backed page store, this makes the database
        reopenable: ``RodentStore.open(db_path, catalog_path)``.
        """
        from repro.engine.persistence import save_catalog

        self.pool.flush_all()
        save_catalog(self, path)

    @classmethod
    def open(
        cls,
        path: str,
        catalog_path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        **kwargs: Any,
    ) -> "RodentStore":
        """Reopen a store from its page file and saved catalog."""
        from repro.engine.persistence import load_catalog

        store = cls(path=path, page_size=page_size, **kwargs)
        if not store.catalog.names():
            # A durable store already loaded its catalog during recovery;
            # everything else loads it here.
            load_catalog(store, catalog_path)
            store.derive_free_pages()
        return store

    # -- access ------------------------------------------------------------

    def table(self, name: str) -> Table:
        return Table(self, self.catalog.entry(name))

    def query(self, table: str):
        """A fluent :class:`~repro.query.frontend.Q` builder on ``table``."""
        from repro.query.frontend import Q

        return Q(self, table)

    def tables(self) -> list[str]:
        return self.catalog.names()

    # -- measurement ---------------------------------------------------------

    def storage_stats(self) -> dict:
        """Cumulative storage-layer counters: buffer pool, decoded cache
        (:class:`~repro.layout.cache.DecodedCache`) and disk.

        Buffer-pool hit rate and eviction counts expose whether a workload
        fits in memory; the disk counters are the paper's pages/seeks
        metric since store creation (use :meth:`run_cold` for per-query
        deltas). Pruned scans show up as fewer pool fetches (hits+misses)
        and fewer disk ``page_reads``. ``disk`` also says where the page
        file stands: ``allocated_pages`` (its extent), ``free_pages`` (in
        the reusable spans), ``live_pages`` (the difference) and
        ``file_pages`` (frames actually written to the medium). A
        partition's ``rows`` are its live rows (:class:`Region`), a run's
        the rows it stores.
        """
        pool = self.pool.stats
        disk = self.disk.stats
        tables: dict[str, dict] = {}
        for entry in self.catalog:
            info: dict[str, Any] = {
                "tombstones": sum(
                    len(region.level_tombstones) for region in entry.regions
                ),
            }
            plan = entry.plan
            if plan is not None and plan.partition is not None:
                info.update(
                    {
                        "partitioned": True,
                        "partition_count": len(entry.regions),
                        "partition_scans": entry.partition_scans,
                        "partitions_pruned": entry.partitions_pruned_total,
                        "partitions": [
                            {
                                "pid": region.pid,
                                "key": region.describe_key(),
                                "rows": region.row_count,
                                "pages": region.total_pages(),
                                "layout": region.plan.describe()
                                if region.plan is not None
                                else None,
                                "run_count": len(region.runs),
                                "pending_rows": len(region.pending),
                                "tombstones": len(region.level_tombstones),
                            }
                            for region in entry.regions
                        ],
                    }
                )
            if plan is not None and plan.levels is not None:
                runs = list(entry.runs())
                by_level = Counter(run.level for run in runs)
                info.update(
                    {
                        "levelled": True,
                        "run_count": len(runs),
                        "levels": {
                            str(lvl): by_level[lvl] for lvl in sorted(by_level)
                        },
                        "pending_rows": sum(
                            len(region.pending) for region in entry.regions
                        ),
                        "runs": [
                            {
                                "rid": run.rid,
                                "level": run.level,
                                "rows": run.row_count,
                                "pages": run.total_pages(),
                                "seq": [run.min_seq, run.max_seq],
                            }
                            for run in runs
                        ],
                    }
                )
            if entry.wa_bytes_written:
                ingested = entry.wa_bytes_ingested
                info["write_amplification"] = {
                    "bytes_ingested": ingested,
                    "bytes_written": entry.wa_bytes_written,
                    "pages_rewritten_by_compaction": (
                        entry.wa_pages_compacted
                    ),
                    "compactions": entry.wa_compactions,
                    "factor": (
                        entry.wa_bytes_written / ingested
                        if ingested
                        else None
                    ),
                }
            if info:
                tables[entry.name] = info
        return {
            "adaptivity": self.adaptivity.report(),
            "tables": tables,
            "buffer_pool": {
                "capacity": self.pool.capacity,
                "resident_pages": len(self.pool),
                "hits": pool.hits,
                "misses": pool.misses,
                "fetches": pool.hits + pool.misses,
                "evictions": pool.evictions,
                "flushes": pool.flushes,
                "hit_rate": pool.hit_rate,
            },
            "decoded_cache": self.renderer.cache.stats(),
            "disk": {
                "page_reads": disk.page_reads,
                "page_writes": disk.page_writes,
                "read_seeks": disk.read_seeks,
                "write_seeks": disk.write_seeks,
                "allocated_pages": self.disk.num_pages,
                "free_pages": self.disk.free_pages,
                "live_pages": self.disk.num_pages - self.disk.free_pages,
                "file_pages": self.disk.file_pages,
            },
            "wal": {
                "wal_bytes": self.wal.size_bytes,
                "appends": self.wal.appends,
                "fsyncs": self.wal.fsyncs,
                "flushed_lsn": self.wal.flushed_lsn,
            },
            "transactions": {
                "txns_committed": self.transactions.committed,
                "txns_aborted": self.transactions.aborted,
                "active": self.transactions.active_count,
            },
            "recovery": {
                "durable": self.durable,
                "recoveries_run": self.recoveries_run,
                "checkpoints": self.checkpoints,
                "last_recovery": self.recovery_summary,
            },
            "integrity": {
                "checksums": self.disk.verify_checksums,
                "degraded_reads": self.degraded_reads,
                **self.integrity.snapshot(),
            },
        }

    def run_cold(self, query: Callable[[], Any]) -> tuple[Any, IOStats]:
        """Run ``query`` against a cold cache, returning (result, I/O delta).

        This is the measurement harness for the paper's "number of pages read
        per query" metric: the buffer pool and the decoded cache are
        emptied, and the simulated disk head reset, so each query pays its
        true I/O.
        """
        self.renderer.cache.clear()
        self.pool.clear()
        self.disk.reset_head()
        with self.disk.measure() as io:
            result = query()
        return result, io


def _unloaded_regions(plan: PhysicalPlan) -> tuple[list[Region], bool]:
    """``(regions, loaded)`` of a table created under ``plan`` and not yet
    bulk-loaded. A one-region table has its region from birth (inserts
    need a pending buffer), partitions appear as rows route to them; a
    levelled table is born scannable — create, insert, scan — with the
    first seal rendering run 0, any other scans only once loaded."""
    one = [] if plan.partition is not None else [Region(plan=plan.region_template)]
    return one, plan.levels is not None


def _find_or_create_region(
    router: PartitionRouter,
    plan: PhysicalPlan,
    regions: list[Region],
    lookup: dict,
    next_pid: int,
    locator: Locator,
) -> tuple[Region, int]:
    """Find ``locator``'s region in ``regions`` or create it under
    ``plan``'s region template.

    Pure list/dict manipulation shared by live routing
    (:meth:`RodentStore._region_for`, against the entry's lists) and the
    bulk load (against private lists that swap in atomically). Range
    regions insert in bucket order so the region list stays sorted by key
    range. Returns ``(region, next_pid)``.
    """
    found = lookup.get(locator.key)
    if found is not None:
        return found, next_pid
    region = Region(
        plan=plan.region_template,
        pid=next_pid,
        key=locator.key,
        lower=locator.lower,
        upper=locator.upper,
    )
    next_pid += 1
    if router.ordered:
        at = len(regions)
        for i, existing in enumerate(regions):
            if existing.key > region.key:
                at = i
                break
        regions.insert(at, region)
    else:
        regions.append(region)
    lookup[region.key] = region
    return region, next_pid
