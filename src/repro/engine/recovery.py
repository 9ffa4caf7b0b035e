"""Crash recovery: rebuild committed state from checkpoint + WAL.

A durable :class:`~repro.engine.database.RodentStore` runs this on open
whenever its WAL is non-empty (a clean shutdown checkpoints and truncates
the log, so any surviving bytes mean the last session died mid-flight).

Before the log is opened, :func:`check_format` refuses a store of another
format (:class:`~repro.errors.StoreFormatError`).

A transaction's records reach the log only at its commit, all at once,
under the commit lock; a page record is the image of a page the
transaction allocated, which nothing committed names before it commits.
So recovery is redo only:

1. **Checkpoint resolution.** A crash between "catalog written to
   ``.tmp``" and "tmp promoted" is disambiguated by the CHECKPOINT record:
   if it reached the log, the tmp catalog is the real one (promote it);
   otherwise the tmp file is garbage (delete it). Records at or below the
   checkpoint LSN are already folded into the catalog and are ignored.
2. **Redo.** Page after-images of committed transactions are replayed in
   LSN order (whole pages: a render fills the pages it allocated, and its
   ``FRESH_PAGE`` records carry exactly what it wrote). A page id may
   have had several tenants since the checkpoint; the last committed
   image wins. A loser's pages — a transaction with effects but no
   COMMIT — are left alone: nothing committed names them, so they come
   back as free space (step 4).
3. **Logical replay.** The *last* committed catalog image per table is
   applied (it supersedes older images and any page-level state), then
   committed row inserts newer than that image land back in the pending
   buffers through the same ``Table._add_pending`` an insert uses.
4. **Free space, re-checkpoint.** The free-page map is derived from the
   recovered catalog (every page no run references), then the recovered
   state is checkpointed, truncating the log — recovery is idempotent and
   a crash during recovery just replays.

The log is streamed twice, never held: an *analysis* pass finds the last
checkpoint, the commit set and the last committed catalog image per table;
a *redo* pass applies page images as they go by and keeps only the row
inserts still to replay.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from repro.storage.wal import (
    KIND_CATALOG,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_FRESH_PAGE,
    KIND_ROWS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import RodentStore


def check_format(store: "RodentStore", wal_path: str) -> dict | None:
    """The store's verified catalog (``None``: none yet), read before a log
    record is decoded. A catalog of another version is refused, and so is
    a non-empty log with no catalog (or ``.tmp`` one to promote) beside
    it: a durable store writes its catalog at creation."""
    from repro.engine.persistence import (
        read_catalog_payload,
        store_format_error,
    )

    catalog_path = store.catalog_path
    assert catalog_path is not None
    if os.path.exists(catalog_path):
        return read_catalog_payload(store, catalog_path)
    if (
        os.path.exists(wal_path)
        and os.path.getsize(wal_path)
        and not os.path.exists(catalog_path + ".tmp")
    ):
        raise store_format_error(store.disk.path, "a log with no catalog")
    return None


def recover_store(store: "RodentStore", payload: dict | None) -> dict:
    """Recover ``store`` (durable, just-opened) to committed state, from
    ``payload``, the catalog :func:`check_format` read, and the log.

    Returns a summary dict; ``{"clean": True}`` when the previous session
    shut down cleanly and there was nothing to do.
    """
    from repro.engine.persistence import (
        apply_entry_dict,
        read_catalog_payload,
        restore_catalog,
    )

    wal = store.wal
    catalog_path = store.catalog_path
    assert catalog_path is not None
    tmp_path = catalog_path + ".tmp"

    # -- analysis pass (stops cleanly at a torn tail) -----------------------
    # Everything at or below the last CHECKPOINT record is already folded
    # into the catalog: the sets restart there.
    records_scanned = 0
    checkpoint_lsn = 0
    committed: set[int] = set()
    with_effects: set[int] = set()
    # table -> (lsn, image) of its last committed catalog record; a
    # transaction's images wait in ``uncommitted`` for its COMMIT.
    catalogs: dict[str, tuple[int, dict]] = {}
    uncommitted: dict[int, dict[str, tuple[int, dict]]] = {}
    for r in wal.records():
        records_scanned += 1
        if r.kind == KIND_CHECKPOINT:
            checkpoint_lsn = r.lsn
            for held in (committed, with_effects, catalogs, uncommitted):
                held.clear()
        elif r.kind == KIND_COMMIT:
            committed.add(r.txn_id)
            for name, image in uncommitted.pop(r.txn_id, {}).items():
                if image[0] > catalogs.get(name, (0, None))[0]:
                    catalogs[name] = image
        elif r.kind in (KIND_FRESH_PAGE, KIND_ROWS):
            with_effects.add(r.txn_id)
        elif r.kind == KIND_CATALOG:
            with_effects.add(r.txn_id)
            image = json.loads(r.payload.decode("utf-8"))
            uncommitted.setdefault(r.txn_id, {})[image["name"]] = (r.lsn, image)
    losers = with_effects - committed
    del uncommitted

    # -- checkpoint resolution --------------------------------------------
    if os.path.exists(tmp_path):
        if checkpoint_lsn:
            os.replace(tmp_path, catalog_path)
            payload = read_catalog_payload(store, catalog_path)
        else:
            os.remove(tmp_path)
    if payload is not None:
        restore_catalog(store, payload)

    unclean = wal.size_bytes > 0
    if not unclean:
        store.derive_free_pages()
        return {"clean": True}

    # -- redo pass: committed page images in LSN order ---------------------
    redo = 0
    inserts: list[tuple[str, list]] = []
    for r in wal.records():
        if r.lsn <= checkpoint_lsn or r.txn_id not in committed:
            continue
        if r.kind == KIND_FRESH_PAGE:
            # A whole page: nothing is read, so a torn or truncated page is
            # simply overwritten.
            store.disk.grow_to(r.page_id + 1)
            store.disk.write_page(r.page_id, r.after)
            redo += 1
        elif r.kind == KIND_ROWS:
            payload = json.loads(r.payload.decode("utf-8"))
            name = payload["table"]
            # A newer catalog image already folds older rows in (they
            # were in a pending buffer or a run when it was serialized).
            if r.lsn > catalogs.get(name, (0, None))[0]:
                inserts.append((name, payload["rows"]))

    # -- logical replay: last committed catalog image per table -----------
    dropped = 0
    applied = 0
    for name, (_, payload) in catalogs.items():
        if payload.get("dropped"):
            if store.catalog.has(name):
                store.catalog.drop(name)
                dropped += 1
        else:
            apply_entry_dict(store, payload)
            applied += 1

    # -- logical replay: committed row inserts ----------------------------
    from repro.engine.table import Table
    from repro.layout.renderer import ColumnBatch

    rows_replayed = 0
    for name, rows in inserts:
        if not store.catalog.has(name):
            continue  # table dropped later in the log
        entry = store.catalog.entry(name)
        if entry.plan is None:
            continue
        table = Table(store, entry)
        with entry.mvcc.lock:
            table._add_pending(ColumnBatch.from_rows(
                tuple(table.scan_schema().names()), [tuple(v) for v in rows]
            ))
        rows_replayed += len(rows)

    summary = {
        "clean": False,
        "records_scanned": records_scanned,
        "committed_txns": len(committed),
        "loser_txns": len(losers),
        "pages_redone": redo,
        "catalog_images_applied": applied,
        "tables_dropped": dropped,
        "rows_replayed": rows_replayed,
    }
    # Fold the recovered state into the page file + catalog and truncate
    # the log; a crash *during* recovery simply replays from the same WAL.
    store.derive_free_pages()
    store.checkpoint()
    store.obs.add("recovery.recoveries_run")
    return summary
