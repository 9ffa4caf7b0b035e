"""Crash recovery: rebuild committed state from checkpoint + WAL.

A durable :class:`~repro.engine.database.RodentStore` runs this on open
whenever its WAL is non-empty (a clean shutdown checkpoints and truncates
the log, so any surviving bytes mean the last session died mid-flight).

The protocol is the classic two-pass physiological replay, adapted to
RodentStore's copy-on-write engine:

1. **Checkpoint resolution.** A crash between "catalog written to
   ``.tmp``" and "tmp promoted" is disambiguated by the CHECKPOINT record:
   if it reached the log, the tmp catalog is the real one (promote it);
   otherwise the tmp file is garbage (delete it). Records at or below the
   checkpoint LSN are already folded into the catalog and are ignored.
2. **Redo.** Page after-images of committed transactions are replayed in
   LSN order (full pages: the renderer writes freshly allocated pages, so
   effect records carry whole-page images).
3. **Undo.** Losers — transactions with effects but no COMMIT — are rolled
   back in reverse LSN order by writing the before-images (all zeros:
   fresh pages start zeroed, so this restores the true prior state).
4. **Logical replay.** The *last* committed catalog image per table is
   applied (it supersedes older images and any page-level state), then
   committed row inserts newer than that image land back in the pending
   buffers through the same ``Table._add_pending`` an insert uses.
5. **Re-checkpoint.** The recovered state is checkpointed, truncating the
   log — recovery is idempotent and a crash during recovery just replays.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from repro.storage.wal import (
    KIND_CATALOG,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_ROWS,
    KIND_UPDATE,
    _apply_image,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import RodentStore


def recover_store(store: "RodentStore") -> dict:
    """Recover ``store`` (durable, just-opened) to committed state.

    Returns a summary dict; ``{"clean": True}`` when the previous session
    shut down cleanly and there was nothing to do.
    """
    from repro.engine.persistence import apply_entry_dict, load_catalog

    wal = store.wal
    catalog_path = store.catalog_path
    assert catalog_path is not None
    tmp_path = catalog_path + ".tmp"

    records = list(wal.records())  # stops cleanly at a torn tail
    checkpoint_lsn = max(
        (r.lsn for r in records if r.kind == KIND_CHECKPOINT), default=0
    )

    # -- checkpoint resolution --------------------------------------------
    if os.path.exists(tmp_path):
        if checkpoint_lsn:
            os.replace(tmp_path, catalog_path)
        else:
            os.remove(tmp_path)
    if os.path.exists(catalog_path):
        load_catalog(store, catalog_path)

    unclean = wal.size_bytes > 0
    if not unclean:
        return {"clean": True}

    live = [r for r in records if r.lsn > checkpoint_lsn]
    committed = {r.txn_id for r in live if r.kind == KIND_COMMIT}

    # -- redo committed page images (LSN order) ---------------------------
    redo = 0
    for r in live:
        if r.kind == KIND_UPDATE and r.txn_id in committed:
            _apply_image(store.disk, r.page_id, r.offset, r.after)
            redo += 1

    # -- undo losers (reverse LSN order) ----------------------------------
    effect_kinds = (KIND_UPDATE, KIND_ROWS, KIND_CATALOG)
    losers = {
        r.txn_id
        for r in live
        if r.kind in effect_kinds and r.txn_id not in committed
    }
    undo = 0
    for r in reversed(live):
        if r.kind == KIND_UPDATE and r.txn_id in losers:
            _apply_image(store.disk, r.page_id, r.offset, r.before)
            undo += 1

    # -- logical replay: last committed catalog image per table -----------
    catalogs: dict[str, tuple[int, dict]] = {}
    for r in live:
        if r.kind == KIND_CATALOG and r.txn_id in committed:
            payload = json.loads(r.payload.decode("utf-8"))
            catalogs[payload["name"]] = (r.lsn, payload)
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

    rows_replayed = 0
    for r in live:
        if r.kind != KIND_ROWS or r.txn_id not in committed:
            continue
        payload = json.loads(r.payload.decode("utf-8"))
        name = payload["table"]
        catalog_record_lsn = catalogs.get(name, (0, None))[0]
        if r.lsn <= catalog_record_lsn:
            # The newer catalog image already folds these rows in (they
            # were in a pending buffer or a run when it was serialized).
            continue
        if not store.catalog.has(name):
            continue  # table dropped later in the log
        entry = store.catalog.entry(name)
        if entry.plan is None:
            continue
        rows = [tuple(v) for v in payload["rows"]]
        Table(store, entry)._add_pending(rows)
        rows_replayed += len(rows)

    summary = {
        "clean": False,
        "records_scanned": len(records),
        "committed_txns": len(committed),
        "loser_txns": len(losers),
        "pages_redone": redo,
        "pages_undone": undo,
        "catalog_images_applied": applied,
        "tables_dropped": dropped,
        "rows_replayed": rows_replayed,
    }
    # Fold the recovered state into the page file + catalog and truncate
    # the log; a crash *during* recovery simply replays from the same WAL.
    store.checkpoint()
    store.recoveries_run += 1
    return summary
