"""Convert an older engine's store: ``python -m repro.migrate PATH``.

``PATH`` is the page file; its catalog is ``PATH.catalog.json`` and its
log ``PATH.wal``. The engine reads only the current format (the catalog's
``version``, :data:`~repro.engine.persistence.FORMAT_VERSION`). Every
older generation it once read is known here alone, and the engine never
imports this module. A page file without checksum trailers is framed; the
log is rewritten record by record (``BEGIN`` and ``ABORT`` dropped,
``UPDATE`` turned into ``FRESH_PAGE``, each ``CATALOG`` payload upgraded,
LSNs renumbered without gaps); every catalog entry goes through
:func:`upgrade_entry`. The catalog is written at the current version with
its checksum, then the store is opened with the engine, which counts the
rows each tombstoned region hides (:func:`count_hidden`), and whose
recovery and checkpoint write the rest. Logs older than record checksums
are refused.
"""

from __future__ import annotations

import argparse
import json
import os
import zlib
from contextlib import contextmanager

from repro.algebra.interpreter import AlgebraInterpreter
from repro.engine.catalog import CatalogEntry
from repro.engine.database import RodentStore
from repro.engine.persistence import (
    CATALOG_CRC_KEY,
    FORMAT_VERSION,
    _catalog_crc,
    entry_to_dict,
    layout_to_dict,
)
from repro.engine.table import _scan_schema
from repro.errors import (
    CorruptCatalogError,
    CorruptWALError,
    StorageError,
    StoreFormatError,
    WALError,
)
from repro.layout.renderer import ColumnBatch, StoredLayout
from repro.storage import wal
from repro.storage.disk import DEFAULT_PAGE_SIZE, DiskManager
from repro.storage.integrity import (
    PAGE_TRAILER_SIZE,
    TRAILER,
    TRAILER_MAGIC,
    make_trailer,
)
from repro.storage.page import BytePage
from repro.storage.serializer import RecordSerializer
from repro.types.schema import Schema

#: The catalog versions of the stores earlier engines opened: 1 wrote no
#: record checksums into its page file or log, 2 counted a folded run's
#: records and no region's hidden rows.
OLDER_VERSIONS = (1, 2)

#: Record kinds of the in-place transaction protocol.
KIND_BEGIN, KIND_UPDATE, KIND_ABORT = 1, 2, 4
LEGACY_KINDS = (KIND_BEGIN, KIND_UPDATE, KIND_ABORT)


@contextmanager
def _replacing(path: str):
    """A file written beside ``path`` that replaces it, made durable, once
    the block completes."""
    with open(path + ".migrating", "wb") as f:
        yield f
        f.flush()
        os.fsync(f.fileno())
    os.replace(path + ".migrating", path)


def frame_pages(path: str, page_size: int) -> int:
    """Frame a page file written before per-page checksums (pages packed
    back to back); returns the pages framed, 0 for a framed file. When the
    size fits both, frame 0's trailer magic decides."""
    size, frame_size = os.path.getsize(path), page_size + PAGE_TRAILER_SIZE
    framed, packed = size % frame_size == 0, size % page_size == 0
    with open(path, "rb") as f:
        if framed and packed:
            f.seek(page_size)
            trailer = f.read(TRAILER.size)
            framed = len(trailer) == TRAILER.size and (
                TRAILER.unpack(trailer)[0] == TRAILER_MAGIC
            )
        if framed:
            return 0
        if not packed:
            raise StorageError(
                f"file size {size} matches neither the checksummed frame "
                f"size {frame_size} nor the legacy page size {page_size}"
            )
        f.seek(0)
        with _replacing(path) as out:
            for _ in range(size // page_size):
                page = f.read(page_size)
                out.write(page + make_trailer(page))
    return size // page_size


def decode_record(data: bytes, start: int) -> tuple[wal.LogRecord, int]:
    """Decode one record of an older engine's log: the current kinds as the
    engine does, ``BEGIN`` / ``ABORT`` / ``UPDATE`` checked the same way
    (shape, then CRC), an ``UPDATE`` as its page image alone. A whole
    record without the checksum flag is refused."""
    if start + wal._HEADER.size > len(data):
        raise WALError("truncated log header")
    total, kind_byte, lsn, txn_id = wal._HEADER.unpack_from(data, start)
    kind, flagged = kind_byte & 0x7F, kind_byte & wal.KIND_CRC_FLAG
    if flagged and kind not in LEGACY_KINDS:
        return wal.LogRecord.decode(data, start)
    end = start + total
    overhead = wal._HEADER.size + wal._TRAILER.size
    if total < overhead + (wal._CRC.size if flagged else 0) or end > len(data):
        raise WALError("truncated log record")
    if wal._TRAILER.unpack_from(data, end - wal._TRAILER.size)[0] != total:
        raise WALError("torn log record (trailer mismatch)")
    if not flagged:
        raise StoreFormatError(
            f"the log record at byte {start} has no checksum: logs written "
            "before record checksums are not converted"
        )
    payload_end = end - wal._TRAILER.size - wal._CRC.size
    (stored,) = wal._CRC.unpack_from(data, payload_end)
    if zlib.crc32(data[start:payload_end]) != stored:
        raise CorruptWALError(f"WAL record checksum mismatch at byte {start}")
    record = wal.LogRecord(kind, lsn, txn_id)
    if kind == KIND_UPDATE:
        meta = start + wal._HEADER.size
        if meta + wal._UPDATE_META.size > payload_end:
            raise WALError("truncated update metadata")
        page_id, offset, size = wal._UPDATE_META.unpack_from(data, meta)
        after = meta + wal._UPDATE_META.size + size  # past the replaced bytes
        if after + size > payload_end:
            raise WALError("truncated update images")
        record.page_id, record.offset = page_id, offset
        record.after = data[after : after + size]
    return record, end


def rewrite_log(wal_path: str, disk: DiskManager) -> dict:
    """Rewrite the log in the current record format. Damage is judged as
    the engine judges it: a torn tail ends the log; undecodable bytes with
    records after them, a CRC mismatch or an LSN gap raise
    :class:`~repro.errors.CorruptWALError`. A byte-range ``UPDATE`` becomes
    the whole page it leaves, and a ``CATALOG`` payload reads its folded
    runs' pages as the log has left them at that record."""
    with open(wal_path, "rb") as f:
        data = f.read()
    images: dict[int, bytes] = {}

    def page(page_id: int) -> bytes:
        if page_id in images:
            return images[page_id]
        if page_id < disk.num_pages:
            return bytes(disk.read_page_unchecked(page_id))
        return bytes(disk.page_size)

    summary = {"records_read": 0, "records_written": 0, "checkpointed": False}
    at = prev = 0
    with _replacing(wal_path) as out:
        while at < len(data):
            try:
                record, end = decode_record(data, at)
            except CorruptWALError:
                raise
            except WALError:
                if wal._resync_offset(data, at) is None:
                    break  # a torn tail, which recovery discards too
                raise CorruptWALError(
                    f"mid-log corruption at byte {at}: valid records follow "
                    "an undecodable region"
                ) from None
            if prev and record.lsn != prev + 1:
                raise CorruptWALError(
                    f"WAL LSN gap: record {record.lsn} follows {prev}"
                )
            at, prev = end, record.lsn
            summary["records_read"] += 1
            if record.kind in (KIND_BEGIN, KIND_ABORT):
                continue
            if record.kind == KIND_UPDATE:
                image = bytearray(page(record.page_id))
                image[record.offset : record.offset + len(record.after)] = (
                    record.after
                )
                record.kind, record.offset = wal.KIND_FRESH_PAGE, 0
                record.after = bytes(image)
            if record.kind == wal.KIND_FRESH_PAGE:
                images[record.page_id] = record.after
            elif record.kind == wal.KIND_CATALOG:
                entry = upgrade_entry(json.loads(record.payload), page)
                record.payload = json.dumps(entry).encode()
            summary["checkpointed"] |= record.kind == wal.KIND_CHECKPOINT
            summary["records_written"] += 1
            record.lsn = summary["records_written"]
            out.write(record.encode())
    return summary


def upgrade_entry(t: dict, read_page) -> dict:
    """One table's catalog entry (the catalog file's or a ``CATALOG``
    record's) in the current spelling, in place: each region's runs under
    ``runs`` — a ``layout`` / ``overflow`` region's first run under its
    design, its flushes row-major over the stored fields — columnar zone
    maps, every key the engine reads, and each folded run's
    ``folded_keys`` and un-nested ``row_count``, read from its records'
    headers (``read_page`` returns a page's bytes). Regions' ``hidden``
    counts are left to :func:`count_hidden`. A current entry is left as it
    is."""
    if t.get("dropped"):
        return t
    schema = Schema.of(*t["schema"])
    interpreter = AlgebraInterpreter({t["name"]: schema})
    plan = interpreter.compile(t["expr"]) if t["expr"] is not None else None
    t.setdefault("loaded", bool(
        (plan is not None and plan.levels is not None)
        or t.get("partitions_loaded")
        or t.get("layout")
    ))
    t.pop("partitions_loaded", None)
    names = (_scan_schema(plan) if plan else schema).names()
    flushes = f"project[{', '.join(names)}]({t['name']})"
    regions = [t, *t.setdefault("partitions", [])]
    for region in regions:
        design = region.get("expr") if region is not t else (
            plan and plan.region_template.expr.to_text()
        )
        first = region.pop("layout", None)
        legacy = [{"layout": first}] if first else []
        legacy += [
            {"expr": flushes, "layout": layout}
            for layout in region.pop("overflow", None) or []
        ]
        runs = []
        for r in region.get("runs", []) + legacy:
            run = {"rid": 0, "level": 0, "min_seq": 0, "max_seq": 0,
                   "expr": design, **r, **r.get("layout", {})}
            run.pop("layout", None)
            _upgrade_layout(run, interpreter.compile(run["expr"]), read_page)
            runs.append(run)
        region["runs"] = runs
        if region is not t:
            for key in ("key", "lower", "upper"):
                region.setdefault(key, None)
            region.setdefault("pending", [])
    every = [run for region in regions for run in region["runs"]]
    t.setdefault("next_partition_id", 1 + max(
        (r["pid"] for r in t["partitions"]), default=-1
    ))
    t.setdefault("next_run_id", 1 + max((r["rid"] for r in every), default=-1))
    # Earlier writers left a flat table's at 0: a tombstone must be newer
    # than every run it hits.
    t["next_run_seq"] = max(t.get("next_run_seq", 0), 1 + max(
        (r["max_seq"] for r in every), default=-1
    ))
    for key, value in entry_to_dict(CatalogEntry(t["name"], schema)).items():
        t.setdefault(key, value)
    return t


def _upgrade_layout(layout: dict, plan, read_page) -> None:
    """Fill a layout's keys, convert its zone maps, and key and count its
    folded records; ``plan`` is the layout's design."""
    for key, value in layout_to_dict(StoredLayout(plan, 0)).items():
        layout.setdefault(key, value)
    if layout["synopsis"] is not None:
        upgrade_synopsis(layout["synopsis"])
    for sub, sub_plan in zip(layout["mirrors"], plan.mirror_plans):
        _upgrade_layout(sub, sub_plan, read_page)
    directory = layout["folded_directory"]
    if not directory:
        return
    stream = b"".join(
        BytePage(len(data), bytearray(data)).read()
        for data in map(read_page, layout["extent"])
    )
    serializer = RecordSerializer(plan.schema.project(plan.group_fields))
    keys, rows = [], 0
    for offset, length in directory:
        record = stream[offset : offset + length]  # key, then row count
        key = serializer.decode(record)
        end = serializer.encoded_size(key)
        keys.append(list(key))
        rows += int.from_bytes(record[end : end + 4], "little")
    layout["folded_keys"], layout["row_count"] = keys, rows


def upgrade_synopsis(synopsis: dict) -> dict:
    """A layout's zone maps in the columnar shape, in place. A zone map of
    the per-zone shape — one ``{"rows", "fields": {name: [min, max, nulls,
    distinct]}}`` per zone — becomes one list per field, where a field a
    zone lacks reads as unknown bounds, which never prune."""

    def columnar(zones: dict | list) -> dict:
        if isinstance(zones, dict):
            return zones
        names = dict.fromkeys(n for zone in zones for n in zone["fields"])
        return {
            "rows": [zone["rows"] for zone in zones],
            "fields": {
                name: [
                    [zone["fields"].get(name, (None, None, 0))[part]
                     for zone in zones]
                    for part in range(3)
                ]
                for name in names
            },
        }

    for key in ("page_zones", "cell_zones", "folded_zones"):
        synopsis[key] = columnar(synopsis.get(key, []))
    synopsis["group_zones"] = [
        columnar(zones) for zones in synopsis.get("group_zones", [])
    ]
    return synopsis


def _read_catalog(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    stored = payload.pop(CATALOG_CRC_KEY, None)  # none before checksums
    if stored is not None and stored != _catalog_crc(payload):
        raise CorruptCatalogError(f"catalog file {path} fails its checksum")
    if payload.get("version") not in (*OLDER_VERSIONS, FORMAT_VERSION):
        raise StoreFormatError(f"catalog file {path} has an unknown version")
    return payload


def migrate(path: str, page_size: int = DEFAULT_PAGE_SIZE) -> dict:
    """Convert the store at ``path`` in place; returns what was done.

    ``page_size`` is the catalog's when there is one. A store with a log
    and no catalog (an older one that never checkpointed) gets an empty
    catalog, so recovery replays its whole log.
    """
    catalog_path, wal_path = path + ".catalog.json", path + ".wal"
    payload = None
    if os.path.exists(catalog_path):
        payload = _read_catalog(catalog_path)
        if payload["version"] == FORMAT_VERSION:
            return {"converted": False}
        page_size = payload["page_size"]
    summary: dict = {"converted": True, "pages_framed": 0}
    if os.path.exists(path):
        summary["pages_framed"] = frame_pages(path, page_size)
    durable = os.path.exists(wal_path)
    with DiskManager(path, page_size=page_size) as disk:
        if durable:
            summary["log"] = rewrite_log(wal_path, disk)
            tmp_path = catalog_path + ".tmp"
            if os.path.exists(tmp_path):
                # As recovery resolves it: the real catalog only when its
                # CHECKPOINT record reached the log.
                if summary["log"]["checkpointed"]:
                    os.replace(tmp_path, catalog_path)
                    payload = _read_catalog(catalog_path)
                else:
                    os.remove(tmp_path)
            payload = payload or {"page_size": page_size, "tables": []}
        if payload is None:
            return summary
        for t in payload["tables"]:
            upgrade_entry(t, disk.read_page)
    payload["version"] = FORMAT_VERSION
    payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
    with _replacing(catalog_path) as f:
        f.write(json.dumps(payload, indent=1).encode())
    if durable:
        store = RodentStore(path, page_size=page_size, durable=True)
        summary["recovery"] = store.recovery_summary
    else:
        store = RodentStore.open(path, catalog_path, page_size=page_size)
    try:
        summary["regions_counted"] = count_hidden(store)
        if not durable:  # a durable store's close checkpoints the counts
            store.save_catalog(catalog_path + ".migrating")
            os.replace(catalog_path + ".migrating", catalog_path)
    finally:
        store.close()
    return summary


def count_hidden(store: RodentStore) -> int:
    """Set the ``hidden`` count of every region holding tombstones: the
    run rows its pages hold less those the engine's resolving scan of it
    keeps. Both come from the pages, not from the catalog's run counts, so
    a count the pages do not hold is left for ``scrub()`` to report.
    Returns the regions counted."""
    counted = 0
    for name in store.tables():
        table = store.table(name)
        names = table.scan_schema().names()
        for region in table.partitions:
            if not region.level_tombstones:
                continue
            pending = table._resolver(region, names).resolve_pending(
                ColumnBatch.from_columns(tuple(names), region.pending.columns())
            )
            batches, _ = table._region_batches(region, None, None, names)
            runs = sum(batch.n_rows for batch in batches) - len(region.pending)
            live = len(table._region_rows(region)) - len(pending)  # in runs
            region.hidden = runs - live
            counted += 1
    return counted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.migrate", description=__doc__.splitlines()[0]
    )
    parser.add_argument("path", help="the store's page file")
    parser.add_argument(
        "--page-size", type=int, default=DEFAULT_PAGE_SIZE,
        help="the page size of a store with no catalog",
    )
    args = parser.parse_args(argv)
    print(json.dumps(migrate(args.path, args.page_size), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
