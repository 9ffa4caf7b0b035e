"""``python -m repro.migrate``: stores of older engines become current.

The engine reads one on-disk format; ``tests/test_crash_matrix.py`` holds
the parent-written fixture's cases and the other modules the legacy case
of their own structure (page frames, log records, zone maps, run
spelling). Here: stores the previous engine wrote — the same files but
for the catalog's version — and what the migrator computes itself.
"""

import json
import os
import shutil
import struct

import pytest

from repro.engine.database import RodentStore
from repro.engine.persistence import CATALOG_CRC_KEY, _catalog_crc
from repro.errors import CorruptCatalogError, StoreFormatError
from repro.migrate import main, migrate
from repro.query.expressions import Range
from repro.storage import wal as wal_module
from repro.storage.wal import KIND_CATALOG, LogRecord
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")
ROWS = [(i, (i * 37) % 11) for i in range(300)]
LAYOUTS = {
    "Flat": "columns(Flat)",
    "Part": "partition[id; range, 100](Part)",
    "Lev": "levels[2; 2](rows(Lev))",
    "Nest": "compress[varint; id](fold[id; val](Nest))",
}


def open_store(path):
    return RodentStore(
        path, page_size=1024, pool_capacity=32, durable=True,
        level_seal_rows=32,
    )


def abandon(store):
    """Power loss after everything reached the medium: no checkpoint."""
    store.wal.sync()
    store.pool.flush_all()
    store.disk.fsync()
    store.wal.close()
    store.disk.close()


def written_store(path):
    """Every table shape, loaded, then written to after the checkpoint (an
    update, a delete, inserts, a flush): the log holds that much. Returns
    what each table answers."""
    store = open_store(path)
    for name, layout in LAYOUTS.items():
        store.create_table(name, SCHEMA, layout=layout)
        store.load(name, ROWS)
    store.checkpoint()
    for name in LAYOUTS:
        table = store.table(name)
        table.update({"val": 99}, Range("id", 10, 19))
        table.delete(Range("id", 40, 44))
        table.insert([(1000 + i, i % 11) for i in range(40)])
        table.flush_inserts()
        table.insert([(2000, 1)])
    want = {name: sorted(store.table(name).scan()) for name in LAYOUTS}
    abandon(store)
    return want


def edit_catalog(path, edit):
    """Apply ``edit`` to the catalog payload and write it back under a
    fresh checksum."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    del payload[CATALOG_CRC_KEY]
    edit(payload)
    payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def previous_version(payload):
    payload["version"] = 1


def as_version_2(entry):
    """A catalog entry as a version-2 engine wrote it: a folded run counts
    its records, and no region counts the rows its tombstones hide."""
    for region in [entry, *entry["partitions"]]:
        region.pop("hidden", None)
        for run in region["runs"]:
            if run["folded_directory"]:
                run["row_count"] = len(run["folded_directory"])


def stored_counts(store):
    """Per table, each region's run row counts and hidden count."""
    return {
        name: [
            ([run.row_count for run in region.runs], region.hidden)
            for region in store.table(name).partitions
        ]
        for name in LAYOUTS
    }


def assert_scrubs_clean(store):
    """``scrub()`` finds nothing: every region's scan returns its stored
    row count, the folded table's too."""
    report = store.scrub()
    assert report["row_count_mismatches"] == []
    assert report["pages_failed"] == 0 and report["wal_ok"]
    assert report["catalog_ok"] and not report["synopsis_mismatches"]
    assert not report["partition_mismatches"] and not report["unrepairable"]
    assert not report["free_and_referenced"]


def read_log(path):
    with open(path, "rb") as f:
        data = f.read()
    records, at = [], 0
    while at < len(data):
        record, at = LogRecord.decode(data, at)
        records.append(record)
    return records


def test_a_store_of_the_previous_version_migrates_and_answers_alike(tmp_path):
    """A store the previous engine wrote has this engine's page file and
    log; only its catalog says version 1. It is refused until migrated,
    then answers every scan as before and scrubs clean."""
    path = str(tmp_path / "db")
    want = written_store(path)
    edit_catalog(path + ".catalog.json", previous_version)
    with pytest.raises(StoreFormatError, match="run: python -m repro.migrate"):
        open_store(path)
    summary = migrate(path)
    assert summary["recovery"]["clean"] is False
    store = open_store(path)
    assert {name: sorted(store.table(name).scan()) for name in LAYOUTS} == want
    assert_scrubs_clean(store)
    store.close()


@pytest.mark.parametrize("checkpointed", [False, True])
def test_a_version_2_store_migrates_and_answers_alike(tmp_path, checkpointed):
    """A version-2 store — its tombstones only in the log, or checkpointed
    into its catalog — is refused, then migrates: each folded run counts
    its rows from its record headers, each tombstoned region the rows it
    hides by one resolving scan: the counts this engine keeps for the same
    store. Every table answers as before, its stored count equal to its
    rows, and scrubs clean."""
    path = str(tmp_path / "db")
    want = written_store(path)
    if checkpointed:
        open_store(path).close()
    (tmp_path / "ref").mkdir()
    for name in os.listdir(tmp_path):
        if name.startswith("db"):
            shutil.copy(tmp_path / name, tmp_path / "ref" / name)
    reference = open_store(str(tmp_path / "ref" / "db"))
    counts = stored_counts(reference)
    reference.close()

    def downgrade(payload):
        payload["version"] = 2
        for entry in payload["tables"]:
            as_version_2(entry)

    edit_catalog(path + ".catalog.json", downgrade)
    records = read_log(path + ".wal")
    for record in records:
        if record.kind == KIND_CATALOG:
            entry = json.loads(record.payload)
            as_version_2(entry)
            record.payload = json.dumps(entry).encode()
    assert any(r.kind == KIND_CATALOG for r in records) != checkpointed
    with open(path + ".wal", "wb") as f:
        f.write(b"".join(record.encode() for record in records))
    with pytest.raises(StoreFormatError, match="not a version 3 store"):
        open_store(path)

    assert migrate(path)["regions_counted"] >= 3
    store = open_store(path)
    assert stored_counts(store) == counts
    for name in LAYOUTS:
        table = store.table(name)
        assert sorted(table.scan()) == want[name]
        assert table.row_count == table.estimated_row_count() == len(want[name])
    assert store.storage_stats()["tables"]["Nest"]["tombstones"] > 0
    assert_scrubs_clean(store)
    store.close()


def test_a_count_the_pages_do_not_hold_survives_migration(tmp_path):
    """``hidden`` is counted from the pages, not from the catalog's run
    counts: a version-2 run that claims a row more than its pages hold
    still does once migrated, and ``scrub()`` reports it."""
    path = str(tmp_path / "db")
    store = open_store(path)
    store.create_table("T", SCHEMA, layout="rows(T)")
    assert store.load("T", ROWS).delete(Range("id", 3, 3)) == 1
    store.close()

    def claim_a_row(payload):
        payload["version"] = 2
        payload["tables"][0]["runs"][0]["row_count"] += 1

    edit_catalog(path + ".catalog.json", claim_a_row)
    assert migrate(path)["regions_counted"] == 1
    store = open_store(path)
    assert store.table("T").partitions[0].hidden == 1
    report = store.scrub()
    assert report["row_count_mismatches"] == [
        {"table": "T", "pid": 0, "stored": 300, "scanned": 299}
    ]
    store.close()


def test_a_store_that_never_checkpointed_migrates(tmp_path):
    """The previous engine wrote no catalog until its first checkpoint: a
    log with no catalog beside it is refused, and migrated it replays
    whole."""
    path = str(tmp_path / "db")
    store = open_store(path)
    store.create_table("T", SCHEMA, layout="columns(T)")
    store.load("T", ROWS)
    store.table("T").insert([(5000, 5)])
    abandon(store)
    os.remove(path + ".catalog.json")
    with pytest.raises(StoreFormatError, match="no catalog"):
        open_store(path)
    migrate(path, page_size=1024)
    store = open_store(path)
    assert sorted(store.table("T").scan()) == sorted(ROWS + [(5000, 5)])
    store.close()


def test_migrating_twice_is_a_no_op(tmp_path):
    path = str(tmp_path / "db")
    written_store(path)
    edit_catalog(path + ".catalog.json", previous_version)
    assert migrate(path)["converted"] is True
    files = sorted(name for name in os.listdir(tmp_path))
    before = {name: (tmp_path / name).read_bytes() for name in files}
    assert migrate(path) == {"converted": False}
    assert {name: (tmp_path / name).read_bytes() for name in files} == before
    assert sorted(os.listdir(tmp_path)) == files


def _folded_keys(payload):
    (table,) = payload["tables"] if "tables" in payload else [payload]
    return [run["folded_keys"] for run in table["runs"]]


def test_folded_keys_are_computed_from_the_record_headers(tmp_path, capsys):
    """A folded run without ``folded_keys`` — a catalog written before
    they were — gets the ones the renderer wrote, read back from its
    records' key headers: from the page file for the catalog's runs, and
    from the log's own page images for a logged catalog image's."""
    path = str(tmp_path / "db")
    store = open_store(path)
    store.create_table("Nest", SCHEMA, layout=LAYOUTS["Nest"])
    store.load("Nest", ROWS)
    store.checkpoint()
    store.table("Nest").insert([(9000 + i, 20 + i) for i in range(40)])
    store.table("Nest").flush_inserts()  # a second folded run, only logged
    want = sorted(store.table("Nest").scan())
    abandon(store)

    catalog, log = path + ".catalog.json", path + ".wal"
    with open(catalog, encoding="utf-8") as f:
        written = _folded_keys(json.load(f))
    assert written[0] and len(written) == 1

    def strip(payload):
        previous_version(payload)
        for run in payload["tables"][0]["runs"]:
            del run["folded_keys"]

    edit_catalog(catalog, strip)
    records, logged = read_log(log), None
    for record in records:
        if record.kind == KIND_CATALOG:
            image = json.loads(record.payload)
            logged = _folded_keys(image)
            for run in image["runs"]:
                del run["folded_keys"]
            record.payload = json.dumps(image).encode()
    assert logged is not None and len(logged) == 2
    with open(log, "wb") as f:
        f.write(b"".join(record.encode() for record in records))

    assert main([path]) == 0
    assert json.loads(capsys.readouterr().out)["converted"] is True
    with open(catalog, encoding="utf-8") as f:
        assert _folded_keys(json.load(f)) == logged
    store = open_store(path)
    assert sorted(store.table("Nest").scan()) == want
    assert_scrubs_clean(store)
    store.close()


def test_a_log_without_record_checksums_is_refused(tmp_path):
    """Records written before record checksums are not converted: the
    migrator says so rather than replay what it cannot verify."""
    path = str(tmp_path / "db")
    store = open_store(path)
    store.create_table("T", SCHEMA)
    store.close()
    edit_catalog(path + ".catalog.json", previous_version)
    header = wal_module._HEADER.pack(wal_module._HEADER.size + 4, 3, 1, 1)
    with open(path + ".wal", "wb") as f:
        f.write(header + struct.pack("<I", len(header) + 4))
    with pytest.raises(StoreFormatError, match="no checksum"):
        migrate(path)


def _open_files(prefix):
    fds = "/proc/self/fd"
    names = set()
    for fd in os.listdir(fds):
        try:
            names.add(os.readlink(os.path.join(fds, fd)))
        except OSError:
            continue  # closed since the listing
    return {name for name in names if name.startswith(prefix)}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
def test_a_refused_store_keeps_no_file_open(tmp_path):
    """An open refused before the log is read (another format) or while
    recovery restores the catalog (a folded run without its keys) closes
    every file it opened."""
    path = str(tmp_path / "db")
    written_store(path)
    edit_catalog(path + ".catalog.json", previous_version)
    with pytest.raises(StoreFormatError):
        open_store(path)
    assert not _open_files(str(tmp_path))
    migrate(path)

    def drop_keys(payload):
        (nest,) = [t for t in payload["tables"] if t["name"] == "Nest"]
        nest["runs"][0]["folded_keys"] = []

    edit_catalog(path + ".catalog.json", drop_keys)
    with pytest.raises(CorruptCatalogError):
        open_store(path)
    assert not _open_files(str(tmp_path))
