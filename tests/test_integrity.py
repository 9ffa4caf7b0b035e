"""End-to-end data integrity: checksums, fault injection, repair, scrub."""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.engine.database import RodentStore
from repro.engine.persistence import CATALOG_CRC_KEY, _catalog_crc
from repro.errors import (
    CorruptCatalogError,
    CorruptPageError,
    CorruptWALError,
    StorageError,
    StoreFormatError,
)
from repro.migrate import migrate
from repro.query.expressions import Range
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector, IoFault, IoFaultInjector
from repro.storage.integrity import (
    PAGE_TRAILER_SIZE,
    TRAILER_MAGIC,
    checksum,
    make_trailer,
    verify_frame,
)
from repro.storage.wal import KIND_ROWS, WriteAheadLog
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")


def make_store(tmp_path, name="db", **kw):
    kw.setdefault("page_size", 1024)
    kw.setdefault("pool_capacity", 64)
    kw.setdefault("durable", True)
    return RodentStore(str(tmp_path / name), **kw)


def flip_byte(path, offset, mask=0x01):
    with open(path, "r+b") as f:
        f.seek(offset)
        b = f.read(1)
        f.seek(offset)
        f.write(bytes([b[0] ^ mask]))


# ---------------------------------------------------------------------------
# frame trailer primitives
# ---------------------------------------------------------------------------


class TestTrailer:
    def test_roundtrip(self):
        data = bytes(range(256)) * 4
        frame = data + make_trailer(data)
        ok, reason = verify_frame(frame, len(data))
        assert ok and not reason

    def test_short_frame(self):
        data = b"x" * 128
        frame = (data + make_trailer(data))[:-1]
        ok, reason = verify_frame(frame, 128)
        assert not ok and "short" in reason

    def test_bad_magic(self):
        data = b"y" * 128
        trailer = struct.pack("<IIII", TRAILER_MAGIC ^ 1, 1, checksum(data), 0)
        ok, reason = verify_frame(data + trailer, 128)
        assert not ok and "magic" in reason

    def test_bad_version(self):
        data = b"z" * 128
        trailer = struct.pack("<IIII", TRAILER_MAGIC, 99, checksum(data), 0)
        ok, reason = verify_frame(data + trailer, 128)
        assert not ok and "version" in reason

    def test_crc_mismatch(self):
        data = bytearray(b"w" * 128)
        frame = bytes(data) + make_trailer(bytes(data))
        data[5] ^= 0x10
        ok, reason = verify_frame(bytes(data) + frame[128:], 128)
        assert not ok and "checksum" in reason


# ---------------------------------------------------------------------------
# DiskManager: checksummed frames, faults, double free, fsync on close
# ---------------------------------------------------------------------------


class TestDiskIntegrity:
    def test_frame_layout_on_disk(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"a" * 512)
        disk.fsync()
        size = os.path.getsize(path)
        assert size == 512 + PAGE_TRAILER_SIZE
        frame = open(path, "rb").read()
        ok, _ = verify_frame(frame, 512)
        assert ok
        disk.close()

    def test_bitflip_detected_and_quarantined(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"a" * 512)
        disk.fsync()
        flip_byte(path, 10)
        with pytest.raises(CorruptPageError) as err:
            disk.read_page(pid)
        assert err.value.page_id == pid
        assert pid in disk.integrity.quarantined
        assert disk.integrity.page_failures == 1
        disk.close()

    def test_short_read_is_corruption(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"b" * 512)
        disk.fsync()
        with open(path, "r+b") as f:
            f.truncate(100)  # tear the frame mid-write
        with pytest.raises(CorruptPageError) as err:
            disk.read_page(pid)
        assert "short" in err.value.reason
        disk.close()

    def test_unchecked_read_allows_torn_frames(self, tmp_path):
        # Recovery replays WAL images over possibly-torn pages; the
        # unchecked path must not raise on them.
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"c" * 512)
        disk.fsync()
        flip_byte(path, 10)
        data = disk.read_page_unchecked(pid)
        assert len(data) == 512
        disk.close()

    def test_double_free_guard(self, tmp_path):
        disk = DiskManager(page_size=512)
        pid = disk.allocate_page()
        disk.free_page(pid)
        with pytest.raises(StorageError, match="double free"):
            disk.free_page(pid)
        # reallocation clears the guard
        again = disk.allocate_page()
        assert again == pid
        disk.free_page(again)

    def test_transient_eio_retried(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"d" * 512)
        disk.fsync()
        disk.io_faults = IoFaultInjector(IoFault("eio", target="page", count=2))
        assert bytes(disk.read_page(pid)) == b"d" * 512
        assert disk.integrity.transient_retries == 2

    def test_persistent_eio_fails(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path, max_read_retries=2)
        pid = disk.allocate_page()
        disk.write_page(pid, b"e" * 512)
        disk.fsync()
        disk.io_faults = IoFaultInjector(IoFault("eio", target="page", count=99))
        with pytest.raises(StorageError):
            disk.read_page(pid)

    def test_inflight_bitflip_healed_by_reread(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"f" * 512)
        disk.fsync()
        disk.io_faults = IoFaultInjector(IoFault("bitflip", target="page", count=1))
        assert bytes(disk.read_page(pid)) == b"f" * 512
        assert disk.integrity.reread_recoveries == 1
        assert disk.integrity.page_failures == 0

    def test_enospc_on_write(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.io_faults = IoFaultInjector(IoFault("enospc", target="page"))
        with pytest.raises(StorageError, match="ENOSPC"):
            disk.write_page(pid, b"g" * 512)

    def test_lost_write_leaves_old_data(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"h" * 512)
        disk.fsync()
        disk.io_faults = IoFaultInjector(IoFault("stale", target="page"))
        disk.write_page(pid, b"i" * 512)  # silently dropped by the device
        disk.fsync()
        # The stale page is checksum-valid (it is a real old page): the
        # injector log is the ground truth that the write was lost.
        assert ("write", "page", "stale", pid) in disk.io_faults.log
        assert bytes(disk.read_page(pid)) == b"h" * 512

    def test_close_fsyncs_file_backend(self, tmp_path, monkeypatch):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"j" * 512)
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        disk.close()
        assert calls, "close() must fsync an open file backend"

    def test_close_skips_fsync_under_fsync_fault(self, tmp_path, monkeypatch):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        disk.faults = FaultInjector(crash_after=1 << 62, fail_fsync=True)
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        disk.close()
        assert not calls

    def test_checksums_off_skips_verification(self, tmp_path):
        path = str(tmp_path / "p.pages")
        disk = DiskManager(page_size=512, path=path)
        pid = disk.allocate_page()
        disk.write_page(pid, b"k" * 512)
        disk.fsync()
        flip_byte(path, 10)
        disk.close()
        reopened = DiskManager(page_size=512, path=path, verify_checksums=False)
        data = reopened.read_page(pid)  # no raise
        assert len(data) == 512
        reopened.close()


class TestLegacyMigration:
    """Page files without checksum trailers: the engine refuses them,
    ``python -m repro.migrate`` frames them."""

    def test_trailerless_file_migrated_in_place(self, tmp_path):
        path = str(tmp_path / "p.pages")
        pages = [bytes([i]) * 512 for i in range(4)]
        with open(path, "wb") as f:
            f.write(b"".join(pages))
        with pytest.raises(StorageError, match="frame size"):
            DiskManager(page_size=512, path=path)
        assert migrate(path, page_size=512)["pages_framed"] == 4
        disk = DiskManager(page_size=512, path=path)
        for i, page in enumerate(pages):
            assert bytes(disk.read_page(i)) == page
        disk.close()
        assert os.path.getsize(path) == 4 * (512 + PAGE_TRAILER_SIZE)
        # second run: already framed, no re-migration
        assert migrate(path, page_size=512)["pages_framed"] == 0

    def test_unrecognized_size_rejected(self, tmp_path):
        path = str(tmp_path / "p.pages")
        with open(path, "wb") as f:
            f.write(b"x" * 777)
        with pytest.raises(StorageError, match="frame size"):
            DiskManager(page_size=512, path=path)
        with pytest.raises(StorageError, match="neither"):
            migrate(path, page_size=512)


# ---------------------------------------------------------------------------
# WAL record checksums
# ---------------------------------------------------------------------------


class TestWALIntegrity:
    def _wal_with_records(self, tmp_path, n=8, name="w.wal"):
        wal = WriteAheadLog(str(tmp_path / name))
        for i in range(n):
            wal.append(KIND_ROWS, txn_id=1, payload=bytes([i]) * 40)
        wal.sync()
        return wal

    def test_roundtrip(self, tmp_path):
        wal = self._wal_with_records(tmp_path)
        recs = list(wal.records())
        assert len(recs) == 8
        assert [r.lsn for r in recs] == list(range(1, 9))
        wal.close()

    def test_midlog_flip_detected(self, tmp_path):
        wal = self._wal_with_records(tmp_path)
        path = wal.path
        wal.close()
        flip_byte(path, 30)  # inside the first record's payload
        # Detected already at open (the LSN recount walks the log)...
        with pytest.raises(CorruptWALError):
            WriteAheadLog(path)
        # ...and by records() on a handle opened before the rot set in.
        wal = self._wal_with_records(tmp_path, name="w2.wal")
        flip_byte(wal.path, 30)
        with pytest.raises(CorruptWALError):
            list(wal.records())
        wal.close()

    def test_torn_tail_still_tolerated(self, tmp_path):
        wal = self._wal_with_records(tmp_path)
        path = wal.path
        size = os.path.getsize(path)
        wal.close()
        with open(path, "r+b") as f:
            f.truncate(size - 7)
        wal = WriteAheadLog(path)
        recs = list(wal.records())  # no raise: last record simply dropped
        assert len(recs) == 7
        wal.close()

    def test_lost_append_detected_as_lsn_gap(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        wal.append(KIND_ROWS, txn_id=1, payload=b"a" * 16)
        wal.io_faults = IoFaultInjector(IoFault("stale", target="wal", count=1))
        wal.append(KIND_ROWS, txn_id=1, payload=b"b" * 16)  # dropped
        wal.append(KIND_ROWS, txn_id=1, payload=b"c" * 16)
        wal.sync()
        with pytest.raises(CorruptWALError, match="gap"):
            list(wal.records())
        wal.close()

    def test_wal_read_eio_retried(self, tmp_path):
        wal = self._wal_with_records(tmp_path)
        wal.io_faults = IoFaultInjector(IoFault("eio", target="wal", count=1))
        assert len(list(wal.records())) == 8
        wal.close()


# ---------------------------------------------------------------------------
# catalog checksum
# ---------------------------------------------------------------------------


class TestCatalogIntegrity:
    def _persisted(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i * 3) for i in range(80)])
        store.checkpoint()
        store.close()
        return str(tmp_path / "db.catalog.json")

    def test_tampered_catalog_rejected(self, tmp_path):
        cat = self._persisted(tmp_path)
        text = open(cat).read()
        open(cat, "w").write(text.replace('"val"', '"vol"', 1))
        with pytest.raises(CorruptCatalogError, match="checksum"):
            make_store(tmp_path)

    def test_truncated_catalog_rejected(self, tmp_path):
        cat = self._persisted(tmp_path)
        text = open(cat).read()
        open(cat, "w").write(text[: len(text) // 2])
        with pytest.raises(CorruptCatalogError):
            make_store(tmp_path)

    def test_legacy_catalog_without_crc_accepted(self, tmp_path):
        """A catalog without a checksum is corrupt to the engine. One
        written before the integrity layer (version 1) is an old store's:
        the engine names the migrator, which accepts it."""
        cat = self._persisted(tmp_path)
        payload = json.load(open(cat))
        payload.pop("crc32")
        json.dump(payload, open(cat, "w"))
        with pytest.raises(CorruptCatalogError, match="no checksum"):
            make_store(tmp_path)
        payload["version"] = 1
        json.dump(payload, open(cat, "w"))
        with pytest.raises(StoreFormatError, match="python -m repro.migrate"):
            make_store(tmp_path)
        migrate(str(tmp_path / "db"))
        store = make_store(tmp_path)
        assert len(list(store.table("T").scan())) == 80
        assert store.scrub()["clean"]
        store.close()

    def test_crc_refreshed_on_save(self, tmp_path):
        cat = self._persisted(tmp_path)
        first = json.load(open(cat))["crc32"]
        store = make_store(tmp_path)
        store.create_table("U", SCHEMA)
        store.checkpoint()
        store.close()
        second = json.load(open(cat))["crc32"]
        assert first != second
        make_store(tmp_path).close()  # still loads


# ---------------------------------------------------------------------------
# repair ladder, degraded reads, scrub (engine level)
# ---------------------------------------------------------------------------


def _corrupt_first_table_page(store, path):
    """Flip a byte inside the first page referenced by table T."""
    entry = store.catalog.entry("T")
    layouts = [run.layout for run in entry.runs()]
    pid = min(min(l.page_ids()) for l in layouts if l.page_ids())
    frame_size = store.disk.frame_size
    flip_byte(path, pid * frame_size + 20)
    return pid


class TestRepairAndDegradedReads:
    def test_repair_from_wal_after_image(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i * 2) for i in range(300)])
        store.pool.flush_all()
        store.wal.sync()
        path = str(tmp_path / "db")
        store.pool.clear()
        pid = _corrupt_first_table_page(store, path)
        rows = sorted(store.table("T").scan())
        assert rows == [(i, i * 2) for i in range(300)]
        assert store.integrity.page_repairs == 1
        assert pid not in store.integrity.quarantined
        # repaired page was rewritten: cold read is clean again
        store.pool.clear()
        store.disk.read_page(pid)
        store.close()

    def _recycled_ids_under_an_index(self, tmp_path):
        """A rows table whose logged run pages were freed and then taken by
        B-tree nodes, which are never logged: ``(store, node page ids,
        current run page ids)``."""
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="rows(T)")
        rows = [(i, i * 2) for i in range(300)]
        store.load("T", rows)
        store.checkpoint()
        logged = set(store.load("T", rows).layout.page_ids())
        store.load("T", rows)  # frees the pages just logged
        store.table("T").create_index("id")
        store.pool.flush_all()
        run_pages = store._referenced_pages()
        nodes = (
            set(range(store.disk.num_pages))
            - run_pages
            - store.disk.free_page_ids()
        )
        assert nodes & logged  # a node sits on a page id the WAL has an image of
        return store, sorted(nodes & logged), sorted(run_pages)

    def test_index_node_is_not_repaired_from_a_previous_tenant(self, tmp_path):
        store, nodes, _ = self._recycled_ids_under_an_index(tmp_path)
        path, frame_size = str(tmp_path / "db"), store.disk.frame_size
        node = nodes[0]
        flip_byte(path, node * frame_size + 20)
        with open(path, "rb") as f:
            f.seek(node * frame_size)
            damaged = f.read(frame_size)
        store.pool.discard(node)
        with pytest.raises(CorruptPageError):
            store.pool.fetch(node)
        assert store.integrity.page_repairs == 0
        assert node in store.integrity.quarantined
        assert store.scrub(repair=True)["pages_repaired"] == 0
        with open(path, "rb") as f:
            f.seek(node * frame_size)
            assert f.read(frame_size) == damaged  # left alone on disk
        store.close()

    def test_run_page_with_current_image_still_repairs(self, tmp_path):
        store, _, run_pages = self._recycled_ids_under_an_index(tmp_path)
        store.pool.clear()
        flip_byte(str(tmp_path / "db"), run_pages[0] * store.disk.frame_size + 20)
        assert sorted(store.table("T").scan()) == [(i, i * 2) for i in range(300)]
        assert store.integrity.page_repairs == 1
        store.close()

    def test_unrepairable_fails_loudly_by_default(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i) for i in range(300)])
        store.checkpoint()  # truncates the WAL: no after-images left
        path = str(tmp_path / "db")
        store.pool.clear()
        _corrupt_first_table_page(store, path)
        with pytest.raises(CorruptPageError):
            list(store.table("T").scan())
        store.close()

    def test_degraded_reads_skip_with_report(self, tmp_path):
        store = make_store(tmp_path, degraded_reads=True)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i) for i in range(300)])
        store.checkpoint()
        path = str(tmp_path / "db")
        store.pool.clear()
        pid = _corrupt_first_table_page(store, path)
        rows = list(store.table("T").scan())
        assert len(rows) < 300  # corrupt unit skipped, never wrong rows
        events = store.catalog.entry("T").last_corruption_skipped
        assert len(events) == 1
        assert events[0]["page_id"] == pid
        assert events[0]["table"] == "T"
        stats = store.storage_stats()["integrity"]
        assert stats["scan_skips"] == 1
        assert stats["degraded_reads"] is True
        store.close()

    def test_degraded_scan_report_in_explain(self, tmp_path):
        store = make_store(tmp_path, degraded_reads=True)
        store.create_table("T", SCHEMA, layout="rows(T)")
        store.load("T", [(i, i) for i in range(300)])
        store.checkpoint()
        store.pool.clear()
        _corrupt_first_table_page(store, str(tmp_path / "db"))
        q = store.query("T")
        q.run()
        assert "corruption_skipped=1" in str(q.explain())
        store.close()

    def test_partitioned_degraded_scan_skips_one_region(self, tmp_path):
        store = make_store(tmp_path, degraded_reads=True)
        store.create_table(
            "T", SCHEMA, layout="partition[id; range, 128](T)"
        )
        store.load("T", [(i, i) for i in range(512)])
        store.checkpoint()
        store.pool.clear()
        _corrupt_first_table_page(store, str(tmp_path / "db"))
        rows = list(store.table("T").scan())
        # other partitions survive: strictly between 0 and all rows
        assert 0 < len(rows) < 512
        events = store.catalog.entry("T").last_corruption_skipped
        assert len(events) == 1
        assert events[0]["unit"].startswith("partition[")
        store.close()


class TestScrub:
    def test_clean_store_scrubs_clean(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i * 7) for i in range(400)])
        store.table("T").insert([(1000 + i, i) for i in range(20)])
        store.relayout("T", "partition[id; range, 256](T)")
        report = store.scrub()
        assert report["clean"] is True
        assert report["unrepairable"] == []
        assert report["pages_failed"] == 0
        assert report["wal_ok"] and report["catalog_ok"]
        assert report["pages_checked"] > 0
        assert report["synopsis_mismatches"] == []
        assert report["partition_mismatches"] == []
        assert report["row_count_mismatches"] == []
        stats = store.storage_stats()["integrity"]
        assert stats["scrubs"] == 1
        store.close()

    @pytest.mark.parametrize("layout", ["rows(T)", "columns(T)"])
    def test_scrub_flags_synopsis_tightened_past_the_data(
        self, tmp_path, layout
    ):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout=layout)
        store.load("T", [(i, i * 7) for i in range(400)])
        synopsis = store.table("T").layout.synopsis
        zones = synopsis.page_zones or synopsis.group_zones[0]
        zones.fields["id"].maxs[-1] = 0  # the last zone reaches 399
        report = store.scrub()
        assert report["clean"] is False
        (mismatch,) = report["synopsis_mismatches"]
        assert mismatch["field"] == "id"
        assert mismatch["zone_bounds"][1] < 399
        assert mismatch["actual_bounds"] == [0, 399]
        store.close()

    def test_scrub_detects_and_repairs_with_wal(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i) for i in range(300)])
        store.pool.flush_all()
        store.wal.sync()
        store.pool.clear()
        _corrupt_first_table_page(store, str(tmp_path / "db"))
        report = store.scrub(repair=True)
        assert report["clean"] is True  # repaired from the WAL image
        assert report["pages_repaired"] == 1
        assert store.integrity.page_repairs == 1
        store.close()

    def test_scrub_reports_unrepairable(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA, layout="columns(T)")
        store.load("T", [(i, i) for i in range(300)])
        store.checkpoint()
        store.pool.clear()
        pid = _corrupt_first_table_page(store, str(tmp_path / "db"))
        report = store.scrub(repair=True)
        assert report["clean"] is False
        assert any(f["page_id"] == pid for f in report["unrepairable"])
        store.close()

    def test_scrub_flags_corrupt_wal(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", [(i, i) for i in range(50)])
        store.wal.sync()
        flip_byte(str(tmp_path / "db.wal"), 40)
        report = store.scrub()
        assert report["wal_ok"] is False
        assert report["clean"] is False
        store.close()

    def test_memory_store_scrubs_clean(self):
        store = RodentStore(page_size=1024, pool_capacity=64)
        store.create_table("T", SCHEMA, layout="rows(T)")
        store.load("T", [(i, i) for i in range(100)])
        report = store.scrub()
        assert report["clean"] is True


#: Every table shape scrub checks a stored row count of.
LOST_ROW_SHAPES = [
    "rows(T)",
    "columns(T)",
    "partition[id; range, 256](T)",
    "levels[2; 2](rows(T))",
    "fold[id; val](T)",
]


def _claim_rows(path, extra=1):
    """The table's first run claims ``extra`` rows more than its pages
    hold, under a recomputed catalog checksum."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    del payload[CATALOG_CRC_KEY]
    (table,) = payload["tables"]
    (table["partitions"] or [table])[0]["runs"][0]["row_count"] += extra
    payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


@pytest.mark.parametrize("tombstone", [False, True])
@pytest.mark.parametrize("layout", LOST_ROW_SHAPES)
def test_scrub_reports_a_lost_row(tmp_path, layout, tombstone):
    """A run whose catalog claims a row its pages do not hold is a
    row-count mismatch on every shape — one holding a tombstone too, whose
    count is the catalog's and not a second resolving scan."""
    store = make_store(tmp_path)
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", [(i, i % 13) for i in range(1000)])
    if tombstone:
        assert table.delete(Range("id", 3, 3)) == 1
    assert store.scrub()["clean"]
    store.close()
    _claim_rows(str(tmp_path / "db.catalog.json"))
    store = make_store(tmp_path)
    report = store.scrub()
    assert report["pages_failed"] == 0 and report["catalog_ok"]
    assert [m["table"] for m in report["row_count_mismatches"]] == ["T"]
    assert report["clean"] is False
    store.close()


def test_scrub_holds_a_keyed_table_to_its_bound(tmp_path):
    """A keyed region's stored count is an upper bound: shadowed versions
    scrub clean, and so does a count above the rows, but not one below."""
    store = make_store(tmp_path)
    store.create_table("T", SCHEMA, layout="levels[2; 2; id](rows(T))")
    table = store.load("T", [(i, i % 13) for i in range(1000)])
    assert table.delete(Range("id", 3, 7)) == 5
    (region,) = table.partitions
    assert region.row_count == 995 == table.row_count
    table.insert([(i, 99) for i in range(500, 520)])  # newer versions
    table.flush_inserts()
    assert region.row_count == 1015 and table.row_count == 995
    assert store.scrub()["clean"]
    table.compact()
    assert region.row_count == 995
    store.close()
    # The claims add up: 996 rows, then 994.
    for extra, reported in ((1, []), (-2, [("T", 994, 995)])):
        _claim_rows(str(tmp_path / "db.catalog.json"), extra)
        store = make_store(tmp_path)
        report = store.scrub()
        assert [
            (m["table"], m["stored"], m["scanned"])
            for m in report["row_count_mismatches"]
        ] == reported
        store.close()


def test_scrub_flags_a_row_in_the_wrong_partition(tmp_path):
    store = make_store(tmp_path)
    store.create_table("T", SCHEMA, layout="partition[id; range, 256](T)")
    table = store.load("T", [(i, i % 13) for i in range(1000)])
    assert store.scrub()["partition_mismatches"] == []
    first = table.partitions[0]
    first.key = 9
    report = store.scrub()
    assert report["partition_mismatches"] == [{
        "table": "T", "pid": first.pid, "expected_key": 9, "routed_key": 0,
    }]
    assert report["clean"] is False
    store.close()


def test_scrub_reports_a_table_whose_every_scan_raises(tmp_path):
    """A catalog that disagrees with sound pages makes every scan raise: a
    row-count mismatch naming the error, not a clean table."""
    store = make_store(tmp_path)
    store.create_table("T", SCHEMA, layout="columns(T)")
    store.load("T", [(i, i % 13) for i in range(1000)])
    store.close()
    _claim_rows(str(tmp_path / "db.catalog.json"))
    store = make_store(tmp_path)
    with pytest.raises(StorageError, match="1000 rows, the layout 1001"):
        list(store.table("T").scan())
    report = store.scrub()
    assert report["pages_failed"] == 0
    (mismatch,) = report["row_count_mismatches"]
    assert mismatch["table"] == "T"
    assert "1000 rows, the layout 1001" in mismatch["error"]
    assert report["clean"] is False
    store.close()


class TestIntegrityStats:
    def test_storage_stats_exposes_integrity(self, tmp_path):
        store = make_store(tmp_path)
        store.create_table("T", SCHEMA)
        store.load("T", [(i, i) for i in range(100)])
        store.pool.flush_all()
        store.pool.clear()
        list(store.table("T").scan())
        list(store.wal.records())  # verifies every record CRC
        stats = store.storage_stats()["integrity"]
        assert stats["checksums"] is True
        assert stats["page_verifications"] > 0
        assert stats["wal_records_verified"] > 0
        assert stats["catalog_verifications"] >= 0
        assert stats["page_failures"] == 0
        assert stats["quarantined"] == {}
        store.close()

    def test_checksums_off_store(self, tmp_path):
        store = make_store(tmp_path, checksums=False)
        store.create_table("T", SCHEMA)
        store.load("T", [(i, i) for i in range(100)])
        store.checkpoint()
        store.pool.clear()
        assert len(list(store.table("T").scan())) == 100
        stats = store.storage_stats()["integrity"]
        assert stats["checksums"] is False
        assert stats["page_verifications"] == 0
        store.close()
