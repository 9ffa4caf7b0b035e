"""Tests for repro.storage.wal (logging) and the page replay of
repro.engine.recovery."""

import struct
import zlib

import pytest

from repro.engine.database import RodentStore
from repro.engine.recovery import recover_store
from repro.errors import CorruptWALError, WALError
from repro.migrate import KIND_BEGIN, KIND_UPDATE, decode_record, rewrite_log
from repro.storage import wal as wal_module
from repro.storage.disk import DiskManager
from repro.storage.faults import IoFault, IoFaultInjector
from repro.storage.wal import (
    KIND_COMMIT,
    KIND_CRC_FLAG,
    KIND_FRESH_PAGE,
    KIND_ROWS,
    LogRecord,
    WriteAheadLog,
)


def legacy_update(lsn, txn_id, page_id, offset, before, after) -> bytes:
    """An ``UPDATE`` record as logs written before copy-on-write hold it:
    the page bytes it replaced, then the page image."""
    body = struct.pack("<qII", page_id, offset, len(after)) + before + after
    total = wal_module._HEADER.size + len(body) + 8
    header = wal_module._HEADER.pack(
        total, KIND_UPDATE | KIND_CRC_FLAG, lsn, txn_id
    )
    crc = zlib.crc32(header + body)
    return header + body + struct.pack("<II", crc, total)


def append_legacy_update(wal, txn_id, page_id, offset, before, after):
    with wal._lock:
        record = legacy_update(
            wal._next_lsn, txn_id, page_id, offset, before, after
        )
        wal._next_lsn += 1
        wal._file.write(record)


def legacy_begin(wal, txn_id):
    with wal._lock:
        header = wal_module._HEADER.pack(
            wal_module._HEADER.size + 8, KIND_BEGIN | KIND_CRC_FLAG,
            wal._next_lsn, txn_id,
        )
        crc = struct.pack("<I", zlib.crc32(header))
        wal._file.write(header + crc + struct.pack("<I", len(header) + 8))
        wal._next_lsn += 1


class TestLogRecords:
    def test_encode_decode_update(self):
        """A legacy ``UPDATE`` is refused by the engine's decoder and
        decodes, through the migrator's, as its page image alone."""
        data = legacy_update(5, 2, 7, 16, b"aa", b"bb")
        with pytest.raises(WALError, match="unknown log record kind"):
            LogRecord.decode(data, 0)
        decoded, end = decode_record(data, 0)
        assert decoded.kind == KIND_UPDATE
        assert decoded.lsn == 5
        assert decoded.txn_id == 2
        assert decoded.page_id == 7
        assert decoded.offset == 16
        assert decoded.after == b"bb"
        assert end == len(data)

    def test_image_length_mismatch(self):
        """A legacy ``UPDATE`` whose images do not fit its record."""
        data = legacy_update(1, 1, 0, 0, b"a", b"bb")
        with pytest.raises(WALError, match="truncated update images"):
            decode_record(data, 0)

    def test_torn_record_detected(self):
        record = LogRecord(KIND_COMMIT, 1, 1)
        data = record.encode()[:-2]
        with pytest.raises(WALError):
            LogRecord.decode(data, 0)


class TestWriteAheadLog:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        assert wal.append(KIND_ROWS, 1) == 1
        assert wal.append(KIND_COMMIT, 1) == 2

    def test_records_iteration(self):
        wal = WriteAheadLog()
        wal.append(KIND_FRESH_PAGE, 1, page_id=0, after=b"y")
        wal.append(KIND_ROWS, 1, payload=b"[]")
        wal.append(KIND_COMMIT, 1)
        kinds = [r.kind for r in wal.records()]
        assert kinds == [KIND_FRESH_PAGE, KIND_ROWS, KIND_COMMIT]

    def test_torn_tail_ignored(self):
        wal = WriteAheadLog()
        wal.append(KIND_ROWS, 1)
        wal.append(KIND_COMMIT, 1)
        wal._buffer.extend(b"\x10\x00\x00\x00garbage")
        assert len(list(wal.records())) == 2

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.append(KIND_ROWS, 1)
        wal.truncate()
        assert list(wal.records()) == []

    def test_file_backed_persistence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(KIND_ROWS, 3)
        wal.append(KIND_COMMIT, 3)
        wal.flush()
        wal.close()
        wal2 = WriteAheadLog(path)
        assert [r.txn_id for r in wal2.records()] == [3, 3]
        # LSNs continue after the existing maximum.
        assert wal2.append(KIND_ROWS, 4) == 3
        wal2.close()

    def test_a_failed_append_spends_no_lsn(self, tmp_path):
        """An append whose write raises leaves the log and its LSN counter
        as they were: the next record follows without a gap, and the log
        still opens."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(KIND_ROWS, 1)
        size = wal.size_bytes
        wal.io_faults = IoFaultInjector(IoFault("enospc", target="wal"))
        with pytest.raises(WALError):
            wal.append(KIND_COMMIT, 1)
        assert (wal.last_lsn, wal.size_bytes) == (1, size)
        assert wal.append(KIND_COMMIT, 1) == 2
        wal.sync()
        wal.close()
        reopened = WriteAheadLog(path)
        assert [r.lsn for r in reopened.records()] == [1, 2]
        reopened.close()

    def test_one_fsync_covers_every_record_appended_before_it(self, tmp_path):
        """Group commit: syncing the first record makes both durable, and
        the second record's sync piggybacks on that fsync."""
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        first = wal.append(KIND_COMMIT, 1)
        second = wal.append(KIND_COMMIT, 2)
        wal.sync(first)
        assert wal.fsyncs == 1
        assert wal.flushed_lsn == second
        assert wal.synced_size == wal.size_bytes
        wal.sync(second)
        assert wal.fsyncs == 1
        wal.close()

    def test_appends_stay_in_the_write_buffer(self, tmp_path):
        """An append neither seeks nor flushes — each would be a system
        call, and a writer holding its table lock through a commit's page
        images must not hand the interpreter to CPU-bound scanner threads
        once per record. Reads leave the position at the end of the log."""
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append(KIND_ROWS, 1)
        assert len(list(wal.records())) == 1  # a read moves the position

        class Spy:
            def __init__(self, file):
                self.file, self.calls = file, []

            def __getattr__(self, name):
                if name in ("seek", "flush"):
                    self.calls.append(name)
                return getattr(self.file, name)

        spy = wal._file = Spy(wal._file)
        for txn in range(2, 40):
            wal.append(KIND_FRESH_PAGE, txn, page_id=txn, after=b"x" * 64)
        assert spy.calls == []
        wal._file = spy.file
        assert [r.txn_id for r in wal.records()] == list(range(1, 40))
        wal.close()


PAGE = 128


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh durable store whose log the test writes, for
    ``recover_store`` to replay from no catalog (a fresh store's holds no
    table). The re-checkpoint that ends a recovery is
    held back: it would truncate the replayed pages — named by no catalog —
    off the file before the test reads them."""
    store = RodentStore(str(tmp_path / "db.pages"), page_size=PAGE, durable=True)
    monkeypatch.setattr(store, "checkpoint", lambda: None)
    yield store
    store.wal.close()
    store.disk.close()


def _page_with(disk: DiskManager, content: bytes) -> int:
    page_id = disk.allocate_page()
    page = disk.read_page(page_id)
    page[: len(content)] = content
    disk.write_page(page_id, page)
    return page_id


class TestRecovery:
    def test_redo_committed(self, store):
        disk = store.disk
        page_id = _page_with(disk, b"old!")
        store.wal.append(
            KIND_FRESH_PAGE, 1, page_id=page_id, after=b"new!" * (PAGE // 4)
        )
        store.wal.append(KIND_COMMIT, 1)
        summary = recover_store(store, None)
        assert summary["committed_txns"] == 1
        assert summary["pages_redone"] == 1
        assert bytes(disk.read_page(page_id)[:4]) == b"new!"

    def test_mixed_transactions(self, store):
        """A legacy log is damage to the engine. The migrator rewrites it:
        ``BEGIN`` is dropped, and then a committed byte-range ``UPDATE`` is
        redone, an in-flight one is left alone."""
        disk, wal = store.disk, store.wal
        p1 = _page_with(disk, b"aaaa")
        p2 = _page_with(disk, b"bbXX")  # txn2's partial write survived
        legacy_begin(wal, 1)
        append_legacy_update(wal, 1, p1, 0, b"aaaa", b"AAAA")
        wal.append(KIND_COMMIT, 1)
        legacy_begin(wal, 2)
        append_legacy_update(wal, 2, p2, 2, b"bb", b"XX")
        wal.sync()
        with pytest.raises(CorruptWALError):
            recover_store(store, None)
        wal.close()
        assert rewrite_log(wal.path, disk)["records_written"] == 3
        store.wal = WriteAheadLog(wal.path)
        summary = recover_store(store, None)
        assert bytes(disk.read_page(p1)[:4]) == b"AAAA"
        assert bytes(disk.read_page(p2)[:4]) == b"bbXX"
        assert summary["committed_txns"] == 1
        assert summary["loser_txns"] == 1

    def test_recovery_allocates_missing_pages(self, store):
        page_id = store.disk.num_pages + 2
        store.wal.append(
            KIND_FRESH_PAGE, 1, page_id=page_id, after=b"zz" * (PAGE // 2)
        )
        store.wal.append(KIND_COMMIT, 1)
        recover_store(store, None)
        assert store.disk.num_pages >= page_id + 1
        assert bytes(store.disk.read_page(page_id)[:2]) == b"zz"


class TestFreshPageRecords:
    """One after-image-only record kind for pages a transaction allocated
    and filled: a loser's pages are unreferenced, hence free."""

    def test_round_trip_carries_no_before_image(self):
        image = bytes(range(64))
        record = LogRecord(KIND_FRESH_PAGE, 9, 4, page_id=3, after=image)
        encoded = record.encode()
        decoded, end = LogRecord.decode(encoded, 0)
        assert (decoded.kind, decoded.page_id, decoded.offset) == (
            KIND_FRESH_PAGE, 3, 0,
        )
        assert decoded.after == image
        assert end == len(encoded)
        legacy = legacy_update(9, 4, 3, 0, bytes(64), image)
        assert len(legacy) - len(encoded) == 64

    def test_committed_redone_loser_left_alone(self, store):
        disk, wal = store.disk, store.wal
        ids = disk.allocate_contiguous(2)
        disk.write_page(ids[1], b"\x05" * PAGE)  # the loser's render landed
        wal.append(KIND_FRESH_PAGE, 1, page_id=ids[0], after=b"\x01" * PAGE)
        wal.append(KIND_COMMIT, 1)
        wal.append(KIND_FRESH_PAGE, 2, page_id=ids[1], after=b"\x05" * PAGE)
        summary = recover_store(store, None)
        assert summary["pages_redone"] == 1 and summary["loser_txns"] == 1
        assert bytes(disk.read_page(ids[0])) == b"\x01" * PAGE
        assert bytes(disk.read_page(ids[1])) == b"\x05" * PAGE  # not zeroed

    def test_last_tenant_of_a_reused_page_wins(self, store):
        disk, wal = store.disk, store.wal
        (page,) = disk.allocate_contiguous(1)
        for txn, fill in ((1, b"\x01"), (2, b"\x02")):
            wal.append(KIND_FRESH_PAGE, txn, page_id=page, after=fill * PAGE)
            wal.append(KIND_COMMIT, txn)
        recover_store(store, None)
        assert bytes(disk.read_page(page)) == b"\x02" * PAGE


class TestStreamedReads:
    """``records()`` reads the file a chunk at a time; where the chunk
    boundaries fall changes nothing — not the records, not the verdicts."""

    @staticmethod
    def _log(tmp_path, n=40):
        wal = WriteAheadLog(str(tmp_path / "log"))
        for txn in range(1, n + 1):
            wal.append(KIND_ROWS, txn)
            wal.append(KIND_FRESH_PAGE, txn, page_id=txn,
                       after=bytes([txn]) * (50 + txn))
            wal.append(KIND_COMMIT, txn)
        wal.sync()
        return wal

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000, 1 << 20])
    def test_any_chunk_size_same_records(self, tmp_path, monkeypatch, chunk):
        wal = self._log(tmp_path)
        want = [(r.kind, r.lsn, r.txn_id, r.page_id, r.after)
                for r in wal.records()]
        monkeypatch.setattr(wal_module, "_READ_CHUNK", chunk)
        got = [(r.kind, r.lsn, r.txn_id, r.page_id, r.after)
               for r in wal.records()]
        assert got == want and len(got) == 120

    @pytest.mark.parametrize("chunk", [5, 64, 1 << 20])
    def test_torn_tail_and_mid_log_rot(self, tmp_path, monkeypatch, chunk):
        wal = self._log(tmp_path)
        size = wal.size_bytes
        wal.close()
        path = str(tmp_path / "log")
        monkeypatch.setattr(wal_module, "_READ_CHUNK", chunk)
        with open(path, "r+b") as f:
            f.truncate(size - 9)  # the last COMMIT is torn
        torn = WriteAheadLog(path)
        assert len(list(torn.records())) == 119
        torn.close()
        with open(path, "r+b") as f:
            f.seek(size // 2)
            f.write(b"\xff" * 4)  # rot in the middle, records after it
        with pytest.raises(CorruptWALError):
            WriteAheadLog(path)

    def test_lsn_gap_still_detected(self, tmp_path, monkeypatch):
        wal = self._log(tmp_path, n=3)
        first = next(iter(wal.records()))
        cut = len(first.encode())
        wal.close()
        path = str(tmp_path / "log")
        data = open(path, "rb").read()
        second_len = len(LogRecord(KIND_FRESH_PAGE, 2, 1, page_id=1,
                                   after=bytes(51)).encode())
        open(path, "wb").write(data[:cut] + data[cut + second_len:])
        monkeypatch.setattr(wal_module, "_READ_CHUNK", 16)
        with pytest.raises(CorruptWALError, match="LSN gap"):
            WriteAheadLog(path)
