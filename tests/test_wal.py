"""Tests for repro.storage.wal (logging and recovery)."""

import pytest

from repro.errors import CorruptWALError, WALError
from repro.storage import wal as wal_module
from repro.storage.disk import DiskManager
from repro.storage.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_COMMIT,
    KIND_FRESH_PAGE,
    KIND_UPDATE,
    LogRecord,
    WriteAheadLog,
    recover,
)


class TestLogRecords:
    def test_encode_decode_update(self):
        record = LogRecord(KIND_UPDATE, 5, 2, page_id=7, offset=16,
                           before=b"aa", after=b"bb")
        decoded, end = LogRecord.decode(record.encode(), 0)
        assert decoded.kind == KIND_UPDATE
        assert decoded.lsn == 5
        assert decoded.txn_id == 2
        assert decoded.page_id == 7
        assert decoded.offset == 16
        assert decoded.before == b"aa"
        assert decoded.after == b"bb"
        assert end == len(record.encode())

    def test_image_length_mismatch(self):
        record = LogRecord(KIND_UPDATE, 1, 1, before=b"a", after=b"bb")
        with pytest.raises(WALError):
            record.encode()

    def test_torn_record_detected(self):
        record = LogRecord(KIND_COMMIT, 1, 1)
        data = record.encode()[:-2]
        with pytest.raises(WALError):
            LogRecord.decode(data, 0)


class TestWriteAheadLog:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        assert wal.append(KIND_BEGIN, 1) == 1
        assert wal.append(KIND_COMMIT, 1) == 2

    def test_records_iteration(self):
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=0, offset=0, before=b"x", after=b"y")
        wal.append(KIND_COMMIT, 1)
        kinds = [r.kind for r in wal.records()]
        assert kinds == [KIND_BEGIN, KIND_UPDATE, KIND_COMMIT]

    def test_torn_tail_ignored(self):
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_COMMIT, 1)
        wal._buffer.extend(b"\x10\x00\x00\x00garbage")
        assert len(list(wal.records())) == 2

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.truncate()
        assert list(wal.records()) == []

    def test_file_backed_persistence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(KIND_BEGIN, 3)
        wal.append(KIND_COMMIT, 3)
        wal.flush()
        wal.close()
        wal2 = WriteAheadLog(path)
        assert [r.txn_id for r in wal2.records()] == [3, 3]
        # LSNs continue after the existing maximum.
        assert wal2.append(KIND_BEGIN, 4) == 3
        wal2.close()

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
        wal.append(KIND_BEGIN, 1)
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


def _page_with(disk: DiskManager, content: bytes) -> int:
    page_id = disk.allocate_page()
    page = disk.read_page(page_id)
    page[: len(content)] = content
    disk.write_page(page_id, page)
    return page_id


class TestRecovery:
    def test_redo_committed(self):
        disk = DiskManager(page_size=128)
        page_id = _page_with(disk, b"old!")
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=page_id, offset=0,
                   before=b"old!", after=b"new!")
        wal.append(KIND_COMMIT, 1)
        summary = recover(wal, disk)
        assert summary["committed"] == 1
        assert summary["redo"] == 1
        assert bytes(disk.read_page(page_id)[:4]) == b"new!"

    def test_undo_uncommitted(self):
        disk = DiskManager(page_size=128)
        page_id = _page_with(disk, b"new!")  # crash left new bytes on disk
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=page_id, offset=0,
                   before=b"old!", after=b"new!")
        summary = recover(wal, disk)
        assert summary["in_flight"] == 1
        assert summary["undo"] == 1
        assert bytes(disk.read_page(page_id)[:4]) == b"old!"

    def test_aborted_transaction_undone(self):
        disk = DiskManager(page_size=128)
        page_id = _page_with(disk, b"mid!")
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=page_id, offset=0,
                   before=b"old!", after=b"mid!")
        wal.append(KIND_ABORT, 1)
        summary = recover(wal, disk)
        assert summary["aborted"] == 1
        assert bytes(disk.read_page(page_id)[:4]) == b"old!"

    def test_mixed_transactions(self):
        disk = DiskManager(page_size=128)
        p1 = _page_with(disk, b"aaaa")
        p2 = _page_with(disk, b"bbXX")  # txn2's partial write survived
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=p1, offset=0,
                   before=b"aaaa", after=b"AAAA")
        wal.append(KIND_COMMIT, 1)
        wal.append(KIND_BEGIN, 2)
        wal.append(KIND_UPDATE, 2, page_id=p2, offset=2,
                   before=b"bb", after=b"XX")
        summary = recover(wal, disk)
        assert bytes(disk.read_page(p1)[:4]) == b"AAAA"
        assert bytes(disk.read_page(p2)[:4]) == b"bbbb"
        assert summary["committed"] == 1
        assert summary["in_flight"] == 1

    def test_undo_applied_in_reverse_order(self):
        disk = DiskManager(page_size=128)
        page_id = _page_with(disk, b"cccc")
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=page_id, offset=0,
                   before=b"aaaa", after=b"bbbb")
        wal.append(KIND_UPDATE, 1, page_id=page_id, offset=0,
                   before=b"bbbb", after=b"cccc")
        recover(wal, disk)
        assert bytes(disk.read_page(page_id)[:4]) == b"aaaa"

    def test_recovery_allocates_missing_pages(self):
        disk = DiskManager(page_size=128)
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_UPDATE, 1, page_id=2, offset=0,
                   before=b"\x00\x00", after=b"zz")
        wal.append(KIND_COMMIT, 1)
        recover(wal, disk)
        assert disk.num_pages >= 3
        assert bytes(disk.read_page(2)[:2]) == b"zz"


class TestFreshPageRecords:
    """One after-image-only record kind for pages a transaction allocated
    and filled; its undo is "the page is unreferenced, hence free"."""

    def test_round_trip_carries_no_before_image(self):
        image = bytes(range(64))
        record = LogRecord(KIND_FRESH_PAGE, 9, 4, page_id=3, after=image)
        encoded = record.encode()
        decoded, end = LogRecord.decode(encoded, 0)
        assert (decoded.kind, decoded.page_id, decoded.offset) == (
            KIND_FRESH_PAGE, 3, 0,
        )
        assert decoded.after == image and decoded.before == b""
        assert end == len(encoded)
        legacy = LogRecord(
            KIND_UPDATE, 9, 4, page_id=3, before=bytes(64), after=image
        )
        assert len(legacy.encode()) - len(encoded) == 64

    def test_committed_redone_loser_left_alone(self):
        disk = DiskManager(page_size=64)
        ids = disk.allocate_contiguous(2)
        disk.write_page(ids[1], b"\x05" * 64)  # the loser's render landed
        wal = WriteAheadLog()
        wal.append(KIND_BEGIN, 1)
        wal.append(KIND_FRESH_PAGE, 1, page_id=ids[0], after=b"\x01" * 64)
        wal.append(KIND_COMMIT, 1)
        wal.append(KIND_BEGIN, 2)
        wal.append(KIND_FRESH_PAGE, 2, page_id=ids[1], after=b"\x05" * 64)
        summary = recover(wal, disk)
        assert summary["redo"] == 1 and summary["undo"] == 0
        assert bytes(disk.read_page(ids[0])) == b"\x01" * 64
        assert bytes(disk.read_page(ids[1])) == b"\x05" * 64  # not zeroed

    def test_last_tenant_of_a_reused_page_wins(self):
        disk = DiskManager(page_size=64)
        (page,) = disk.allocate_contiguous(1)
        wal = WriteAheadLog()
        for txn, fill in ((1, b"\x01"), (2, b"\x02")):
            wal.append(KIND_BEGIN, txn)
            wal.append(KIND_FRESH_PAGE, txn, page_id=page, after=fill * 64)
            wal.append(KIND_COMMIT, txn)
        recover(wal, disk)
        assert bytes(disk.read_page(page)) == b"\x02" * 64


class TestStreamedReads:
    """``records()`` reads the file a chunk at a time; where the chunk
    boundaries fall changes nothing — not the records, not the verdicts."""

    @staticmethod
    def _log(tmp_path, n=40):
        wal = WriteAheadLog(str(tmp_path / "log"))
        for txn in range(1, n + 1):
            wal.append(KIND_BEGIN, txn)
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
