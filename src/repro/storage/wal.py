"""Write-ahead log of committed effects, with group commit.

A transaction's records reach the log only at its commit, all at once and
followed by its ``COMMIT``: a ``FRESH_PAGE`` record carries the image of a
page the transaction allocated and filled, and nothing else — nothing
committed names such a page until the transaction commits, so a
transaction that never commits leaves only unreferenced, hence free,
pages. Two *logical* record kinds ride on the same format: ``ROWS``
(inserted rows, as a JSON blob) and ``CATALOG`` (one table's serialized
catalog entry). :mod:`repro.engine.recovery` replays the committed
records.

Record wire format::

    u32 total_len | u8 kind|0x80 | u64 lsn | u64 txn_id | payload | u32 crc32 | u32 total_len

The high bit of the kind byte marks the record as checksummed, and every
record carries it: a record without it is damage, like any other
undecodable bytes. The CRC32 covers everything from the header through
the payload, so bit rot *anywhere* in a record is detected — not just torn
tails. (``python -m repro.migrate`` rewrites the logs of older engines.)

The trailing length makes backward scans possible and doubles as a torn-write
check. :meth:`WriteAheadLog.records` distinguishes two failure shapes:

* a *torn tail* — undecodable bytes with no valid record after them — is a
  crash artifact and silently ends the log (the recovery contract);
* *mid-log corruption* — undecodable bytes **followed by** decodable
  records, a CRC mismatch, or a gap in the (strictly sequential) LSN
  sequence — raises :class:`~repro.errors.CorruptWALError`, because the log
  can no longer be trusted for replay.

Durability is tracked at two levels: :meth:`WriteAheadLog.sync` fsyncs up to
a target LSN with *piggybacking* (a commit whose LSN an earlier fsync already
covered returns without touching the device — the group-commit fast path),
and :attr:`WriteAheadLog.synced_size` records the byte offset the last real
fsync covered, which the fault-injection harness uses to simulate losing
OS-buffered bytes on power failure.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from typing import Iterator

from repro.errors import CorruptWALError, WALError

KIND_COMMIT = 3
KIND_CHECKPOINT = 5
# Logical records (opaque payload bytes; interpreted by engine recovery).
KIND_ROWS = 6
KIND_CATALOG = 7
#: After-image of a page the transaction allocated and wrote in full.
KIND_FRESH_PAGE = 8

#: High bit of the kind byte: the record carries a CRC32.
KIND_CRC_FLAG = 0x80

_HEADER = struct.Struct("<IBQQ")
_TRAILER = struct.Struct("<I")
_CRC = struct.Struct("<I")
_UPDATE_META = struct.Struct("<qII")  # page_id, offset, image_len

_PAYLOAD_KINDS = (KIND_ROWS, KIND_CATALOG)
_KNOWN_KINDS = frozenset(
    (KIND_COMMIT, KIND_CHECKPOINT, KIND_FRESH_PAGE) + _PAYLOAD_KINDS
)

#: How far past an undecodable point records() searches for a valid record
#: before classifying the damage as a torn tail rather than mid-log rot.
_RESYNC_WINDOW = 1 << 16
#: Bytes records() reads from the log file at a time.
_READ_CHUNK = 1 << 20


class LogRecord:
    """One WAL entry."""

    __slots__ = (
        "kind", "lsn", "txn_id", "page_id", "offset", "after", "payload",
    )

    def __init__(
        self,
        kind: int,
        lsn: int,
        txn_id: int,
        page_id: int = -1,
        offset: int = 0,
        after: bytes = b"",
        payload: bytes = b"",
    ):
        self.kind = kind
        self.lsn = lsn
        self.txn_id = txn_id
        self.page_id = page_id
        self.offset = offset
        self.after = after
        self.payload = payload

    def encode(self) -> bytes:
        if self.kind == KIND_FRESH_PAGE:
            parts = (
                _UPDATE_META.pack(self.page_id, self.offset, len(self.after)),
                self.after,
            )
        elif self.kind in _PAYLOAD_KINDS:
            parts = (self.payload,)
        else:
            parts = ()
        total = (
            _HEADER.size + sum(map(len, parts)) + _CRC.size + _TRAILER.size
        )
        header = _HEADER.pack(
            total, self.kind | KIND_CRC_FLAG, self.lsn, self.txn_id
        )
        # The CRC runs over the parts in place and the record is joined
        # once: a page image is copied a single time on its way to the log.
        crc = zlib.crc32(header)
        for part in parts:
            crc = zlib.crc32(part, crc)
        return b"".join(
            (header, *parts, _CRC.pack(crc & 0xFFFFFFFF), _TRAILER.pack(total))
        )

    @classmethod
    def decode(cls, data: bytes, start: int) -> tuple["LogRecord", int]:
        """Decode one record at ``start``; returns (record, next_offset).

        Structural damage (truncation, trailer mismatch, unknown kind, no
        checksum flag) raises :class:`WALError`; a failed CRC raises
        :class:`~repro.errors.CorruptWALError` — the record is intact in
        shape but rotten in content.
        """
        if start + _HEADER.size > len(data):
            raise WALError("truncated log header")
        total, kind_byte, lsn, txn_id = _HEADER.unpack_from(data, start)
        end = start + total
        if total < _HEADER.size + _CRC.size + _TRAILER.size or end > len(data):
            raise WALError("truncated log record")
        (trailer,) = _TRAILER.unpack_from(data, end - _TRAILER.size)
        if trailer != total:
            raise WALError("torn log record (trailer mismatch)")
        kind = kind_byte & ~KIND_CRC_FLAG
        if not kind_byte & KIND_CRC_FLAG or kind not in _KNOWN_KINDS:
            raise WALError(f"unknown log record kind {kind_byte:#04x}")
        payload_end = end - _TRAILER.size - _CRC.size
        (stored,) = _CRC.unpack_from(data, payload_end)
        actual = zlib.crc32(memoryview(data)[start:payload_end]) & 0xFFFFFFFF
        if actual != stored:
            raise CorruptWALError(
                f"WAL record checksum mismatch at byte {start} "
                f"(lsn {lsn}, stored {stored:#010x}, "
                f"computed {actual:#010x})"
            )
        record = cls(kind, lsn, txn_id)
        if kind == KIND_FRESH_PAGE:
            meta_at = start + _HEADER.size
            if meta_at + _UPDATE_META.size > payload_end:
                raise WALError("truncated update metadata")
            page_id, offset, image_len = _UPDATE_META.unpack_from(data, meta_at)
            after_at = meta_at + _UPDATE_META.size
            if after_at + image_len > payload_end:
                raise WALError("truncated update images")
            record.page_id = page_id
            record.offset = offset
            record.after = data[after_at : after_at + image_len]
        elif kind in _PAYLOAD_KINDS:
            record.payload = data[start + _HEADER.size : payload_end]
        return record, end


class WriteAheadLog:
    """Append-only log, file-backed or in-memory.

    Appends are serialized under an internal lock (concurrent committers
    share one log) and land in the file's write buffer: the file position
    rests at the end of the log between calls (a read puts it back), so an
    append neither seeks nor flushes. Fsyncs go through :meth:`sync`, which
    batches them group-commit style. ``faults`` optionally holds a
    :class:`~repro.storage.faults.FaultInjector` that can tear or abort
    appends at a chosen write boundary.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._next_lsn = 1
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        #: Highest LSN known durable (covered by a real fsync); in-memory
        #: logs track it too so group-commit accounting works in tests.
        self.flushed_lsn = 0
        #: Byte offset of the log file the last fsync covered.
        self.synced_size = 0
        #: Fsyncs actually issued (group commit makes this < commits).
        self.fsyncs = 0
        #: Records appended through this handle.
        self.appends = 0
        #: Optional FaultInjector observing appends and fsyncs.
        self.faults = None
        #: Optional IoFaultInjector damaging record reads / dropping appends.
        self.io_faults = None
        #: Optional IntegrityRegistry counting record verifications.
        self.integrity = None
        if path is None:
            self._buffer = bytearray()
            self._file = None
        else:
            self._buffer = None
            exists = os.path.exists(path)
            self._file = open(path, "r+b" if exists else "w+b")
            self._file.seek(0, os.SEEK_END)
            self._recompute_next_lsn()

    def _recompute_next_lsn(self) -> None:
        max_lsn = 0
        for record in self.records():
            max_lsn = max(max_lsn, record.lsn)
        self._next_lsn = max_lsn + 1

    # -- writing ----------------------------------------------------------

    def append(
        self,
        kind: int,
        txn_id: int,
        page_id: int = -1,
        offset: int = 0,
        after: bytes = b"",
        payload: bytes = b"",
    ) -> int:
        """Append a record and return its LSN.

        An append that raises before its write leaves the log as it was —
        no bytes, no LSN spent — so the next append follows without a gap.
        """
        with self._lock:
            lsn = self._next_lsn
            encoded = LogRecord(
                kind, lsn, txn_id, page_id, offset, after, payload
            ).encode()
            action = None
            if self.faults is not None:
                action = self.faults.check("wal")
                if action == "torn":
                    # A torn append: only a strict prefix of the record
                    # reaches the log. The trailer check must discard it.
                    encoded = encoded[: max(1, len(encoded) // 2)]
            lost = False
            if self.io_faults is not None:
                try:
                    lost = self.io_faults.check_write("wal") == "lost"
                except OSError as exc:
                    raise WALError(f"WAL append failed: {exc}") from exc
            if not lost:
                if self._file is not None:
                    self._file.write(encoded)
                else:
                    self._buffer.extend(encoded)
            self._next_lsn += 1
            self.appends += 1
        if action is not None:
            assert self.faults is not None
            self.faults.crash("wal", action)
        return lsn

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def size_bytes(self) -> int:
        """Current log length in bytes (file or in-memory buffer)."""
        with self._lock:
            if self._file is not None:
                self._file.seek(0, os.SEEK_END)
                return self._file.tell()
            return len(self._buffer)

    def sync(self, upto_lsn: int | None = None, window_s: float = 0.0) -> None:
        """Make every record up to ``upto_lsn`` durable (group commit).

        A committer whose LSN an earlier fsync already covered returns
        immediately — it *piggybacked* on that fsync. Otherwise it becomes
        the group leader: after an optional ``window_s`` wait (letting more
        committers append their records), one fsync covers everything
        appended so far, and the followers' sync calls then piggyback.
        """
        if upto_lsn is None:
            upto_lsn = self.last_lsn
        if self.flushed_lsn >= upto_lsn:
            return
        with self._sync_lock:
            if self.flushed_lsn >= upto_lsn:
                return  # a leader's fsync covered us while we waited
            if window_s > 0.0:
                time.sleep(window_s)
            with self._lock:
                covered = self._next_lsn - 1
                if self._file is not None:
                    self._file.flush()
                    size = self._file.seek(0, os.SEEK_END)
                else:
                    size = len(self._buffer)
            if self._file is not None:
                if self.faults is None or not self.faults.fail_fsync:
                    os.fsync(self._file.fileno())
                    self.synced_size = size
                # An fsync that "lies" leaves synced_size where it was:
                # those bytes were never made durable.
            else:
                self.synced_size = size
            self.fsyncs += 1
            self.flushed_lsn = covered

    def flush(self) -> None:
        """Flush and fsync everything appended so far."""
        self.sync()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- reading ----------------------------------------------------------

    def _chunks(self) -> Iterator[bytes]:
        """The log's bytes in append order, ``_READ_CHUNK`` at a time.

        With a read-fault injector armed the whole log is one read (one
        roll of the fault plan, damage positioned within the whole log).
        """
        if self._file is None or self.io_faults is not None:
            with self._lock:
                if self._file is not None:
                    self._file.seek(0)
                    data = self._file.read()  # ends at the end of the log
                else:
                    data = bytes(self._buffer)
            yield self._through_read_faults(data)
            return
        at = 0
        while True:
            with self._lock:
                if self._file is None:
                    return
                self._file.seek(at)
                chunk = self._file.read(_READ_CHUNK)
                self._file.seek(0, os.SEEK_END)  # where appends write
            if not chunk:
                return
            at += len(chunk)
            yield chunk

    def _through_read_faults(self, data: bytes) -> bytes:
        if self.io_faults is None:
            return data
        attempts = 0
        while True:
            try:
                return self.io_faults.apply_read("wal", data)
            except OSError as exc:
                attempts += 1
                if attempts <= 3:
                    time.sleep(0.0005 * attempts)
                    continue
                raise WALError(
                    f"I/O error reading WAL after {attempts} "
                    f"attempts: {exc}"
                ) from exc

    def records(self) -> Iterator[LogRecord]:
        """Iterate all records in append order, stopping at torn tails.

        The log is read a chunk at a time and decoded one record at a
        time, so a pass over it holds one chunk and one record whatever the
        log's size (damage is the exception: classifying it reads the rest
        of the log, which after a crash is the torn record alone).

        Raises :class:`~repro.errors.CorruptWALError` for damage that a
        crash cannot explain: a CRC mismatch, undecodable bytes *followed
        by* decodable records (a torn write only ever truncates the tail),
        or a gap in the strictly sequential LSN sequence (a lost append).
        """
        chunks = self._chunks()
        data = b""
        base = 0  # log offset of data[0], for error messages
        offset = 0

        def fill(need: float) -> None:
            """Slide the window to ``offset`` and read until it holds
            ``need`` bytes (or the log ends)."""
            nonlocal data, base, offset
            parts = [data[offset:]]
            have = len(parts[0])
            while have < need:
                chunk = next(chunks, None)
                if chunk is None:
                    break
                parts.append(chunk)
                have += len(chunk)
            base += offset
            data = b"".join(parts)
            offset = 0

        prev_lsn: int | None = None
        while True:
            if len(data) - offset < _HEADER.size:
                fill(_HEADER.size)
            if len(data) - offset >= _HEADER.size:
                total = _HEADER.unpack_from(data, offset)[0]
                if len(data) - offset < total:
                    fill(total)
            if offset >= len(data):
                return
            try:
                record, offset = LogRecord.decode(data, offset)
            except CorruptWALError:
                if self.integrity is not None:
                    self.integrity.record_wal_failure()
                raise
            except WALError:
                fill(float("inf"))  # the rest of the log
                if _resync_offset(data, 0) is not None:
                    if self.integrity is not None:
                        self.integrity.record_wal_failure()
                    raise CorruptWALError(
                        f"mid-log corruption at byte {base}: valid "
                        "records follow an undecodable region"
                    )
                return  # torn tail: everything after is discarded
            if prev_lsn is not None and record.lsn != prev_lsn + 1:
                if self.integrity is not None:
                    self.integrity.record_wal_failure()
                raise CorruptWALError(
                    f"WAL LSN gap: record {record.lsn} follows {prev_lsn} "
                    "(a lost or reordered append)"
                )
            prev_lsn = record.lsn
            if self.integrity is not None:
                self.integrity.count_wal_record()
            yield record

    def truncate(self) -> None:
        """Discard the log (after a checkpoint has made it redundant).

        LSNs keep increasing across truncation, and everything discarded
        was durable by definition (the checkpoint fsynced it into the data
        file and catalog), so the flushed high-water mark advances to the
        last appended LSN — committers waiting to sync piggyback on the
        checkpoint instead of fsyncing an empty log.
        """
        with self._lock:
            if self._file is not None:
                self._file.seek(0)
                self._file.truncate()
                self._file.flush()
                os.fsync(self._file.fileno())
            else:
                self._buffer.clear()
            self.synced_size = 0
            self.flushed_lsn = self._next_lsn - 1


def _resync_offset(data: bytes, start: int) -> int | None:
    """Scan forward from a decode failure looking for a valid record.

    Returns the offset of the next decodable record within the resync
    window, or ``None`` when nothing decodes — the torn-tail case.
    """
    end = min(len(data), start + _RESYNC_WINDOW)
    for offset in range(start + 1, end):
        try:
            LogRecord.decode(data, offset)
        except WALError:
            continue
        return offset
    return None
