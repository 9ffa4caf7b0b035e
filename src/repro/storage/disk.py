"""Disk manager: a page store with I/O accounting and end-to-end checksums.

The paper's headline metric (Figure 2) is *pages read per query*; the second
claim is that z-ordering "reduces the number of disk seeks". The disk manager
therefore counts:

* ``page_reads`` / ``page_writes`` — pages transferred;
* ``read_seeks`` / ``write_seeks`` — accesses whose page id is not physically
  adjacent to the previously accessed page (a simple single-head disk model).

Two backends share the same interface: a real file and an in-memory dict
(fast, used by tests and benchmarks — the counters behave identically).

**On-medium format.** Each logical page is stored as a *frame*: the
``page_size`` bytes of page data followed by a 16-byte trailer (magic,
format version, CRC32 of the data — see :mod:`repro.storage.integrity`).
Frames live at ``page_id * frame_size`` offsets. Upper layers never see the
trailer; ``read_page`` verifies it and raises
:class:`~repro.errors.CorruptPageError` on mismatch, short read, or bad
magic. A file whose size is not a whole number of frames is refused at
open (``python -m repro.migrate`` frames a pre-checksum file).

``read_page_unchecked`` is the explicit allow-path for reading a page that
may be torn or truncated (it zero-pads short reads): the migrator lays an
old log's byte-range images over such pages.

**Free space.** Freed page ids are kept as coalesced ``[start, stop)`` spans
(:class:`FreeSpans`). An extent takes the smallest span that fits and the
file grows only when none does; a checkpoint truncates a free tail. The map
lives in memory only: at open it is *derived* — every page below
``num_pages`` that no catalog run references (:meth:`DiskManager.reset_free`)
— so it can never disagree with the catalog it would otherwise shadow.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from typing import Collection, Iterable, Iterator

from repro.errors import CorruptPageError, StorageError
from binascii import crc32

from repro.storage.integrity import (
    _CRC_FIELD,
    _TRAILER_PREFIX,
    PAGE_TRAILER_SIZE,
    IntegrityRegistry,
    make_trailer,
    verify_frame,
)

DEFAULT_PAGE_SIZE = 8192


class IOStats:
    """Mutable I/O counters with snapshot/delta helpers."""

    __slots__ = ("page_reads", "page_writes", "read_seeks", "write_seeks")

    def __init__(
        self,
        page_reads: int = 0,
        page_writes: int = 0,
        read_seeks: int = 0,
        write_seeks: int = 0,
    ):
        self.page_reads = page_reads
        self.page_writes = page_writes
        self.read_seeks = read_seeks
        self.write_seeks = write_seeks

    def snapshot(self) -> "IOStats":
        return IOStats(
            self.page_reads, self.page_writes, self.read_seeks, self.write_seeks
        )

    def delta(self, since: "IOStats") -> "IOStats":
        return IOStats(
            self.page_reads - since.page_reads,
            self.page_writes - since.page_writes,
            self.read_seeks - since.read_seeks,
            self.write_seeks - since.write_seeks,
        )

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.read_seeks = 0
        self.write_seeks = 0

    @property
    def total_seeks(self) -> int:
        return self.read_seeks + self.write_seeks

    @property
    def total_pages(self) -> int:
        return self.page_reads + self.page_writes

    def __repr__(self) -> str:
        return (
            f"IOStats(reads={self.page_reads}, writes={self.page_writes}, "
            f"read_seeks={self.read_seeks}, write_seeks={self.write_seeks})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOStats):
            return NotImplemented
        return (
            self.page_reads == other.page_reads
            and self.page_writes == other.page_writes
            and self.read_seeks == other.read_seeks
            and self.write_seeks == other.write_seeks
        )


class FreeSpans:
    """Free page ids as sorted, coalesced ``[start, stop)`` spans."""

    __slots__ = ("starts", "stops", "pages")

    def __init__(self):
        self.starts: list[int] = []
        self.stops: list[int] = []  # parallel to ``starts``
        self.pages = 0

    def __contains__(self, page_id: int) -> bool:
        i = bisect_right(self.starts, page_id) - 1
        return i >= 0 and page_id < self.stops[i]

    def spans(self) -> list[tuple[int, int]]:
        return list(zip(self.starts, self.stops))

    def page_ids(self) -> set[int]:
        ids: set[int] = set()
        for start, stop in zip(self.starts, self.stops):
            ids.update(range(start, stop))
        return ids

    def add(self, page_id: int) -> None:
        """Return one page, merging it into the spans it touches."""
        starts, stops = self.starts, self.stops
        i = bisect_right(starts, page_id)
        joins_left = i > 0 and stops[i - 1] == page_id
        joins_right = i < len(starts) and starts[i] == page_id + 1
        if joins_left and joins_right:
            stops[i - 1] = stops[i]
            del starts[i], stops[i]
        elif joins_left:
            stops[i - 1] = page_id + 1
        elif joins_right:
            starts[i] = page_id
        else:
            starts.insert(i, page_id)
            stops.insert(i, page_id + 1)
        self.pages += 1

    def take(self, count: int, blocked: Collection[int] = ()) -> int | None:
        """Carve ``count`` pages off the front of the smallest span that
        holds them (the lowest such span on ties) and return the first id,
        or ``None`` when no span fits. Spans holding a ``blocked`` page are
        passed over whole."""
        best = -1
        best_size = 0
        for i, (start, stop) in enumerate(zip(self.starts, self.stops)):
            size = stop - start
            if size < count or (best >= 0 and size >= best_size):
                continue
            if blocked and any(start <= p < stop for p in blocked):
                continue
            best, best_size = i, size
            if size == count:
                break
        if best < 0:
            return None
        first = self.starts[best]
        if best_size == count:
            del self.starts[best], self.stops[best]
        else:
            self.starts[best] = first + count
        self.pages -= count
        return first

    def drop_tail(self, end: int) -> int:
        """Remove the span that ends at ``end`` (the end of the file), if
        there is one, and return the new end."""
        if not self.stops or self.stops[-1] != end:
            return end
        start = self.starts.pop()
        self.stops.pop()
        self.pages -= end - start
        return start

    def reset(self, end: int, referenced: Iterable[int]) -> None:
        """Every page in ``[0, end)`` that is not ``referenced`` is free."""
        self.starts, self.stops, self.pages = [], [], 0
        at = 0
        for page_id in sorted(p for p in set(referenced) if p < end):
            if page_id > at:
                self._append(at, page_id)
            at = page_id + 1
        if at < end:
            self._append(at, end)

    def _append(self, start: int, stop: int) -> None:
        self.starts.append(start)
        self.stops.append(stop)
        self.pages += stop - start


class DiskManager:
    """Allocate, read, and write fixed-size pages with I/O accounting.

    Reads and writes are serialized under an internal lock so concurrent
    scan workers (parallel partition scans) cannot interleave file
    seek/read pairs or corrupt the counters.

    Args:
        path: backing file path, or ``None`` for an in-memory store.
        page_size: page size in bytes; the paper's case study uses 1000 KB,
            scaled-down runs use smaller pages.
        verify_checksums: verify the frame trailer on every ``read_page``
            (on by default; turning it off trusts every frame on faith —
            used by the integrity benchmark to price the CRC).
        max_read_retries: bounded retries for transient read errors
            (``OSError`` from the medium, e.g. an injected EIO).
        retry_backoff_s: base backoff between transient-read retries;
            attempt *n* waits ``n * retry_backoff_s``.
    """

    def __init__(
        self,
        path: str | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        verify_checksums: bool = True,
        max_read_retries: int = 3,
        retry_backoff_s: float = 0.0005,
    ):
        if page_size < 64:
            raise StorageError(f"page size {page_size} is too small")
        self.page_size = page_size
        self.frame_size = page_size + PAGE_TRAILER_SIZE
        self.path = path
        self.verify_checksums = verify_checksums
        self.max_read_retries = max_read_retries
        self.retry_backoff_s = retry_backoff_s
        self.stats = IOStats()
        self.integrity = IntegrityRegistry()
        #: Optional FaultInjector observing page writes and fsyncs.
        self.faults = None
        #: Optional IoFaultInjector damaging reads / dropping writes.
        self.io_faults = None
        self._lock = threading.Lock()
        self._last_page: int | None = None  # disk head position
        self._free = FreeSpans()
        if path is None:
            self._pages: dict[int, bytearray] | None = {}
            self._file = None
            self._num_pages = 0
        else:
            self._pages = None
            exists = os.path.exists(path)
            self._file = open(path, "r+b" if exists else "w+b")
            self._file.seek(0, os.SEEK_END)
            size = self._file.tell()
            if size % self.frame_size:
                raise StorageError(
                    f"file size {size} is not a multiple of the frame size "
                    f"{self.frame_size}"
                )
            self._num_pages = size // self.frame_size
        #: Frames the file holds. Pages at or past it were allocated and
        #: never written (the file grows by being written, not by being
        #: allocated); they read as zeros, like an unwritten in-memory page.
        self._file_pages = self._num_pages

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            # Push dirty OS buffers to the medium: a non-checkpoint close
            # must not be a silent durability hole. Skipped when a fault
            # injector simulates fsync lies or an already-crashed store.
            skip_sync = self.faults is not None and (
                self.faults.fail_fsync or self.faults.fired
            )
            if not skip_sync:
                try:
                    self._file.flush()
                    os.fsync(self._file.fileno())
                except (OSError, ValueError):
                    pass
            self._file.close()
            self._file = None

    def __enter__(self) -> "DiskManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- allocation --------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of allocated pages (including freed-then-reusable ones)."""
        return self._num_pages

    @property
    def free_pages(self) -> int:
        """Pages below :attr:`num_pages` that the free-span map holds."""
        return self._free.pages

    @property
    def file_pages(self) -> int:
        """Frames the backing medium holds (allocated-and-never-written
        pages at the end of the file are not among them)."""
        if self._pages is not None:
            return len(self._pages)
        return self._file_pages

    def allocate_page(self) -> int:
        """Return a fresh (or recycled) page id, zero-filled."""
        with self._lock:
            page_id = self._take(1)
            self._write_raw(page_id, bytearray(self.page_size))
            return page_id

    def allocate_contiguous(self, count: int) -> list[int]:
        """Allocate ``count`` physically adjacent pages (an extent).

        The smallest free span that fits is reused; the file grows only
        when none does. Nothing is written: the caller fills every page
        before anything can read it, and until then a reused page still
        holds its previous tenant's bytes.
        """
        if count < 1:
            raise StorageError("cannot allocate fewer than 1 page")
        with self._lock:
            start = self._take(count)
            return list(range(start, start + count))

    def _take(self, count: int) -> int:
        """First id of ``count`` adjacent pages (lock held). A span holding
        a quarantined page is not reissued until a repair rewrote it."""
        start = self._free.take(count, list(self.integrity.quarantined))
        if start is None:
            start = self._num_pages
            self._num_pages += count
        return start

    def grow_to(self, num_pages: int) -> None:
        """Extend the allocated range to ``num_pages`` pages. Recovery
        replays images of pages past the end of a file that lost them; the
        pages in between stay unwritten (and unreferenced, hence free)."""
        with self._lock:
            self._num_pages = max(self._num_pages, num_pages)

    def free_page(self, page_id: int) -> None:
        with self._lock:
            self._check(page_id)
            if page_id in self._free:
                raise StorageError(
                    f"double free of page {page_id}: already on the free list"
                )
            self._free.add(page_id)

    def free_page_ids(self) -> set[int]:
        """Page ids currently free (scrub skips these)."""
        with self._lock:
            return self._free.page_ids()

    def free_spans(self) -> list[tuple[int, int]]:
        """The free map as sorted, coalesced ``[start, stop)`` spans."""
        with self._lock:
            return self._free.spans()

    def reset_free(self, referenced: Iterable[int]) -> None:
        """Derive the free map: every allocated page not in ``referenced``.

        The caller names every page something still owns — after open and
        after recovery that is exactly the pages of the catalog's runs (a
        run's secondary indexes are declared again, never reopened).
        """
        with self._lock:
            self._free.reset(self._num_pages, referenced)

    def truncate_free_tail(self) -> int:
        """Give a free span at the end of the file back to the file system;
        returns the number of pages dropped."""
        with self._lock:
            end = self._free.drop_tail(self._num_pages)
            dropped = self._num_pages - end
            if not dropped:
                return 0
            self._num_pages = end
            self.integrity.forget_pages_from(end)
            if self._last_page is not None and self._last_page >= end:
                self._last_page = None
            if self._pages is not None:
                for page_id in [p for p in self._pages if p >= end]:
                    del self._pages[page_id]
            elif self._file_pages > end:
                assert self._file is not None
                self._file.truncate(end * self.frame_size)
                self._file_pages = end
            return dropped

    # -- I/O -----------------------------------------------------------------

    def read_page(self, page_id: int) -> bytearray:
        """Read and verify one page, updating read and seek counters.

        Raises :class:`~repro.errors.CorruptPageError` when the frame fails
        checksum verification (and quarantines the page in the integrity
        registry); transient ``OSError`` reads are retried with backoff up
        to ``max_read_retries`` times.
        """
        with self._lock:
            self._check(page_id)
            self.stats.page_reads += 1
            if self._last_page is None or page_id != self._last_page + 1:
                self.stats.read_seeks += 1
            self._last_page = page_id
            return self._read_verified(page_id)

    def read_page_unchecked(self, page_id: int) -> bytearray:
        """Allow-path read: no checksum verification, short reads zero-pad.

        The migrator lays an old log's byte-range images over pages that
        may be torn or truncated, so it must bypass verification. Every
        other caller should use :meth:`read_page`.
        """
        with self._lock:
            self._check(page_id)
            self.stats.page_reads += 1
            if self._last_page is None or page_id != self._last_page + 1:
                self.stats.read_seeks += 1
            self._last_page = page_id
            frame = self._read_frame_raw(page_id)
        if frame is None:
            return bytearray(self.page_size)
        data = bytes(frame[: self.page_size])
        if len(data) < self.page_size:
            data = data.ljust(self.page_size, b"\x00")
        return bytearray(data)

    def _read_verified(self, page_id: int) -> bytearray:
        """Read one frame with transient-retry and checksum verification.

        Caller holds the lock. A checksum mismatch earns exactly one clean
        re-read (in-flight corruption on the wire heals; at-rest corruption
        does not) before the page is quarantined and the error raised.
        Every read pays the CRC — rot appearing between any two reads is
        caught on the next one; there is deliberately no memoization.
        """
        io_attempts = 0
        rereads = 0
        while True:
            try:
                frame = self._read_frame_raw(page_id)
                if self.io_faults is not None and frame is not None:
                    frame = self.io_faults.apply_read(
                        "page", bytes(frame), page_id
                    )
            except OSError as exc:
                io_attempts += 1
                self.integrity.record_transient_retry()
                if io_attempts <= self.max_read_retries:
                    time.sleep(self.retry_backoff_s * io_attempts)
                    continue
                raise StorageError(
                    f"I/O error reading page {page_id} after "
                    f"{io_attempts} attempts: {exc}"
                ) from exc
            if frame is None:
                # Allocated and never written: all zeros.
                return bytearray(self.page_size)
            if not self.verify_checksums:
                data = bytes(frame[: self.page_size])
                if len(data) < self.page_size:
                    data = data.ljust(self.page_size, b"\x00")
                return bytearray(data)
            # Inlined fast path of verify_frame() — this runs on every
            # page read, so the call + reason plumbing is skipped when
            # the frame is intact; verify_frame() names the failure.
            ps = self.page_size
            if (
                len(frame) == self.frame_size
                and frame[ps : ps + 8] == _TRAILER_PREFIX
            ):
                view = memoryview(frame)
                (stored,) = _CRC_FIELD.unpack_from(frame, ps + 8)
                if crc32(view[:ps]) & 0xFFFFFFFF == stored:
                    if rereads:
                        self.integrity.record_reread_recovery()
                    self.integrity.page_verifications += 1
                    return bytearray(view[:ps])
            _, reason = verify_frame(frame, ps)
            rereads += 1
            if rereads <= 1:
                continue
            self.integrity.record_page_failure(page_id, reason)
            raise CorruptPageError(page_id, reason)

    def write_page(self, page_id: int, data: bytes | bytearray) -> None:
        """Write one page (framing it with a fresh trailer), with counters."""
        with self._lock:
            self._check(page_id)
            if len(data) != self.page_size:
                raise StorageError(
                    f"page write of {len(data)} bytes != page size "
                    f"{self.page_size}"
                )
            action = None
            if self.faults is not None:
                action = self.faults.check("page")
            lost = False
            if self.io_faults is not None:
                try:
                    lost = self.io_faults.check_write("page", page_id) == "lost"
                except OSError as exc:
                    raise StorageError(
                        f"page {page_id} write failed: {exc}"
                    ) from exc
            self.stats.page_writes += 1
            if self._last_page is None or page_id != self._last_page + 1:
                self.stats.write_seeks += 1
            self._last_page = page_id
            if action == "torn":
                # A torn frame: only the first half reaches the medium, the
                # rest — including the trailer — keeps whatever bytes were
                # there before. The checksum catches this on the next read.
                half = self.page_size // 2
                old = self._read_frame_raw(page_id) or b""
                old = bytes(old).ljust(self.frame_size, b"\x00")
                torn = bytes(data[:half]) + old[half:]
                self._write_frame_raw(page_id, torn)
            elif not lost:
                self._write_raw(page_id, data)
        if action is not None:
            assert self.faults is not None
            self.faults.crash("page", action)

    def fsync(self) -> None:
        """Force written pages to stable storage (no-op when in-memory)."""
        if self._file is not None:
            if self.faults is not None and self.faults.fail_fsync:
                return
            self._file.flush()
            os.fsync(self._file.fileno())

    def _read_frame_raw(self, page_id: int) -> bytes | None:
        """Uncounted raw frame read; caller must hold the lock.

        Returns ``None`` for a page that was allocated and never written
        (absent in memory, at or past the end of the file), and possibly
        *short* bytes for a truncated file — verification decides what
        that means.
        """
        if self._pages is not None:
            frame = self._pages.get(page_id)
            return bytes(frame) if frame is not None else None
        if page_id >= self._file_pages:
            return None
        assert self._file is not None
        self._file.seek(page_id * self.frame_size)
        return self._file.read(self.frame_size)

    def _write_raw(self, page_id: int, data: bytes | bytearray) -> None:
        """Frame ``data`` with a fresh trailer and write it (lock held)."""
        self._write_frame_raw(page_id, bytes(data) + make_trailer(data))

    def _write_frame_raw(self, page_id: int, frame: bytes) -> None:
        if self._pages is not None:
            self._pages[page_id] = bytearray(frame)
            return
        assert self._file is not None
        if page_id > self._file_pages:
            # Allocated-and-unwritten pages below this one enter the file
            # now: give them the zero frames they are read as.
            zero = bytes(self.page_size)
            self._file.seek(self._file_pages * self.frame_size)
            self._file.write(
                (zero + make_trailer(zero)) * (page_id - self._file_pages)
            )
        self._file.seek(page_id * self.frame_size)
        self._file.write(frame)
        if page_id >= self._file_pages:
            self._file_pages = page_id + 1

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise StorageError(
                f"page id {page_id} out of range [0, {self._num_pages})"
            )

    # -- measurement ---------------------------------------------------------

    @contextmanager
    def measure(self) -> Iterator[IOStats]:
        """Context manager yielding the I/O delta accumulated in the block.

        Example::

            with disk.measure() as io:
                run_query()
            print(io.page_reads)
        """
        before = self.stats.snapshot()
        delta = IOStats()
        try:
            yield delta
        finally:
            after = self.stats.delta(before)
            delta.page_reads = after.page_reads
            delta.page_writes = after.page_writes
            delta.read_seeks = after.read_seeks
            delta.write_seeks = after.write_seeks

    def reset_head(self) -> None:
        """Forget the simulated head position (e.g. between queries)."""
        self._last_page = None
