"""Buffer pool with LRU eviction.

The paper motivates RodentStore partly by the "great deal of supporting code,
including transaction, lock, and memory management facilities" every storage
system must replicate — this module is the memory-management part. Layout
renderers and cursors fetch pages through the pool so repeated traversals hit
memory instead of the (simulated) disk.

The pool is **thread-safe**: parallel partition scans fetch/unpin from
worker threads concurrently, so the page table, pin counts, eviction, and
the ``buffer_pool.*`` counters (in the disk manager's registry,
:mod:`repro.obs`) are guarded by one re-entrant lock. Cache *misses* read
the disk outside the lock (two threads missing the same page race benignly
— the loser adopts the winner's frame), so a simulated-latency disk lets
concurrent readers overlap their waits. A pinned frame is never evicted,
which is what makes lock-free reads of ``frame.data`` between ``fetch`` and
``unpin`` safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator

from repro.errors import BufferPoolError, CorruptPageError
from repro.storage.disk import DiskManager


class Frame:
    """A buffer-pool frame: one in-memory page plus bookkeeping."""

    __slots__ = ("page_id", "data", "pin_count", "dirty")

    def __init__(self, page_id: int, data: bytearray):
        self.page_id = page_id
        self.data = data
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """Fixed-capacity page cache in front of a :class:`DiskManager`.

    Args:
        disk: the backing disk manager.
        capacity: number of frames.
    """

    def __init__(self, disk: DiskManager, capacity: int = 128):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.obs = disk.obs
        #: Optional callable ``page_id -> bytearray | None`` tried when a
        #: disk read raises :class:`~repro.errors.CorruptPageError`; the
        #: store wires its WAL after-image repair ladder here. Returning
        #: ``None`` (or being unset) re-raises the corruption.
        self.repair_handler = None
        self._frames: OrderedDict[int, Frame] = OrderedDict()
        self._lock = threading.RLock()

    # -- public API ---------------------------------------------------------

    def fetch(self, page_id: int) -> Frame:
        """Pin and return the frame for ``page_id``, reading it if absent."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.obs.add("buffer_pool.hits")
                frame.pin_count += 1
                self._frames.move_to_end(page_id)
                return frame
            self.obs.add("buffer_pool.misses")
        # Read outside the lock so concurrent misses overlap their I/O.
        try:
            data = self.disk.read_page(page_id)
        except CorruptPageError:
            if self.repair_handler is None:
                raise
            data = self.repair_handler(page_id)
            if data is None:
                raise
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                # Lost a concurrent-miss race: adopt the winner's frame
                # (the read above was redundant but harmless — pages are
                # immutable while readable).
                frame.pin_count += 1
                self._frames.move_to_end(page_id)
                return frame
            frame = Frame(page_id, data)
            frame.pin_count = 1
            self._admit(frame)
            return frame

    def new_page(self) -> Frame:
        """Allocate a fresh page on disk and return its pinned frame."""
        page_id = self.disk.allocate_page()
        with self._lock:
            frame = Frame(page_id, bytearray(self.disk.page_size))
            frame.pin_count = 1
            frame.dirty = True
            self._admit(frame)
            return frame

    def install(self, page_id: int, data: bytearray) -> None:
        """Cache ``data`` — just written to disk — as the page's clean,
        unpinned frame, in place of whatever a previous tenant of the page
        id left. A bulk writer that bypasses the pool calls this so its
        pages are warm for the next reader and never shadowed by a stale
        frame. The pool takes ``data`` itself, not a copy: the caller must
        not write to it again."""
        with self._lock:
            stale = self._frames.get(page_id)
            if stale is not None and stale.pin_count:
                raise BufferPoolError(
                    f"cannot replace page {page_id}: it is pinned"
                )
            self._frames.pop(page_id, None)
            self._admit(Frame(page_id, data))

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin; mark the frame dirty when it was modified."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise BufferPoolError(f"page {page_id} is not in the pool")
            if frame.pin_count <= 0:
                raise BufferPoolError(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if dirty:
                frame.dirty = True

    def flush(self, page_id: int) -> None:
        """Write a dirty frame back to disk (no-op when clean)."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise BufferPoolError(f"page {page_id} is not in the pool")
            if frame.dirty:
                self.disk.write_page(page_id, frame.data)
                frame.dirty = False
                self.obs.add("buffer_pool.flushes")

    def flush_all(self) -> None:
        with self._lock:
            for page_id in list(self._frames):
                self.flush(page_id)

    def clear(self) -> None:
        """Flush everything and drop all frames (e.g. between benchmarks)."""
        with self._lock:
            for frame in self._frames.values():
                if frame.pin_count:
                    raise BufferPoolError(
                        f"cannot clear pool: page {frame.page_id} is pinned"
                    )
            self.flush_all()
            self._frames.clear()

    def discard(self, page_id: int) -> None:
        """Drop a frame without flushing it (its page was freed).

        Freed pages must leave the pool immediately: a stale frame — clean
        or dirty — would otherwise shadow (or clobber, via a later flush)
        whatever a future reallocation writes to the recycled page id.
        No-op when the page is not resident.
        """
        with self._lock:
            self._frames.pop(page_id, None)

    def contains(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._frames

    def pinned_pages(self) -> list[int]:
        with self._lock:
            return [
                f.page_id for f in self._frames.values() if f.pin_count > 0
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        with self._lock:
            return iter(list(self._frames.values()))

    # -- eviction -------------------------------------------------------------

    def _admit(self, frame: Frame) -> None:
        if len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[frame.page_id] = frame

    def _evict_one(self) -> None:
        victim = self._pick_lru()
        if victim is None:
            raise BufferPoolError(
                "all frames are pinned; cannot evict "
                f"(capacity={self.capacity})"
            )
        frame = self._frames.pop(victim)
        if frame.dirty:
            self.disk.write_page(frame.page_id, frame.data)
            self.obs.add("buffer_pool.flushes")
        self.obs.add("buffer_pool.evictions")

    def _pick_lru(self) -> int | None:
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                return page_id
        return None
