"""Tests for repro.storage.buffer (buffer pool, LRU eviction,
thread-safety under concurrent scans)."""

import random
import threading

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_pool(capacity=4):
    disk = DiskManager(page_size=256)
    return BufferPool(disk, capacity=capacity), disk


class TestBasics:
    def test_fetch_reads_once(self):
        pool, disk = make_pool()
        a = disk.allocate_page()
        pool.fetch(a)
        pool.unpin(a)
        pool.fetch(a)
        pool.unpin(a)
        assert disk.obs["disk.page_reads"] == 1
        assert pool.obs["buffer_pool.hits"] == 1
        assert pool.obs["buffer_pool.misses"] == 1

    def test_new_page_is_dirty_and_pinned(self):
        pool, disk = make_pool()
        frame = pool.new_page()
        assert frame.dirty
        assert frame.pin_count == 1
        assert pool.contains(frame.page_id)

    def test_unpin_unknown_page(self):
        pool, _ = make_pool()
        with pytest.raises(BufferPoolError):
            pool.unpin(99)

    def test_unpin_not_pinned(self):
        pool, disk = make_pool()
        a = disk.allocate_page()
        pool.fetch(a)
        pool.unpin(a)
        with pytest.raises(BufferPoolError):
            pool.unpin(a)

    def test_dirty_flag_sticks(self):
        pool, disk = make_pool()
        a = disk.allocate_page()
        frame = pool.fetch(a)
        frame.data[0] = 0xAB
        pool.unpin(a, dirty=True)
        pool.flush(a)
        assert disk.read_page(a)[0] == 0xAB

    def test_flush_all(self):
        pool, disk = make_pool()
        frames = [pool.new_page() for _ in range(3)]
        for f in frames:
            f.data[0] = 1
            pool.unpin(f.page_id, dirty=True)
        pool.flush_all()
        for f in frames:
            assert disk.read_page(f.page_id)[0] == 1

    def test_invalid_config(self):
        disk = DiskManager(page_size=256)
        with pytest.raises(BufferPoolError):
            BufferPool(disk, capacity=0)


class TestEviction:
    def test_lru_evicts_oldest_unpinned(self):
        pool, disk = make_pool(capacity=2)
        a, b, c = (disk.allocate_page() for _ in range(3))
        pool.fetch(a); pool.unpin(a)
        pool.fetch(b); pool.unpin(b)
        pool.fetch(c); pool.unpin(c)  # evicts a
        assert not pool.contains(a)
        assert pool.contains(b) and pool.contains(c)
        assert pool.obs["buffer_pool.evictions"] == 1

    def test_lru_refresh_on_fetch(self):
        pool, disk = make_pool(capacity=2)
        a, b, c = (disk.allocate_page() for _ in range(3))
        pool.fetch(a); pool.unpin(a)
        pool.fetch(b); pool.unpin(b)
        pool.fetch(a); pool.unpin(a)  # refresh a; b is now oldest
        pool.fetch(c); pool.unpin(c)
        assert pool.contains(a)
        assert not pool.contains(b)

    def test_pinned_pages_survive(self):
        pool, disk = make_pool(capacity=2)
        a, b, c = (disk.allocate_page() for _ in range(3))
        pool.fetch(a)  # stays pinned
        pool.fetch(b); pool.unpin(b)
        pool.fetch(c); pool.unpin(c)  # must evict b, not a
        assert pool.contains(a)
        assert not pool.contains(b)

    def test_all_pinned_raises(self):
        pool, disk = make_pool(capacity=2)
        a, b, c = (disk.allocate_page() for _ in range(3))
        pool.fetch(a)
        pool.fetch(b)
        with pytest.raises(BufferPoolError):
            pool.fetch(c)

    def test_eviction_flushes_dirty(self):
        pool, disk = make_pool(capacity=1)
        a, b = disk.allocate_page(), disk.allocate_page()
        frame = pool.fetch(a)
        frame.data[0] = 0x77
        pool.unpin(a, dirty=True)
        pool.fetch(b)
        pool.unpin(b)
        assert disk.read_page(a)[0] == 0x77


class TestClear:
    def test_clear_flushes_and_drops(self):
        pool, disk = make_pool()
        frame = pool.new_page()
        frame.data[0] = 5
        pool.unpin(frame.page_id, dirty=True)
        pool.clear()
        assert len(pool) == 0
        assert disk.read_page(frame.page_id)[0] == 5

    def test_clear_refuses_pinned(self):
        pool, disk = make_pool()
        pool.new_page()  # pinned
        with pytest.raises(BufferPoolError):
            pool.clear()

    def test_hit_rate(self):
        pool, disk = make_pool()
        a = disk.allocate_page()
        pool.fetch(a); pool.unpin(a)
        pool.fetch(a); pool.unpin(a)
        hits, misses = pool.obs["buffer_pool.hits"], pool.obs["buffer_pool.misses"]
        assert hits / (hits + misses) == 0.5


class TestConcurrency:
    """The fetch/unpin/evict/flush paths race under parallel partition
    scans; this stress suite hammers them from many threads."""

    def test_concurrent_fetch_unpin_stress(self):
        pool, disk = make_pool(capacity=8)
        pages = [disk.allocate_page() for _ in range(64)]
        for page_id in pages:
            data = bytearray(256)
            data[0] = page_id % 251
            disk.write_page(page_id, data)
        errors: list[BaseException] = []
        iterations = 400

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(iterations):
                    page_id = rng.choice(pages)
                    frame = pool.fetch(page_id)
                    # Pinned frames are never evicted, so the data must
                    # stay readable (and correct) until unpin.
                    assert frame.data[0] == page_id % 251
                    pool.unpin(page_id)
            except BaseException as exc:  # propagated to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # Bookkeeping stayed consistent: every fetch was a hit or a miss
        # (racing double-misses may read the disk twice but only count
        # once each), nothing remains pinned, capacity was respected.
        hits, misses = pool.obs["buffer_pool.hits"], pool.obs["buffer_pool.misses"]
        assert hits + misses == 6 * iterations
        assert pool.pinned_pages() == []
        assert len(pool) <= pool.capacity

    def test_concurrent_miss_same_page(self):
        pool, disk = make_pool(capacity=4)
        page_id = disk.allocate_page()
        data = bytearray(256)
        data[0] = 0x42
        disk.write_page(page_id, data)
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait()
                for _ in range(50):
                    frame = pool.fetch(page_id)
                    assert frame.data[0] == 0x42
                    pool.unpin(page_id)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert pool.pinned_pages() == []
        # Exactly one frame for the page, however the misses raced.
        assert pool.contains(page_id) and len(pool) == 1

    def test_concurrent_flush_with_readers(self):
        pool, disk = make_pool(capacity=16)
        pages = [disk.allocate_page() for _ in range(8)]
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            rng = random.Random(99)
            try:
                while not stop.is_set():
                    page_id = rng.choice(pages)
                    pool.fetch(page_id)
                    pool.unpin(page_id, dirty=True)
            except BaseException as exc:
                errors.append(exc)

        def flusher() -> None:
            try:
                for _ in range(200):
                    pool.flush_all()
            except BaseException as exc:
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        flush_thread = threading.Thread(target=flusher)
        for t in readers:
            t.start()
        flush_thread.start()
        flush_thread.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors, errors
        assert pool.pinned_pages() == []


class TestInstall:
    """A bulk writer that bypassed the pool hands it what it wrote."""

    def test_installed_page_is_a_hit_and_clean(self):
        disk = DiskManager(page_size=128)
        pool = BufferPool(disk, capacity=2)
        (a,) = disk.allocate_contiguous(1)
        image = bytearray(b"\x07" * 128)
        disk.write_page(a, image)
        pool.install(a, image)
        reads = disk.obs["disk.page_reads"]
        frame = pool.fetch(a)
        assert bytes(frame.data) == image and not frame.dirty
        pool.unpin(a)
        assert disk.obs["disk.page_reads"] == reads
        hits, misses = pool.obs["buffer_pool.hits"], pool.obs["buffer_pool.misses"]
        assert (hits, misses) == (1, 0)

    def test_install_replaces_a_previous_tenants_frame(self):
        disk = DiskManager(page_size=128)
        pool = BufferPool(disk, capacity=2)
        a = disk.allocate_page()
        pool.unpin(pool.fetch(a).page_id)  # the old tenant, cached
        disk.write_page(a, b"\x09" * 128)
        pool.install(a, bytearray(b"\x09" * 128))
        frame = pool.fetch(a)
        assert bytes(frame.data) == b"\x09" * 128
        with pytest.raises(BufferPoolError):
            pool.install(a, bytearray(128))  # pinned: someone is reading it
        pool.unpin(a)
        assert len(pool) == 1

    def test_install_evicts_like_any_admission(self):
        disk = DiskManager(page_size=128)
        pool = BufferPool(disk, capacity=2)
        ids = disk.allocate_contiguous(3)
        for p in ids:
            pool.install(p, bytearray(128))
        assert len(pool) == 2 and not pool.contains(ids[0])
