"""Tests for repro.storage.disk (page store, I/O accounting)."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import DiskManager, IOStats


class TestAllocation:
    def test_allocate_sequential_ids(self, disk):
        ids = [disk.allocate_page() for _ in range(4)]
        assert ids == [0, 1, 2, 3]
        assert disk.num_pages == 4

    def test_allocate_contiguous(self, disk):
        disk.allocate_page()
        ids = disk.allocate_contiguous(5)
        assert ids == [1, 2, 3, 4, 5]

    def test_allocate_contiguous_requires_positive(self, disk):
        with pytest.raises(StorageError):
            disk.allocate_contiguous(0)

    def test_free_page_recycled(self, disk):
        a = disk.allocate_page()
        disk.free_page(a)
        b = disk.allocate_page()
        assert b == a

    def test_freed_page_zeroed_on_reuse(self, disk):
        a = disk.allocate_page()
        disk.write_page(a, b"\xff" * disk.page_size)
        disk.free_page(a)
        b = disk.allocate_page()
        assert disk.read_page(b) == bytearray(disk.page_size)

    def test_small_page_size_rejected(self):
        with pytest.raises(StorageError):
            DiskManager(page_size=32)


class TestReadWrite:
    def test_roundtrip(self, disk):
        a = disk.allocate_page()
        data = bytes(range(256)) * (disk.page_size // 256)
        disk.write_page(a, data)
        assert bytes(disk.read_page(a)) == data

    def test_write_wrong_size(self, disk):
        a = disk.allocate_page()
        with pytest.raises(StorageError):
            disk.write_page(a, b"short")

    def test_out_of_range(self, disk):
        with pytest.raises(StorageError):
            disk.read_page(0)
        disk.allocate_page()
        with pytest.raises(StorageError):
            disk.read_page(5)
        with pytest.raises(StorageError):
            disk.read_page(-1)


class TestSeekAccounting:
    def test_sequential_reads_one_seek(self, disk):
        ids = disk.allocate_contiguous(10)
        disk.reset_head()
        with disk.measure() as io:
            for page_id in ids:
                disk.read_page(page_id)
        assert io.page_reads == 10
        assert io.read_seeks == 1  # initial positioning only

    def test_random_reads_many_seeks(self, disk):
        ids = disk.allocate_contiguous(10)
        disk.reset_head()
        with disk.measure() as io:
            for page_id in [0, 5, 1, 9, 2]:
                disk.read_page(page_id)
        assert io.read_seeks == 5

    def test_backward_adjacent_counts_as_seek(self, disk):
        disk.allocate_contiguous(3)
        disk.reset_head()
        with disk.measure() as io:
            disk.read_page(2)
            disk.read_page(1)  # backwards: a seek
        assert io.read_seeks == 2

    def test_write_seeks(self, disk):
        ids = disk.allocate_contiguous(4)
        disk.reset_head()
        data = bytes(disk.page_size)
        with disk.measure() as io:
            disk.write_page(ids[0], data)
            disk.write_page(ids[1], data)
            disk.write_page(ids[3], data)
        assert io.page_writes == 3
        assert io.write_seeks == 2

    def test_reads_continue_from_write_position(self, disk):
        ids = disk.allocate_contiguous(3)
        disk.reset_head()
        with disk.measure() as io:
            disk.write_page(ids[0], bytes(disk.page_size))
            disk.read_page(ids[1])  # adjacent to the write head
        assert io.read_seeks == 0


class TestMeasure:
    def test_measure_delta(self, disk):
        ids = disk.allocate_contiguous(4)
        disk.read_page(ids[0])
        with disk.measure() as io:
            disk.read_page(ids[1])
            disk.read_page(ids[2])
        assert io.page_reads == 2
        assert disk.obs["disk.page_reads"] == 3

    def test_measure_nested_operations(self, disk):
        ids = disk.allocate_contiguous(2)
        with disk.measure() as io:
            disk.write_page(ids[0], bytes(disk.page_size))
        assert io.page_writes == 1
        assert io.page_reads == 0


class TestIOStats:
    """``IOStats`` is the value a measured block returns; its counters
    are the registry's (``tests/test_obs.py``)."""

    def test_equality(self):
        assert IOStats(1, 2, 3, 4) == IOStats(1, 2, 3, 4)
        assert IOStats(1, 2, 3, 4) != IOStats(0, 2, 3, 4)


class TestFileBackend:
    def test_persistence_across_instances(self, tmp_path):
        path = str(tmp_path / "db.pages")
        with DiskManager(path, page_size=256) as disk:
            a = disk.allocate_page()
            disk.write_page(a, b"\xab" * 256)
        with DiskManager(path, page_size=256) as disk:
            assert disk.num_pages == 1
            assert bytes(disk.read_page(0)) == b"\xab" * 256

    def test_nonmultiple_size_rejected(self, tmp_path):
        path = tmp_path / "bad.pages"
        path.write_bytes(b"x" * 100)
        with pytest.raises(StorageError):
            DiskManager(str(path), page_size=256)

    def test_file_seek_accounting_matches_memory(self, tmp_path):
        mem = DiskManager(page_size=256)
        fil = DiskManager(str(tmp_path / "f.pages"), page_size=256)
        measured = []
        for disk in (mem, fil):
            ids = disk.allocate_contiguous(6)
            disk.reset_head()
            with disk.measure() as io:
                for page_id in [0, 1, 2, 5, 4]:
                    disk.read_page(page_id)
            measured.append(io)
        assert measured[0] == measured[1]
        fil.close()
