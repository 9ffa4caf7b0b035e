"""On-disk page formats.

Two page kinds are used by the layout renderers:

* :class:`SlottedPage` — classic slotted page for variable-length records
  (row layouts, nested layouts). Header, then record heap growing forward,
  then a slot directory growing backward from the end of the page.
* :class:`BytePage` — a raw byte container used for column chunks, compressed
  blocks, and index nodes: a header plus a single payload.

Both carry a small common header::

    magic  u16 | page_type u8 | reserved u8 | next_page_id i64

``next_page_id`` chains pages belonging to the same storage object, letting
cursors walk an object without consulting the catalog.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterator

from repro.errors import PageError

MAGIC = 0x5257  # "RW" — RodentStore-Writable
NO_PAGE = -1

PAGE_TYPE_FREE = 0
PAGE_TYPE_SLOTTED = 1
PAGE_TYPE_BYTES = 2
PAGE_TYPE_INDEX = 3

_COMMON_HEADER = struct.Struct("<HBBq")  # magic, type, reserved, next_page_id
_SLOTTED_EXTRA = struct.Struct("<II")  # slot_count, free_offset
_SLOT = struct.Struct("<II")  # offset, length (length==0xFFFFFFFF => deleted)
_BYTES_EXTRA = struct.Struct("<I")  # payload length

_DELETED = 0xFFFFFFFF

COMMON_HEADER_SIZE = _COMMON_HEADER.size
SLOTTED_HEADER_SIZE = COMMON_HEADER_SIZE + _SLOTTED_EXTRA.size
BYTES_HEADER_SIZE = COMMON_HEADER_SIZE + _BYTES_EXTRA.size


@lru_cache(maxsize=64)
def _packed_directory(page_size: int, record_size: int) -> bytes:
    """Slot directory of a page filled to capacity with ``record_size``-byte
    records laid back to back from ``SLOTTED_HEADER_SIZE``.

    Slot ``i`` sits at a fixed distance from the end of the page, so the
    directory of the first ``n`` such records is this one's last
    ``n * _SLOT.size`` bytes — whatever ``n`` is.
    """
    capacity = SlottedPage.packed_capacity(page_size, record_size)
    entries: list[int] = []
    for slot_id in reversed(range(capacity)):
        entries += (SLOTTED_HEADER_SIZE + slot_id * record_size, record_size)
    return struct.pack(f"<{len(entries)}I", *entries)


class SlottedPage:
    """A slotted page over a fixed-size buffer.

    The page does not know its own id; ids live in the disk manager / layout
    metadata. Slot ids are stable across deletions (deleted slots become
    tombstones) but not across compaction.
    """

    def __init__(self, page_size: int, buffer: bytearray | None = None):
        if page_size < SLOTTED_HEADER_SIZE + _SLOT.size + 1:
            raise PageError(f"page size {page_size} too small")
        self.page_size = page_size
        if buffer is None:
            self.buffer = bytearray(page_size)
            self.next_page_id = NO_PAGE
            self._slot_count = 0
            self._free_offset = SLOTTED_HEADER_SIZE
            self._write_header()
        else:
            if len(buffer) != page_size:
                raise PageError(
                    f"buffer size {len(buffer)} != page size {page_size}"
                )
            self.buffer = buffer
            self._read_header()

    # -- header -------------------------------------------------------------

    def _write_header(self) -> None:
        _COMMON_HEADER.pack_into(
            self.buffer, 0, MAGIC, PAGE_TYPE_SLOTTED, 0, self.next_page_id
        )
        _SLOTTED_EXTRA.pack_into(
            self.buffer, COMMON_HEADER_SIZE, self._slot_count, self._free_offset
        )

    def _read_header(self) -> None:
        magic, page_type, _, next_pid = _COMMON_HEADER.unpack_from(self.buffer, 0)
        if magic != MAGIC or page_type != PAGE_TYPE_SLOTTED:
            raise PageError(
                f"not a slotted page (magic={magic:#x}, type={page_type})"
            )
        self.next_page_id = next_pid
        self._slot_count, self._free_offset = _SLOTTED_EXTRA.unpack_from(
            self.buffer, COMMON_HEADER_SIZE
        )
        directory_start = self.page_size - self._slot_count * _SLOT.size
        if not SLOTTED_HEADER_SIZE <= self._free_offset <= directory_start:
            raise PageError(
                f"corrupt slotted header: {self._slot_count} slots, heap "
                f"ends at {self._free_offset} in a {self.page_size}-byte page"
            )

    def set_next_page_id(self, page_id: int) -> None:
        self.next_page_id = page_id
        self._write_header()

    # -- capacity -------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return self._slot_count

    @property
    def directory_offset(self) -> int:
        """Where the slot directory starts; it runs to the end of the page,
        slot 0 last."""
        return self.page_size - self._slot_count * _SLOT.size

    @property
    def heap_end(self) -> int:
        """Where the record heap ends (it starts at ``SLOTTED_HEADER_SIZE``)."""
        return self._free_offset

    def _slot_offset(self, slot_id: int) -> int:
        return self.page_size - (slot_id + 1) * _SLOT.size

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        directory_start = self.page_size - self._slot_count * _SLOT.size
        gap = directory_start - self._free_offset
        return max(0, gap - _SLOT.size)

    def can_fit(self, record_size: int) -> bool:
        return record_size <= self.free_space()

    # -- record operations ------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Append a record, returning its slot id.

        Raises:
            PageError: when the record does not fit.
        """
        if not self.can_fit(len(record)):
            raise PageError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_space()} free)"
            )
        offset = self._free_offset
        self.buffer[offset : offset + len(record)] = record
        slot_id = self._slot_count
        _SLOT.pack_into(self.buffer, self._slot_offset(slot_id), offset, len(record))
        self._slot_count += 1
        self._free_offset = offset + len(record)
        self._write_header()
        return slot_id

    def get(self, slot_id: int) -> bytes:
        """Return the record stored in ``slot_id``.

        Raises:
            PageError: when the slot is out of range or deleted.
        """
        offset, length = self._slot(slot_id)
        if length == _DELETED:
            raise PageError(f"slot {slot_id} is deleted")
        self._check_extent(slot_id, offset, length)
        return bytes(self.buffer[offset : offset + length])

    def delete(self, slot_id: int) -> None:
        """Tombstone a slot; space is reclaimed by :meth:`compact`."""
        offset, length = self._slot(slot_id)
        if length == _DELETED:
            raise PageError(f"slot {slot_id} already deleted")
        _SLOT.pack_into(self.buffer, self._slot_offset(slot_id), offset, _DELETED)

    def is_deleted(self, slot_id: int) -> bool:
        _, length = self._slot(slot_id)
        return length == _DELETED

    def update(self, slot_id: int, record: bytes) -> int:
        """Replace a record in place when it fits, else delete + reinsert.

        Returns the (possibly new) slot id of the record.
        """
        offset, length = self._slot(slot_id)
        if length == _DELETED:
            raise PageError(f"slot {slot_id} is deleted")
        if len(record) <= length:
            self.buffer[offset : offset + len(record)] = record
            _SLOT.pack_into(
                self.buffer, self._slot_offset(slot_id), offset, len(record)
            )
            return slot_id
        self.delete(slot_id)
        return self.insert(record)

    def _slot(self, slot_id: int) -> tuple[int, int]:
        if not 0 <= slot_id < self._slot_count:
            raise PageError(
                f"slot {slot_id} out of range (page has {self._slot_count})"
            )
        return _SLOT.unpack_from(self.buffer, self._slot_offset(slot_id))

    def _check_extent(self, slot_id: int, offset: int, length: int) -> None:
        if offset < SLOTTED_HEADER_SIZE or offset + length > self._free_offset:
            raise PageError(
                f"slot {slot_id} spans [{offset}, {offset + length}), outside "
                f"the record heap [{SLOTTED_HEADER_SIZE}, {self._free_offset})"
            )

    def live_slots(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(slot_id, offset, length)`` for all live slots in order.

        The directory is read with one bulk unpack; a live slot whose
        extent leaves the record heap raises :class:`PageError` rather
        than naming bytes of the header, the directory or another page.
        """
        count = self._slot_count
        directory = struct.unpack_from(
            f"<{2 * count}I", self.buffer, self.directory_offset
        )
        # The directory grows backward: slot 0 is its last entry.
        slots = zip(directory[-2::-2], directory[-1::-2])
        heap_end = self._free_offset
        for slot_id, (offset, length) in enumerate(slots):
            if length != _DELETED:
                if offset < SLOTTED_HEADER_SIZE or offset + length > heap_end:
                    self._check_extent(slot_id, offset, length)  # raises
                yield slot_id, offset, length

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot_id, record_bytes)`` for all live slots in order."""
        for slot_id, offset, length in self.live_slots():
            yield slot_id, bytes(self.buffer[offset : offset + length])

    # -- packed pages -----------------------------------------------------
    #
    # A page is *packed* when every slot is live and its records, all of
    # one length, lie back to back from ``SLOTTED_HEADER_SIZE`` to the end
    # of the heap — what appending equal-length records to an empty page
    # produces, and therefore what every render of a fixed-width schema
    # writes. Readers and writers can then treat the heap as one array.

    @staticmethod
    def packed_capacity(page_size: int, record_size: int) -> int:
        """How many ``record_size``-byte records one empty page holds."""
        return (page_size - SLOTTED_HEADER_SIZE) // (record_size + _SLOT.size)

    def packed_count(self, record_size: int) -> int:
        """Records on the page when it is packed with ``record_size``-byte
        records, else 0 (an empty page has nothing to read either way)."""
        count = self._slot_count
        if (
            not count
            or self._free_offset != SLOTTED_HEADER_SIZE + count * record_size
        ):
            return 0
        directory = _packed_directory(self.page_size, record_size)
        size = count * _SLOT.size
        # The header check above bounds count by the packed capacity.
        if self.buffer[self.page_size - size :] != directory[-size:]:
            return 0
        return count

    def set_packed(self, count: int, record_size: int) -> None:
        """Declare ``count`` records of ``record_size`` bytes that the
        caller has laid back to back into ``buffer`` from
        ``SLOTTED_HEADER_SIZE``: one directory write and one header write,
        byte-identical to ``count`` :meth:`insert` calls on an empty page.
        """
        if self._slot_count:
            raise PageError("only an empty page can be declared packed")
        if count > self.packed_capacity(self.page_size, record_size):
            raise PageError(
                f"{count} records of {record_size} bytes do not fit"
            )
        if count:
            size = count * _SLOT.size
            directory = _packed_directory(self.page_size, record_size)
            self.buffer[self.page_size - size :] = directory[-size:]
        self._slot_count = count
        self._free_offset = SLOTTED_HEADER_SIZE + count * record_size
        self._write_header()

    def compact(self) -> None:
        """Rewrite the heap dropping tombstones; slot ids are reassigned."""
        live = [record for _, record in self.records()]
        next_pid = self.next_page_id
        self.buffer = bytearray(self.page_size)
        self.next_page_id = next_pid
        self._slot_count = 0
        self._free_offset = SLOTTED_HEADER_SIZE
        self._write_header()
        for record in live:
            self.insert(record)


class BytePage:
    """A page holding one raw byte payload (column chunk, index node, ...)."""

    def __init__(self, page_size: int, buffer: bytearray | None = None):
        if page_size < BYTES_HEADER_SIZE + 1:
            raise PageError(f"page size {page_size} too small")
        self.page_size = page_size
        if buffer is None:
            self.buffer = bytearray(page_size)
            self.next_page_id = NO_PAGE
            self._length = 0
            self._write_header()
        else:
            if len(buffer) != page_size:
                raise PageError(
                    f"buffer size {len(buffer)} != page size {page_size}"
                )
            self.buffer = buffer
            self._read_header()

    def _write_header(self) -> None:
        _COMMON_HEADER.pack_into(
            self.buffer, 0, MAGIC, PAGE_TYPE_BYTES, 0, self.next_page_id
        )
        _BYTES_EXTRA.pack_into(self.buffer, COMMON_HEADER_SIZE, self._length)

    def _read_header(self) -> None:
        magic, page_type, _, next_pid = _COMMON_HEADER.unpack_from(self.buffer, 0)
        if magic != MAGIC or page_type != PAGE_TYPE_BYTES:
            raise PageError(
                f"not a byte page (magic={magic:#x}, type={page_type})"
            )
        self.next_page_id = next_pid
        (self._length,) = _BYTES_EXTRA.unpack_from(self.buffer, COMMON_HEADER_SIZE)

    def set_next_page_id(self, page_id: int) -> None:
        self.next_page_id = page_id
        self._write_header()

    @property
    def capacity(self) -> int:
        return self.page_size - BYTES_HEADER_SIZE

    def write(self, payload: bytes) -> None:
        """Store ``payload``, replacing any previous content."""
        if len(payload) > self.capacity:
            raise PageError(
                f"payload of {len(payload)} bytes exceeds capacity "
                f"{self.capacity}"
            )
        self._length = len(payload)
        start = BYTES_HEADER_SIZE
        self.buffer[start : start + len(payload)] = payload
        self._write_header()

    def read(self) -> bytes:
        start = BYTES_HEADER_SIZE
        return bytes(self.buffer[start : start + self._length])


def page_type_of(buffer: bytes | bytearray) -> int:
    """Inspect a raw buffer's page type without fully parsing it."""
    if len(buffer) < COMMON_HEADER_SIZE:
        raise PageError("buffer smaller than a page header")
    magic, page_type, _, _ = _COMMON_HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        return PAGE_TYPE_FREE
    return page_type
