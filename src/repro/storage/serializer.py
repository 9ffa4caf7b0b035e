"""Record and vector serialization built on the :mod:`struct` module.

Record wire format (used by slotted pages)::

    [null bitmap: ceil(n/8) bytes]
    [fixed-size fields packed with struct, in schema order]
    [for each variable-size field, in schema order: u32 length + payload]

Null fields contribute zeroed placeholder bytes in the fixed section and a
zero-length payload in the variable section, keeping offsets computable.

Whole slotted pages of records go through :meth:`RecordSerializer.decode_page`
and :meth:`RecordSerializer.encode_page` — the one place a row page is turned
into column vectors, or a run of records into a page image. A *packed* page
(fixed-width numeric records back to back, every slot live) is recognised by
:meth:`RecordSerializer.packed_heap`; its record heap — or the heaps of
several such pages laid end to end, which is how a rows run is read a batch
of pages at a time — becomes columns in one
:meth:`RecordSerializer.decode_heap`.

Vector wire format (used by column chunks)::

    [u32 count][encoded values...]            fixed-size element type
    [u32 count][u32 len + payload]...         variable-size element type
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Sequence

from repro import vector
from repro.errors import SerializationError
from repro.storage.page import SLOTTED_HEADER_SIZE, SlottedPage
from repro.types.schema import Schema
from repro.types.types import DataType

_U32 = struct.Struct("<I")


class RecordSerializer:
    """Encode/decode records of a fixed :class:`Schema` to bytes."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._fixed_fields: list[tuple[int, DataType]] = []
        self._var_fields: list[tuple[int, DataType]] = []
        fmt = "<"
        for i, field in enumerate(schema.fields):
            if field.dtype.struct_format is not None:
                self._fixed_fields.append((i, field.dtype))
                fmt += field.dtype.struct_format
            else:
                self._var_fields.append((i, field.dtype))
        self._fixed_struct = struct.Struct(fmt)
        self._bitmap_size = (len(schema.fields) + 7) // 8
        # A record's null bitmap and fixed section in one unpack.
        self._head_struct = struct.Struct(f"<{self._bitmap_size}s{fmt[1:]}")
        # Schemas made only of 8-byte numeric fields have one record size,
        # so their pages can be read and written as arrays (the *packed*
        # shape of :class:`SlottedPage`); "" for every other schema.
        codes = [vector.typecode_for(f.dtype) or "" for f in schema.fields]
        self._packed_codes = "".join(codes) if all(codes) else ""
        # Schemas whose fixed fields are all 8-byte numerics (the others
        # being strings or bytes) decode a page in one vector pass
        # (:func:`repro.vector.from_slots`); None for every other schema.
        fixed = [vector.typecode_for(dtype) for _, dtype in self._fixed_fields]
        self._slot_codes = None if None in fixed else "".join(fixed)
        self._var_texts = [d.name != "bytes" for _, d in self._var_fields]
        # Where each field lies among from_slots' columns (fixed ones first).
        stored = [i for i, _ in self._fixed_fields + self._var_fields]
        self._slot_order = sorted(range(len(stored)), key=stored.__getitem__)
        #: Bytes of one record's bitmap and fixed section — the whole record
        #: of a packed page.
        self.record_size = self._bitmap_size + self._fixed_struct.size

    # -- encoding ----------------------------------------------------------

    def encode(self, record: Sequence[Any]) -> bytes:
        """Serialize one record; ``None`` values are recorded as nulls."""
        if len(record) != len(self.schema.fields):
            raise SerializationError(
                f"record arity {len(record)} != schema arity "
                f"{len(self.schema.fields)}"
            )
        bitmap = bytearray(self._bitmap_size)
        fixed_values = []
        for i, dtype in self._fixed_fields:
            value = record[i]
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
                fixed_values.append(_zero_for(dtype))
            else:
                fixed_values.append(_coerce_fixed(dtype, value))
        parts = [bytes(bitmap)]
        try:
            parts.append(self._fixed_struct.pack(*fixed_values))
        except struct.error as exc:
            raise SerializationError(
                f"cannot pack record {record!r}: {exc}"
            ) from exc
        for i, dtype in self._var_fields:
            value = record[i]
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
                parts.append(_U32.pack(0))
            else:
                payload = _encode_var(dtype, value)
                parts.append(_U32.pack(len(payload)))
                parts.append(payload)
        parts[0] = bytes(bitmap)
        return b"".join(parts)

    def decode(self, data: bytes | memoryview) -> tuple:
        """Deserialize one record previously produced by :meth:`encode`."""
        data = bytes(data)
        if len(data) < self._bitmap_size + self._fixed_struct.size:
            raise SerializationError(
                f"record buffer too short ({len(data)} bytes)"
            )
        bitmap = data[: self._bitmap_size]
        try:
            fixed = self._fixed_struct.unpack_from(data, self._bitmap_size)
        except struct.error as exc:
            raise SerializationError(str(exc)) from exc
        values: list[Any] = [None] * len(self.schema.fields)
        for (i, dtype), raw in zip(self._fixed_fields, fixed):
            if not _is_null(bitmap, i):
                values[i] = raw
        offset = self._bitmap_size + self._fixed_struct.size
        for i, dtype in self._var_fields:
            if offset + 4 > len(data):
                raise SerializationError("truncated variable-length section")
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            if offset + length > len(data):
                raise SerializationError("truncated variable-length payload")
            if not _is_null(bitmap, i):
                values[i] = _decode_var(dtype, data[offset : offset + length])
            offset += length
        return tuple(values)

    # -- whole pages --------------------------------------------------------

    def decode_page(self, buffer: bytes | bytearray, page_size: int) -> list:
        """Every live record of the slotted page in ``buffer``, in slot
        order, as one value vector per schema field.

        A packed page — what rendering a schema of 8-byte numeric fields
        always writes — goes through :meth:`decode_heap`. A null-free page
        of a schema whose other fields are strings or bytes (tombstoned and
        in-place-updated slots included) is one
        :func:`repro.vector.from_slots` pass: typed vectors for the numeric
        fields, lists for the others. Any other page (bool fields, nulls,
        damage, numpy off) is read in one walk of the slot directory,
        straight off the page buffer, into plain lists holding the same
        values, so callers never branch.

        Raises:
            PageError: when the header or a live slot is out of bounds.
            SerializationError: when a record does not parse.
        """
        page = SlottedPage(page_size, buffer)
        heap = self.packed_heap(page)
        if heap is not None:
            return self.decode_heap(heap)
        if self._slot_codes is not None:
            columns = vector.from_slots(
                page.buffer,
                page.directory_offset,
                page.slot_count,
                (SLOTTED_HEADER_SIZE, page.heap_end),
                self._bitmap_size,
                self._slot_codes,
                self._var_texts,
            )
            if columns is not None:
                return [columns[i] for i in self._slot_order]
        return self._decode_slots(
            buffer, ((offset, length) for _, offset, length in page.live_slots())
        )

    def packed_heap(self, page: SlottedPage) -> memoryview | None:
        """A view of ``page``'s record heap when the page is packed with
        this schema's records, else ``None`` — the one packed-page test.
        The view shares the page buffer: copy or decode it before the
        buffer's frame is unpinned."""
        if not self._packed_codes:
            return None
        count = page.packed_count(self.record_size)
        if not count:
            return None
        end = SLOTTED_HEADER_SIZE + count * self.record_size
        return memoryview(page.buffer)[SLOTTED_HEADER_SIZE:end]

    def decode_heap(self, heap) -> list:
        """Records of this (packed) schema laid back to back in ``heap`` —
        one page's record heap or several concatenated — as one vector per
        field. Null-free records are lifted out as typed vectors by
        :func:`repro.vector.from_records`, with no per-record Python;
        records carrying null flags are read record by record into lists."""
        count = len(heap) // self.record_size
        columns = vector.from_records(
            heap, 0, count, self._bitmap_size, self._packed_codes
        )
        if columns is not None:
            return columns
        size = self.record_size
        return self._decode_slots(
            heap, ((offset, size) for offset in range(0, count * size, size))
        )

    def _decode_slots(self, buffer, slots) -> list:
        """Records at the ``(offset, length)`` ``slots`` of ``buffer``, as
        one list per field (``None`` where a record's null bit is set)."""
        unpack_head = self._head_struct.unpack_from
        head_size = self.record_size
        no_nulls = bytes(self._bitmap_size)
        variable = [
            (dtype.name == "bytes", []) for _, dtype in self._var_fields
        ]
        heads: list[tuple] = []  # (null bitmap, *fixed values) per record
        nulls: list[tuple[int, bytes]] = []  # (row, bitmap) where one is set
        for offset, length in slots:
            if length < head_size:
                raise SerializationError(
                    f"record buffer too short ({length} bytes)"
                )
            head = unpack_head(buffer, offset)
            at, end = offset + head_size, offset + length
            for is_bytes, column in variable:
                if at + 4 > end:
                    raise SerializationError("truncated variable-length section")
                (size,) = _U32.unpack_from(buffer, at)
                at += 4
                if at + size > end:
                    raise SerializationError("truncated variable-length payload")
                payload = buffer[at : at + size]
                column.append(bytes(payload) if is_bytes else payload.decode("utf-8"))
                at += size
            if head[0] != no_nulls:
                nulls.append((len(heads), head[0]))
            heads.append(head)
        columns: list[list] = [[] for _ in self.schema.fields]
        for (i, _), column in zip(self._fixed_fields, list(zip(*heads))[1:]):
            columns[i] = list(column)
        for (i, _), (_, column) in zip(self._var_fields, variable):
            columns[i] = column
        for row, bitmap in nulls:
            for i, column in enumerate(columns):
                if _is_null(bitmap, i):
                    column[row] = None
        return columns

    def encode_page(
        self, records: Sequence[Sequence[Any]], start: int, page_size: int
    ) -> tuple[SlottedPage, int]:
        """Fill one fresh slotted page with ``records[start:]``.

        Returns the page and how many records it took. The image is
        byte-identical to ``insert(encode(record))`` per record; schemas of
        8-byte numeric fields pack a page's worth of records straight into
        the page buffer and write directory and header once.

        Raises:
            PageError: when a single record exceeds the page capacity.
        """
        page = SlottedPage(page_size)
        if self._packed_codes:
            capacity = SlottedPage.packed_capacity(page_size, self.record_size)
            chunk = records[start : start + capacity]
            if chunk and self._pack_records(page.buffer, chunk):
                page.set_packed(len(chunk), self.record_size)
                return page, len(chunk)
            page = SlottedPage(page_size)  # a failed pack leaves debris
        count = 0
        for i in range(start, len(records)):
            blob = self.encode(records[i])
            if count and not page.can_fit(len(blob)):
                break
            page.insert(blob)
            count += 1
        return page, count

    def encode_pages(self, columns: Sequence, page_size: int) -> list[SlottedPage]:
        """The records ``columns`` hold (one vector per field) as a run of
        slotted pages (one empty page for none), each image byte-identical
        to :meth:`encode_page`'s. Schemas of 8-byte numeric fields whose
        columns are typed vectors of their fields' types pack from the
        columns (:func:`repro.vector.pack_records`) a page's worth of
        record bytes at a time; any other run encodes its rows."""
        n = len(columns[0]) if columns else 0
        heap = None
        if self._packed_codes and n:
            heap = vector.pack_records(
                columns, self._packed_codes, self._bitmap_size
            )
        pages: list[SlottedPage] = []
        if heap is not None:
            size = self.record_size
            capacity = SlottedPage.packed_capacity(page_size, size)
            for start in range(0, n, capacity):
                count = min(capacity, n - start)
                page = SlottedPage(page_size)
                at = SLOTTED_HEADER_SIZE
                page.buffer[at : at + count * size] = heap[
                    start * size : (start + count) * size
                ]
                page.set_packed(count, size)
                pages.append(page)
            return pages
        records = list(zip(*map(vector.to_list, columns)))
        start = 0
        while True:
            page, count = self.encode_page(records, start, page_size)
            pages.append(page)
            start += count
            if start >= len(records):
                return pages

    def _pack_records(self, buffer: bytearray, chunk: Sequence) -> bool:
        """Pack null-free ``chunk`` back to back into ``buffer`` from
        ``SLOTTED_HEADER_SIZE``; False when any record needs :meth:`encode`
        (a null, a value ``struct`` would coerce differently, an arity
        error to report) — ``buffer`` may then hold a partial write."""
        values = list(chain.from_iterable(chunk))
        if set(map(len, chunk)) != {len(self._packed_codes)} or not (
            set(map(type, values)) <= {int, float}
        ):
            return False
        record_format = f"{self._bitmap_size}x{self._packed_codes}"
        try:
            # One format per page length; struct caches the compiled form.
            struct.pack_into(
                "<" + record_format * len(chunk),
                buffer,
                SLOTTED_HEADER_SIZE,
                *values,
            )
        except (struct.error, OverflowError):
            return False
        return True

    def encoded_size(self, record: Sequence[Any]) -> int:
        """Byte length of :meth:`encode` without building the buffer."""
        size = self._bitmap_size + self._fixed_struct.size
        for i, dtype in self._var_fields:
            value = record[i]
            size += 4
            if value is not None:
                size += len(_encode_var(dtype, value))
        return size


class VectorSerializer:
    """Encode/decode homogeneous value vectors (column chunks).

    Two decoders over the one wire format: :meth:`decode` returns a list
    (B-tree keys, folded nests, array elements), :meth:`decode_buffer` a
    typed vector where the element type allows (column chunks).
    """

    def __init__(self, dtype: DataType):
        self.dtype = dtype
        if dtype.struct_format is not None:
            self._elem = struct.Struct("<" + dtype.struct_format)
        else:
            self._elem = None

    def encode(self, values: Sequence[Any]) -> bytes:
        n = len(values)
        if self._elem is not None:
            # A chunk is one pack call, not one per value; a typed vector
            # of the element type is already the packed bytes.
            fmt = self.dtype.struct_format
            packed = vector.packed_bytes(values, fmt)
            if packed is not None:
                return _U32.pack(n) + packed
            try:
                return struct.pack(f"<I{n}{fmt}", n, *values)
            except struct.error as exc:
                raise SerializationError(
                    f"cannot pack vector of {self.dtype.name}: {exc}"
                ) from exc
        parts = [_U32.pack(n)]
        for v in values:
            payload = _encode_var(self.dtype, v)
            parts.append(_U32.pack(len(payload)))
            parts.append(payload)
        return b"".join(parts)

    def decode(self, data: bytes | memoryview) -> list:
        """The vector's values as a list: one ``struct`` call for a
        fixed-size element type, one loop over the payloads otherwise."""
        data = bytes(data)
        if len(data) < 4:
            raise SerializationError("vector buffer too short")
        (count,) = _U32.unpack_from(data, 0)
        if self._elem is not None:
            if len(data) < 4 + count * self._elem.size:
                raise SerializationError("truncated fixed-size vector")
            fmt = self.dtype.struct_format
            return list(struct.unpack_from(f"<{count}{fmt}", data, 4))
        values: list[Any] = []
        offset = 4
        for _ in range(count):
            if offset + 4 > len(data):
                raise SerializationError("truncated vector header")
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            if offset + length > len(data):
                raise SerializationError("truncated vector payload")
            values.append(_decode_var(self.dtype, data[offset : offset + length]))
            offset += length
        return values

    def decode_buffer(self, data: bytes | memoryview):
        """Decode into a contiguous typed vector (numpy ``ndarray`` or
        stdlib ``array``) for 8-byte numeric element types, falling back
        to :meth:`decode`'s list for everything else. Same values either
        way — callers treat both shapes uniformly via
        :mod:`repro.vector`."""
        code = vector.typecode_for(self.dtype)
        if code is None:
            return self.decode(data)
        data = bytes(data)
        if len(data) < 4:
            raise SerializationError("vector buffer too short")
        (count,) = _U32.unpack_from(data, 0)
        if len(data) < 4 + count * self._elem.size:
            raise SerializationError("truncated fixed-size vector")
        return vector.from_bytes(data, 4, count, code)

    def encoded_size(self, values: Sequence[Any]) -> int:
        if self._elem is not None:
            return 4 + len(values) * self._elem.size
        return 4 + sum(4 + len(_encode_var(self.dtype, v)) for v in values)


# -- helpers ---------------------------------------------------------------


def _is_null(bitmap: bytes, index: int) -> bool:
    return bool(bitmap[index // 8] & (1 << (index % 8)))


def _zero_for(dtype: DataType) -> Any:
    if dtype.struct_format == "?":
        return False
    if dtype.struct_format == "d":
        return 0.0
    return 0


def _coerce_fixed(dtype: DataType, value: Any) -> Any:
    if dtype.struct_format == "d":
        return float(value)
    if dtype.struct_format == "?":
        return bool(value)
    if isinstance(value, bool):
        raise SerializationError(
            f"bool value {value!r} is not valid for type {dtype.name}"
        )
    return value


def _encode_var(dtype: DataType, value: Any) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise SerializationError(
        f"cannot encode {value!r} as variable-size {dtype.name}"
    )


def _decode_var(dtype: DataType, payload: bytes) -> Any:
    if dtype.name == "bytes":
        return payload
    return payload.decode("utf-8")
