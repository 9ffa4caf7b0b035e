"""End-to-end data integrity: page trailers, checksums, and the registry.

Every page the :class:`~repro.storage.disk.DiskManager` persists is framed
with a 16-byte trailer *outside* the logical page (slotted pages grow their
slot directory backward from the page end, so the trailer cannot live inside
the page image upper layers see)::

    | page_size bytes of page data | u32 magic | u32 version | u32 crc | u32 0 |

``read_page`` verifies the trailer and raises
:class:`~repro.errors.CorruptPageError` on mismatch; the
:class:`IntegrityRegistry` records every verification, failure, repair, and
degraded-read skip so ``store.storage_stats()["integrity"]`` can surface
them. The same registry counts WAL-record and catalog-checksum events.
"""

from __future__ import annotations

import struct
import threading
from binascii import crc32  # same CRC-32 as zlib's, marginally faster
from typing import Any

#: Frame trailer: magic, format version, CRC32 of the page data, reserved.
TRAILER = struct.Struct("<IIII")
PAGE_TRAILER_SIZE = TRAILER.size  # 16 bytes
TRAILER_MAGIC = 0x52435348  # "RCSH" — Rodent CheckSum Header
PAGE_FORMAT_VERSION = 1

#: Degraded-read skip events kept in memory (oldest dropped beyond this).
MAX_SKIP_EVENTS = 256


def checksum(data: bytes | bytearray | memoryview) -> int:
    """CRC32 of ``data`` as an unsigned 32-bit int (C speed)."""
    return crc32(data) & 0xFFFFFFFF


def make_trailer(data: bytes | bytearray) -> bytes:
    """Build the 16-byte frame trailer for one page of data."""
    return TRAILER.pack(TRAILER_MAGIC, PAGE_FORMAT_VERSION, checksum(data), 0)


#: Precomputed (magic, version) trailer prefix for the hot-path compare.
_TRAILER_PREFIX = struct.pack("<II", TRAILER_MAGIC, PAGE_FORMAT_VERSION)
_CRC_FIELD = struct.Struct("<I")


def verify_frame(frame: bytes, page_size: int) -> tuple[bool, str]:
    """Verify a full page frame (data + trailer); return ``(ok, reason)``."""
    if len(frame) < page_size + PAGE_TRAILER_SIZE:
        return False, (
            f"short read: {len(frame)} bytes < frame size "
            f"{page_size + PAGE_TRAILER_SIZE} (truncated page)"
        )
    # Hot path (every page read): one 8-byte compare + zero-copy CRC.
    if frame[page_size : page_size + 8] != _TRAILER_PREFIX:
        magic, version = struct.unpack_from("<II", frame, page_size)
        if magic != TRAILER_MAGIC:
            return False, f"bad trailer magic {magic:#010x}"
        return False, f"unsupported page format version {version}"
    (stored,) = _CRC_FIELD.unpack_from(frame, page_size + 8)
    actual = crc32(memoryview(frame)[:page_size]) & 0xFFFFFFFF
    if actual != stored:
        return False, (
            f"checksum mismatch (stored {stored:#010x}, "
            f"computed {actual:#010x})"
        )
    return True, ""


class IntegrityRegistry:
    """Thread-safe counters and quarantine set for corruption events.

    One registry is shared by the disk manager, the WAL, and the store:
    pages that fail verification are quarantined here until a successful
    repair clears them, and every scan that skips a corrupt unit under
    degraded reads records the skip.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.page_verifications = 0
        self.page_failures = 0
        self.page_repairs = 0
        self.reread_recoveries = 0  # checksum mismatch cured by a re-read
        self.transient_retries = 0  # EIO-style errors cured by retry
        self.wal_records_verified = 0
        self.wal_failures = 0
        self.catalog_verifications = 0
        self.catalog_failures = 0
        self.scrubs = 0
        self.scan_skips = 0
        #: page_id -> failure reason, for pages awaiting repair.
        self.quarantined: dict[int, str] = {}
        #: Recent degraded-read skip events (dicts), bounded.
        self.skipped: list[dict[str, Any]] = []
        #: Report of the most recent ``store.scrub()``.
        self.last_scrub: dict[str, Any] | None = None

    # -- pages -------------------------------------------------------------

    def count_page_verification(self) -> None:
        # Hot path (every page read): a bare increment — the GIL keeps it
        # consistent enough for a statistic, and skipping the lock matters.
        self.page_verifications += 1

    def record_page_failure(self, page_id: int, reason: str) -> None:
        with self._lock:
            self.page_failures += 1
            self.quarantined[page_id] = reason

    def record_page_repair(self, page_id: int) -> None:
        with self._lock:
            self.page_repairs += 1
            self.quarantined.pop(page_id, None)

    def forget_pages_from(self, first: int) -> None:
        """Pages at or past ``first`` left the file (a free tail was
        truncated): whatever was wrong with them went with them."""
        with self._lock:
            for page_id in [p for p in self.quarantined if p >= first]:
                del self.quarantined[page_id]

    def record_reread_recovery(self) -> None:
        with self._lock:
            self.reread_recoveries += 1

    def record_transient_retry(self) -> None:
        with self._lock:
            self.transient_retries += 1

    # -- WAL / catalog -----------------------------------------------------

    def count_wal_record(self) -> None:
        # Hot during recovery and scrub; same lock-free treatment as pages.
        self.wal_records_verified += 1

    def record_wal_failure(self) -> None:
        with self._lock:
            self.wal_failures += 1

    def count_catalog_verification(self) -> None:
        with self._lock:
            self.catalog_verifications += 1

    def record_catalog_failure(self) -> None:
        with self._lock:
            self.catalog_failures += 1

    # -- scans / scrub -----------------------------------------------------

    def record_skip(self, event: dict[str, Any]) -> None:
        with self._lock:
            self.scan_skips += 1
            self.skipped.append(event)
            if len(self.skipped) > MAX_SKIP_EVENTS:
                del self.skipped[: len(self.skipped) - MAX_SKIP_EVENTS]

    def record_scrub(self, report: dict[str, Any]) -> None:
        with self._lock:
            self.scrubs += 1
            self.last_scrub = report

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view for ``storage_stats()["integrity"]``."""
        with self._lock:
            return {
                "page_verifications": self.page_verifications,
                "page_failures": self.page_failures,
                "page_repairs": self.page_repairs,
                "reread_recoveries": self.reread_recoveries,
                "transient_retries": self.transient_retries,
                "wal_records_verified": self.wal_records_verified,
                "wal_failures": self.wal_failures,
                "catalog_verifications": self.catalog_verifications,
                "catalog_failures": self.catalog_failures,
                "scrubs": self.scrubs,
                "scan_skips": self.scan_skips,
                "quarantined": dict(self.quarantined),
                "skipped": list(self.skipped),
                "last_scrub": self.last_scrub,
            }
