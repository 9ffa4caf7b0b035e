"""Exception hierarchy for the RodentStore reproduction.

Every error raised by the library derives from :class:`RodentStoreError` so
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class RodentStoreError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(RodentStoreError):
    """A schema is malformed or a field reference cannot be resolved."""


class TypeCheckError(RodentStoreError):
    """A storage-algebra expression does not type-check against its schema."""


class ParseError(RodentStoreError):
    """A textual storage-algebra expression could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class AlgebraError(RodentStoreError):
    """An algebra expression is structurally invalid or cannot be evaluated."""


class StorageError(RodentStoreError):
    """Low-level storage failure (pages, disk manager, buffer pool)."""


class PageError(StorageError):
    """A page is full, corrupt, or a slot reference is invalid."""


class BufferPoolError(StorageError):
    """The buffer pool cannot satisfy a request (e.g. all frames pinned)."""


class WALError(StorageError):
    """The write-ahead log is corrupt or used incorrectly."""


class CorruptionError(StorageError):
    """Checksummed data failed verification (bit rot, truncation, torn write).

    Base class for the three corruption sites — pages, WAL records, and the
    catalog file — so callers can handle "the bytes are wrong" uniformly
    while still distinguishing where they were wrong.
    """


class CorruptPageError(CorruptionError):
    """A data page failed its checksum/trailer verification.

    Carries the ``page_id`` and a human-readable ``reason`` so the repair
    ladder (WAL after-image replay) and degraded-read accounting can act on
    the specific page without re-parsing the message.
    """

    def __init__(self, page_id: int, reason: str):
        self.page_id = page_id
        self.reason = reason
        super().__init__(f"page {page_id} is corrupt: {reason}")


class CorruptWALError(CorruptionError, WALError):
    """A WAL record failed its CRC, or undecodable bytes sit mid-log.

    Distinct from the torn-tail case (a crash artifact, silently dropped):
    this means records *below* decodable data are damaged, so recovery
    cannot trust the log and must fail loudly. Inherits :class:`WALError`
    so existing WAL error handling still classifies it correctly.
    """


class CrashError(StorageError):
    """An injected fault hard-stopped the store (fault-injection harness).

    Raised by :class:`repro.storage.faults.FaultInjector` at the configured
    write boundary. The store object is unusable afterwards — tests abandon
    it and reopen from the on-disk files, which triggers crash recovery.
    """


class TransactionError(RodentStoreError):
    """Transaction misuse: operating on a finished transaction, etc."""


class DeadlockError(TransactionError):
    """A lock request would create a cycle in the wait-for graph."""


class SerializationError(RodentStoreError):
    """A value cannot be encoded/decoded with the table's record format."""


class CatalogError(RodentStoreError):
    """Catalog misuse: duplicate table names, unknown tables, etc."""


class CorruptCatalogError(CorruptionError, CatalogError):
    """The catalog file failed its checksum or cannot be parsed."""


class StoreFormatError(CatalogError):
    """The store was written in another on-disk format than the engine's.

    ``python -m repro.migrate PATH`` converts an older store; the message
    ends with that command.
    """


class IndexError_(RodentStoreError):
    """An index (B+Tree / R-Tree) is corrupt or misused.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class OptimizerError(RodentStoreError):
    """The storage design optimizer received an unusable workload or design."""


class QueryError(RodentStoreError):
    """A front-end query is malformed (unknown field, bad predicate, ...)."""
