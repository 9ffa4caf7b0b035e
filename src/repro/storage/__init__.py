"""Storage substrate: pages, disk manager, buffer pool, WAL, transactions."""

from repro.storage.buffer import BufferPool, BufferPoolStats, Frame
from repro.storage.disk import DEFAULT_PAGE_SIZE, DiskManager, IOStats
from repro.storage.faults import FaultInjector, IoFault, IoFaultInjector
from repro.storage.integrity import (
    PAGE_TRAILER_SIZE,
    IntegrityRegistry,
    checksum,
    make_trailer,
    verify_frame,
)
from repro.storage.locks import LockManager
from repro.storage.page import (
    NO_PAGE,
    BytePage,
    SlottedPage,
    page_type_of,
)
from repro.storage.serializer import RecordSerializer, VectorSerializer
from repro.storage.transactions import Transaction, TransactionManager, TxnStatus
from repro.storage.wal import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    LogRecord,
    WriteAheadLog,
)

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "NO_PAGE",
    "KIND_CHECKPOINT",
    "KIND_COMMIT",
    "PAGE_TRAILER_SIZE",
    "BufferPool",
    "BufferPoolStats",
    "BytePage",
    "DiskManager",
    "FaultInjector",
    "Frame",
    "IOStats",
    "IntegrityRegistry",
    "IoFault",
    "IoFaultInjector",
    "checksum",
    "make_trailer",
    "verify_frame",
    "LockManager",
    "LogRecord",
    "RecordSerializer",
    "SlottedPage",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
    "VectorSerializer",
    "WriteAheadLog",
    "page_type_of",
]
