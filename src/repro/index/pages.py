"""Index node pages: one node per page, written once through the buffer
pool and flushed at once (write-through), read back as its payload."""

from __future__ import annotations

from repro.storage.buffer import BufferPool, Frame
from repro.storage.page import BYTES_HEADER_SIZE, BytePage


def node_capacity(pool: BufferPool) -> int:
    """Payload bytes one node's page holds."""
    return pool.disk.page_size - BYTES_HEADER_SIZE


def write_node(pool: BufferPool, frame: Frame, payload: bytes) -> int:
    """Write ``payload`` into ``frame``, a page :meth:`BufferPool.new_page`
    allocated and pinned for the node, and flush it: the node's page id."""
    try:
        page = BytePage(pool.disk.page_size)
        page.write(payload)
        frame.data[:] = page.buffer
    finally:
        pool.unpin(frame.page_id, dirty=True)
    pool.flush(frame.page_id)
    return frame.page_id


def read_node(pool: BufferPool, page_id: int) -> bytes:
    """The payload of the node on ``page_id``."""
    frame = pool.fetch(page_id)
    try:
        return BytePage(pool.disk.page_size, frame.data).read()
    finally:
        pool.unpin(page_id)
