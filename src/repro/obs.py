"""One counter registry per store.

The buffer pool, the disk manager, the WAL, the transaction manager, the
integrity ledger, the decoded cache, the adaptive loop and the layout
decoders all count into the same :class:`Registry`. The disk manager owns
it (``disk.obs``) and the store wires it to the rest, the way it wires the
integrity ledger. A counter's name is dotted; its first part is the
``storage_stats()`` section that shows it, so each section's counters are
one :meth:`Registry.snapshot` of that prefix.

Increments take no lock of their own: a counter is bumped under the lock
that guards what it counts (the pool's, the disk's, the WAL's), or under
none where a lost update only moves a statistic and a lock would cost more
than it would buy: ``decode.*`` in concurrent partition scans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Layout kinds whose decodes are counted, as ``decode.<kind>.values``
#: (values decoded) and ``decode.<kind>.ns`` (decode time).
DECODE_KINDS = ("rows", "columns", "grid", "folded", "array")

#: Every counter a registry holds, all zero at birth, by the
#: ``storage_stats()`` section that shows it.
SECTIONS = {
    "buffer_pool": ("hits", "misses", "evictions", "flushes"),
    "decoded_cache": ("hits", "misses", "evictions"),
    "disk": ("page_reads", "page_writes", "read_seeks", "write_seeks"),
    "wal": ("appends", "fsyncs"),
    "transactions": ("txns_committed", "txns_aborted"),
    "recovery": ("recoveries_run", "checkpoints"),
    "integrity": (
        "page_verifications", "page_failures", "page_repairs",
        "reread_recoveries",  # a checksum mismatch cured by a re-read
        "transient_retries",  # an EIO-style error cured by a retry
        "wal_records_verified", "wal_failures",
        "catalog_verifications", "catalog_failures", "scrubs", "scan_skips",
    ),
    "adaptivity": ("checks", "adaptations", "reorganizations"),
    "reorganization_io": ("page_reads", "page_writes"),
    **{f"decode.{kind}": ("values", "ns") for kind in DECODE_KINDS},
}
COUNTERS = tuple(
    f"{section}.{name}" for section, names in SECTIONS.items() for name in names
)


class Registry:
    """Named integer counters; an unknown name is a ``KeyError``."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = dict.fromkeys(COUNTERS, 0)

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def __getitem__(self, name: str) -> int:
        return self.counts[name]

    def snapshot(self, prefix: str) -> dict[str, int]:
        """The counters named ``prefix`` + a suffix, keyed by the suffix."""
        cut = len(prefix)
        return {
            name[cut:]: n for name, n in self.counts.items()
            if name.startswith(prefix)
        }

    @contextmanager
    def measure(self, prefix: str) -> Iterator[dict[str, int]]:
        """Yield a dict that, once the block exits, holds what each counter
        under ``prefix`` gained in it (keyed as :meth:`snapshot` keys)."""
        before = self.snapshot(prefix)
        delta: dict[str, int] = {}
        try:
            yield delta
        finally:
            delta.update(
                (k, n - before[k]) for k, n in self.snapshot(prefix).items()
            )
