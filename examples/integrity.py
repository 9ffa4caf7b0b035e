"""Integrity tour: checksums, bit rot, quarantine, repair, and the scrubber.

Run with::

    python examples/integrity.py

Opens a durable store, flips a bit on disk behind its back, and walks the
containment ladder: the page checksum catches the rot, the page is
quarantined, the repair path restores it from the latest committed WAL
after-image, and a full scrub certifies the store clean again. A second
flip after a checkpoint (no WAL image left) shows the two end states:
loud failure by default, or degraded reads with an explicit skip report.
"""

import os
import tempfile

from repro import RodentStore, Schema


def flip_bit(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0x40]))


def first_table_frame(store, name):
    """Disk offset of the first page referenced by ``name``'s layout."""
    entry = store.catalog.entry(name)
    pid = min(
        min(run.layout.page_ids())
        for run in entry.runs()
        if run.layout.page_ids()
    )
    return pid, pid * store.disk.frame_size


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="rodent-integrity-")
    path = os.path.join(workdir, "store.pages")

    # 1. Every page is framed with a CRC32 trailer; the WAL carries
    #    per-record CRCs and the catalog file a whole-file checksum.
    store = RodentStore(path, page_size=1024, pool_capacity=64,
                        durable=True)
    store.create_table("Events", Schema.of("id:int", "kind:int"))
    store.load("Events", [(i, i % 5) for i in range(500)])
    store.pool.flush_all()
    store.wal.sync()

    report = store.scrub()
    print(f"clean scrub: clean={report['clean']} "
          f"pages={report['pages_checked']} "
          f"wal_records={report['wal_records_checked']}")

    # 2. Bit rot strikes a data page. The next cold read fails its
    #    checksum, the page is quarantined — and because the WAL still
    #    holds a committed after-image, it is repaired in place,
    #    invisibly to the scan.
    store.pool.clear()
    pid, offset = first_table_frame(store, "Events")
    flip_bit(path, offset + 100)
    rows = len(list(store.table("Events").scan()))
    stats = store.storage_stats()["integrity"]
    print(f"bit flip on page {pid}: scan still returned {rows} rows "
          f"(failures={stats['page_failures']}, "
          f"repairs={stats['page_repairs']}, "
          f"quarantined={stats['quarantined']})")

    # 3. After a checkpoint the WAL is truncated — a fresh flip has no
    #    after-image to repair from. Default policy: fail loudly.
    store.checkpoint()
    store.pool.clear()
    pid, offset = first_table_frame(store, "Events")
    flip_bit(path, offset + 100)
    try:
        list(store.table("Events").scan())
    except Exception as exc:
        print(f"unrepairable by default -> {type(exc).__name__}: {exc}")

    # 4. Opt-in degraded reads: the scan skips the corrupt unit and
    #    files an explicit report instead of guessing at rows.
    store.degraded_reads = True
    rows = list(store.table("Events").scan())
    skipped = store.catalog.entry("Events").last_corruption_skipped
    print(f"degraded scan: {len(rows)} rows, skipped={skipped}")

    # 5. The scrubber gives the final word: checksum failures, WAL and
    #    catalog health, and cross-structure invariants in one report.
    report = store.scrub(repair=True)
    print(f"final scrub: clean={report['clean']} "
          f"unrepairable={report['unrepairable']}")
    store.close()


if __name__ == "__main__":
    main()
