"""Horizontally partitioned tables: pruning, parallel scans, and
hot/cold per-partition adaptation.

A table of timestamped events is range-partitioned on ``t`` — each
partition is an independently rendered region with its own layout, zone
maps, and insert buffers. The example shows the three things partitioning
buys:

1. **partition pruning** — a narrow time-range query skips whole
   partitions by intersecting the predicate with the partition map,
   before any page or zone map is touched;
2. **parallel scans** — full scans fan partitions out to a shared worker
   pool (``scan_workers``), overlapping page I/O, and merge back in
   partition order so results are identical to the serial scan;
3. **hot/cold adaptation** — a skewed workload (recent partitions are
   queried analytically, old ones barely touched) makes the adaptive
   loop re-layout only the *hot* partitions, one region at a time; cold
   partitions keep their original design, so the rewrite never touches
   most of the table;
4. **levelled partitions** — the router composes with a level policy:
   ``partition[r.year](levels[2; 2](rows(Sales)))`` gives every year its
   own run cascade, which a stream of inserts and deletes drives.

Run with::

    python examples/partitioned_store.py

It exits 1 unless every re-laid-out partition now has the recommended
design and every kept partition still has its old one, and unless the
levelled partitions answer every query as a flat copy of the same rows
does, with every year's cascade merged at least once.
"""

import random
import sys

from repro import RodentStore
from repro.query.expressions import Range
from repro.types.schema import Schema

SCHEMA = Schema.of("t:int", "sensor:int", "value:int", "flags:int")


def main() -> None:
    rng = random.Random(7)
    n = 40_000
    horizon = 8_000  # t in [0, horizon); partitions of 1000 each
    records = [
        (
            rng.randrange(horizon),
            rng.randrange(500),
            rng.randrange(100_000),
            rng.randrange(8),
        )
        for _ in range(n)
    ]
    bounds = ", ".join(str(b) for b in range(1000, horizon, 1000))

    store = RodentStore(page_size=2048, pool_capacity=512, scan_workers=4)
    store.create_table(
        "Events", SCHEMA, layout=f"partition[r.t; range, {bounds}](Events)"
    )
    table = store.load("Events", records)
    print(f"loaded {n:,} rows into {table.partition_count} partitions:")
    for region in table.partitions:
        print(
            f"  partition {region.pid} {region.describe_key():>14} "
            f"{region.row_count:>6,} rows  [{region.plan.describe()}]"
        )

    # -- 1. partition pruning ---------------------------------------------
    predicate = Range("t", 7_000, 7_499)  # the most recent half-partition
    pruned = table.partitions_pruned(predicate)
    _, io = store.run_cold(
        lambda: sum(1 for _ in table.scan(predicate=predicate))
    )
    print(
        f"\nrange query t∈[7000,7500): pruned {pruned}/"
        f"{table.partition_count} partitions, read {io.page_reads} pages"
    )
    print(str(store.query("Events").where(predicate).explain()))

    # -- 2. parallel scans -------------------------------------------------
    store.scan_workers = 0
    serial = list(table.scan())
    store.scan_workers = 4
    parallel = list(table.scan())
    assert parallel == serial  # order-preserving morsel merge
    print(
        f"\nparallel scan over {table.partition_count} partitions with 4 "
        f"workers returned {len(parallel):,} rows — identical to serial"
    )

    # -- 3. hot/cold per-partition adaptation -----------------------------
    # Analysts hammer the two most recent partitions with single-column
    # aggregation scans; history stays cold.
    print("\nskewed analytic phase: projecting value over recent data...")
    for _ in range(50):
        list(
            table.scan(
                fieldlist=["value"],
                predicate=Range("t", 6_000, 7_999),
            )
        )
    before = {r.pid: r.plan.expr.to_text() for r in table.partitions}
    decision = store.adapt("Events")
    print(f"  adapt: {decision['reason']}")
    print("  partition designs now:")
    hot = decision.get("relayout_partitions", [])
    wrong = []
    for region in table.partitions:
        heat = "HOT " if region.pid in hot else "cold"
        print(
            f"  {heat} partition {region.pid} {region.describe_key():>14} "
            f"[{region.plan.describe()}]"
        )
        want = before[region.pid]
        if region.pid in hot:
            want = decision["recommended"]
        designs = {region.plan.expr.to_text()}
        designs |= {run.plan.expr.to_text() for run in region.runs}
        if designs != {want}:
            wrong.append((region.pid, sorted(designs), want))

    stats = store.storage_stats()["tables"]["Events"]
    print(
        f"\ncounters: {stats['partition_scans']} partitioned scans, "
        f"{stats['partitions_pruned']} partitions pruned cumulatively"
    )
    store.close()
    failures = levelled_partitions()
    if not hot or wrong or failures:
        print(f"FAIL: re-laid-out {hot}; partitions off their design: {wrong}")
        print(f"FAIL: levelled partitions disagree on {failures}")
        sys.exit(1)


def levelled_partitions() -> list[str]:
    """4. A year-partitioned levelled table streams inserts and deletes
    through every year's cascade; returns the queries on which it and a
    flat copy of the same rows disagree (and any year that never merged)."""
    schema = Schema.of("year:int", "id:int", "amount:int")
    rng = random.Random(11)
    rows = [
        (2020 + rng.randrange(4), i, rng.randrange(1000)) for i in range(2400)
    ]
    store = RodentStore(page_size=2048, level_seal_rows=64)
    store.create_table(
        "Sales", schema, layout="partition[r.year](levels[2; 2](rows(Sales)))"
    )
    store.create_table("Flat", schema)
    tables = [store.load(name, rows[:400]) for name in ("Sales", "Flat")]
    for start in range(400, len(rows), 200):
        doomed = Range("amount", start % 1000, start % 1000 + 30)
        for table in tables:
            table.insert(rows[start:start + 200])
            table.delete(doomed)
    print("\nlevelled partitions after the insert/delete stream:")
    failures = []
    for region in tables[0].partitions:
        levels = sorted(run.level for run in region.runs)
        merged = any(run.min_seq < run.max_seq for run in region.runs)
        print(
            f"  year {region.key}: {region.row_count:>5,} rows stored, runs at "
            f"levels {levels}, {len(region.level_tombstones)} tombstones"
        )
        if not merged:
            failures.append(f"year {region.key} never merged")
    for predicate in (
        None, Range("year", 2021, 2021), Range("amount", 100, 400),
        Range("id", 1000, 1999),
    ):
        answers = [sorted(table.scan(predicate=predicate)) for table in tables]
        if answers[0] != answers[1]:
            failures.append(repr(predicate))
    print(f"  {tables[1].row_count:,} rows live, answers equal a flat "
          f"copy's: {not failures}")
    store.close()
    return failures


if __name__ == "__main__":
    main()
