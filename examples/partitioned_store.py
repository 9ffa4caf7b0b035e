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
   most of the table.

Run with::

    python examples/partitioned_store.py

It exits 1 unless every re-laid-out partition now has the recommended
design and every kept partition still has its old one.
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
    if not hot or wrong:
        print(f"FAIL: re-laid-out {hot}; partitions off their design: {wrong}")
        sys.exit(1)


if __name__ == "__main__":
    main()
