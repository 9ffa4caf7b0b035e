"""The storage design optimizer (paper Section 5), end to end.

Feeds the advisor a schema + workload, lets it search the design space, and
verifies the recommendation by actually re-organizing the table and measuring
pages/query before and after.

Run with::

    python examples/storage_advisor.py
"""

from repro import RodentStore
from repro.optimizer import (
    Policy,
    Query,
    ReorganizationManager,
    Workload,
    recommend_for_table,
)
from repro.workloads import TRACE_SCHEMA, generate_traces, random_region_queries


def main() -> None:
    store = RodentStore(page_size=8192, pool_capacity=128)
    store.create_table("Traces", TRACE_SCHEMA)
    records = generate_traces(40_000, n_vehicles=20)
    table = store.load("Traces", records)
    print(f"loaded {table.row_count:,} observations as the canonical row "
          f"layout ({table.layout.total_pages()} pages)\n")

    # The workload: spatial window queries over (lat, lon).
    workload = Workload("Traces")
    queries = random_region_queries(20)
    for i, q in enumerate(queries):
        workload.add(
            Query(name=f"q{i}", fieldlist=("lat", "lon"), predicate=q)
        )

    # Measure the status quo.
    def run_workload():
        total = 0
        for q in queries:
            rows, io = store.run_cold(
                lambda q=q: list(
                    store.table("Traces").scan(
                        fieldlist=["lat", "lon"], predicate=q
                    )
                )
            )
            total += io.page_reads
        return total / len(queries)

    before = run_workload()
    print(f"pages/query on the row layout:        {before:10.1f}")

    # Ask the advisor (exhaustive over the candidate pool, then gradient
    # descent on the grid strides — §5's suggested heuristics).
    rec = recommend_for_table(store, workload)
    print("\nadvisor recommendation:")
    print(f"  {rec.expression.to_text()}")
    print(f"  predicted {rec.predicted_ms:.1f} ms/workload over "
          f"{rec.storage_pages} pages ({rec.evaluated} designs costed)")
    print("  runners-up:")
    for text, ms in rec.alternatives[:3]:
        print(f"    {ms:9.1f} ms  {text[:84]}")

    # Apply it under an eager reorganization policy and re-measure.
    manager = ReorganizationManager(store)
    manager.set_policy("Traces", Policy.EAGER)
    manager.apply_design("Traces", rec.expression, source_records=records)
    after = run_workload()
    print(f"\npages/query after reorganization:     {after:10.1f}")
    print(f"reorganization wrote {store.obs['reorganization_io.page_writes']} "
          f"pages (one-time cost)")
    print(f"\nimprovement: {before / after:.1f}x fewer pages per query")


if __name__ == "__main__":
    main()
