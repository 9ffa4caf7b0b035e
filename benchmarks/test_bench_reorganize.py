"""Ablation H: reorganization policies (paper §5, final paragraph).

Eager pays all the rewrite I/O up front; new-data-only never pays it but
keeps reading the loaded run in its old layout; lazy defers until the table
is accessed enough. The table reports cumulative write I/O, query cost and
the loaded run's final layout per policy on an identical design-change +
query sequence.
"""

import pytest

from repro.engine.database import RodentStore
from repro.optimizer.reorganize import Policy, ReorganizationManager
from repro.query.expressions import Rect
from repro.workloads import (
    BOSTON,
    TRACE_SCHEMA,
    generate_traces,
    grid_strides_for,
    random_region_queries,
)

PAGE_SIZE = 8_192
N_RECORDS = 15_000
N_ACCESSES = 10


def new_design():
    lat, lon = grid_strides_for(BOSTON, 32)
    return f"grid[lat, lon],[{lat:g}, {lon:g}](Traces)"


def run_policy(policy, records, queries):
    store = RodentStore(page_size=PAGE_SIZE, pool_capacity=64)
    store.create_table("Traces", TRACE_SCHEMA)
    store.load("Traces", records)
    manager = ReorganizationManager(store)
    manager.lazy_access_threshold = 4
    manager.set_policy("Traces", policy)
    manager.apply_design("Traces", new_design())

    read_pages = 0
    for i in range(N_ACCESSES):
        manager.on_access("Traces")
        table = store.table("Traces")
        q = queries[i % len(queries)]
        _, io = store.run_cold(lambda q=q: list(
            table.scan(fieldlist=["lat", "lon"], predicate=q)
        ))
        read_pages += io.page_reads
    return {
        "write_io": manager.reorganization_io.page_writes,
        "read_pages": read_pages,
        "final_kind": store.table("Traces").main_plan.kind,
        "rewrites": manager.reorganizations,
    }


@pytest.fixture(scope="module")
def data():
    return generate_traces(N_RECORDS, n_vehicles=10), random_region_queries(5)


def test_bench_reorganization_policies(data, benchmark):
    records, queries = data
    results = {
        policy.value: run_policy(policy, records, queries)
        for policy in (Policy.EAGER, Policy.NEW_DATA_ONLY, Policy.LAZY)
    }

    print("\n=== reorganization policies over "
          f"{N_ACCESSES} accesses ===")
    print(f"{'policy':<15}{'rewrite writes':>15}{'query reads':>13}"
          f"{'loaded run':>14}")
    for name, row in results.items():
        print(
            f"{name:<15}{row['write_io']:>15}{row['read_pages']:>13}"
            f"{row['final_kind']:>14}"
        )

    eager = results["eager"]
    newdata = results["new-data-only"]
    lazy = results["lazy"]
    # Eager rewrites immediately and reads cheaply ever after.
    assert eager["rewrites"] == 1 and eager["final_kind"] == "grid"
    # New-data-only never rewrites: the loaded run stays rows, and reads
    # stay expensive.
    assert newdata["rewrites"] == 0 and newdata["final_kind"] == "rows"
    assert newdata["read_pages"] > eager["read_pages"]
    # Lazy rewrites once the access threshold passes; total reads land
    # between the two extremes.
    assert lazy["rewrites"] == 1 and lazy["final_kind"] == "grid"
    assert eager["read_pages"] <= lazy["read_pages"] <= newdata["read_pages"]

    benchmark(lambda: run_policy(Policy.EAGER, records[:2_000], queries[:2]))
