"""Standalone experiment runner: prints every paper table/figure + ablation.

``tests/test_paper_shapes.py`` asserts the shape of each result; this script
regenerates the *content* of each experiment (the rows/series the paper
reports) in one go, and writes the adaptive-loop report ``BENCH_adapt.json``.
Run with::

    python benchmarks/run_experiments.py [--scale small|default|large]
"""

from __future__ import annotations

import argparse
import json
import os
import time

#: Master RNG seed for data/query generation. ``BENCH_adapt.json`` records
#: the seed it ran with, so the report reproduces bit-for-bit with
#: ``--seed <value>``.
DEFAULT_SEED = 7

SCALES = {
    "small": dict(n_observations=20_000, n_queries=15, page_size=8_192),
    "default": dict(n_observations=60_000, n_queries=40, page_size=16_384),
    "large": dict(n_observations=200_000, n_queries=100, page_size=65_536),
}

PAPER_FIGURE2 = {
    "N1": 206_064, "N2": 82_430, "N3": 1_792, "N4": 771, "rtree": 15_780
}


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def figure2(scale: dict) -> None:
    from repro.experiments import run_figure2

    banner("Figure 2 — pages/query per physical design (case study, §6)")
    start = time.time()
    result = run_figure2(verify=True, **scale)
    print(result.format_table())
    paper_n3 = PAPER_FIGURE2["N3"]
    ours_n3 = result.layouts["N3"].pages_per_query
    print("\nnormalized to N3 (paper vs measured):")
    for name in ("N1", "N2", "N3", "N4", "rtree"):
        measured = result.layouts[name].pages_per_query / ours_n3
        paper = PAPER_FIGURE2[name] / paper_n3
        print(f"  {name:<6} paper {paper:8.1f}x   measured {measured:8.1f}x")
    print(f"[{time.time() - start:.1f}s]")


def sales(scale: dict) -> None:
    from repro.engine.database import RodentStore
    from repro.workloads import SALES_SCHEMA, generate_sales, year_zip_queries

    banner("§1 example — zorder(grid[y, z](N)) on sales records")
    records = generate_sales(scale["n_observations"] // 2)
    queries = year_zip_queries(scale["n_queries"])
    designs = {
        "rows": "Sales",
        "columns": "columns(Sales)",
        "zorder(grid[y,z])": (
            "zorder(grid[year, zipcode],[1, 10](project"
            "[year, zipcode, quantity, price](Sales)))"
        ),
    }
    print(f"{'design':<20}{'pages/query':>12}")
    for name, layout in designs.items():
        store = RodentStore(page_size=scale["page_size"], pool_capacity=96)
        store.create_table("Sales", SALES_SCHEMA, layout=layout)
        table = store.load("Sales", records)
        pages = 0
        for q in queries:
            _, io = store.run_cold(
                lambda q=q: list(
                    table.scan(fieldlist=["quantity", "price"], predicate=q)
                )
            )
            pages += io.page_reads
        print(f"{name:<20}{pages / len(queries):>12.1f}")


def adapt_bench(
    scale: dict, out_path: str = "BENCH_adapt.json", seed: int = DEFAULT_SEED
) -> dict:
    """The closed adaptive loop under a shifting workload (BENCH_adapt.json).

    One store starts on the canonical row layout and serves three workload
    phases — point lookups, range scans on a different field, then analytic
    projections. The live monitor → advisor → reorganizer loop re-layouts
    the table as the workload shifts; after each phase the adaptive store's
    per-query latency is compared against a *hand-tuned oracle* store built
    directly in that phase's best layout. The headline number is
    ``within_oracle_ratio`` (adaptive / oracle; 1.0 = as good as the hand
    tuning): phases the loop *adapted* must land within 1.5x of the
    oracle. The point-lookup phase intentionally records a hysteresis
    hold (``adapted: false``): zone-map pruning makes the unsorted row
    layout's predicted I/O a near-tie with the sorted oracle, so the loop
    correctly refuses to move data for it — the residual gap is per-page
    CPU the paper's I/O model deliberately ignores.
    """
    import random

    from repro.engine.database import RodentStore
    from repro.query.expressions import Range
    from repro.types.schema import Schema

    banner("Adaptive loop — shifting workload vs oracle (BENCH_adapt.json)")
    # Enough pages that transfer time dominates the per-scan seek, so the
    # cost model can actually separate the designs.
    n_records = scale["n_observations"] // 2
    page_size = scale["page_size"] // 8
    rng = random.Random(seed)
    schema = Schema.of("t:int", "k:int", "a:int", "b:int", "v:int")
    records = [
        (
            i,
            (i * 17) % 100,
            rng.randrange(1000),
            rng.randrange(50),
            rng.randrange(10_000),
        )
        for i in range(n_records)
    ]

    def point_queries(phase_rng):
        return [
            dict(
                predicate=Range("t", x, x + 9),
                fieldlist=None,
            )
            for x in (
                phase_rng.randrange(n_records - 10) for _ in range(40)
            )
        ]

    def range_queries(phase_rng):
        return [
            dict(predicate=Range("k", lo, lo + 4), fieldlist=None)
            for lo in (phase_rng.randrange(95) for _ in range(40))
        ]

    def projection_queries(phase_rng):
        # Single-column rollup-style reads: the narrow projections DSM
        # serves best (and mini-record grouping cannot beat).
        return [
            dict(predicate=None, fieldlist=[phase_rng.choice(["a", "v"])])
            for _ in range(40)
        ]

    phases = [
        ("point_lookup", point_queries, "orderby[t](T)"),
        ("range_scan", range_queries, "orderby[k](T)"),
        ("analytic_projection", projection_queries, "columns(T)"),
    ]

    store = RodentStore(
        page_size=page_size,
        pool_capacity=512,
        adaptive=True,
        adapt_interval=16,
    )
    # 40-query phases: decay fast enough that the previous phase's shape
    # fades within one phase of the new one.
    store.adaptivity.decay = 0.9
    store.create_table("T", schema)
    store.load("T", records)

    def run_phase(target_store, queries) -> float:
        """Mean per-query seconds (queries drive the monitor as they run)."""
        start = time.perf_counter()
        for q in queries:
            table = target_store.table("T")
            for _ in table.scan(
                fieldlist=q["fieldlist"], predicate=q["predicate"]
            ):
                pass
        return (time.perf_counter() - start) / len(queries)

    result: dict = {
        "benchmark": "adaptive_loop",
        "n_records": n_records,
        "page_size": page_size,
        "seed": seed,
        "unit": "ms_per_query",
        "phases": {},
    }
    print(
        f"{'phase':<22}{'layout after':>16}{'adaptive':>11}{'oracle':>11}"
        f"{'ratio':>8}"
    )
    for phase_index, (name, make_queries, oracle_layout) in enumerate(phases):
        queries = make_queries(random.Random(seed * 31 + phase_index))
        layout_before = store.table("T").plan.expr.to_text()
        run_phase(store, queries)  # warm the monitor; loop may adapt inline
        store.adapt("T")  # force convergence at the phase boundary
        adaptive_ms = run_phase(store, queries) * 1e3
        layout_after = store.table("T").plan.expr.to_text()

        oracle = RodentStore(page_size=page_size, pool_capacity=512)
        oracle.create_table("T", schema, layout=oracle_layout)
        oracle.load("T", records)
        run_phase(oracle, queries)  # warm the buffer pool, like adaptive
        oracle_ms = run_phase(oracle, queries) * 1e3
        ratio = adaptive_ms / oracle_ms
        result["phases"][name] = {
            "layout_before": layout_before,
            "layout_after": layout_after,
            "adapted": layout_after != layout_before,
            "adaptive_ms_per_query": round(adaptive_ms, 3),
            "oracle_layout": oracle_layout,
            "oracle_ms_per_query": round(oracle_ms, 3),
            "within_oracle_ratio": round(ratio, 3),
        }
        print(
            f"{name:<22}{layout_after:>16}{adaptive_ms:>10.2f}m"
            f"{oracle_ms:>10.2f}m{ratio:>8.2f}"
        )
    report = store.storage_stats()["adaptivity"]
    result["adaptations"] = report["adaptations"]
    result["reorganization_io"] = report["reorganization_io"]
    result["generated_unix"] = int(time.time())
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"adaptations: {report['adaptations']}")
    print(f"wrote {os.path.abspath(out_path)}")
    return result


def optimizer(scale: dict) -> None:
    from repro.engine.cost import CostModel
    from repro.engine.stats import TableStats
    from repro.optimizer import (
        PlanCostEstimator,
        Query,
        Workload,
        enumerate_candidates,
        exhaustive_search,
        greedy_stride_descent,
        simulated_annealing,
    )
    from repro.workloads import TRACE_SCHEMA, generate_traces, random_region_queries

    banner("§5 — design-space search strategies")
    records = generate_traces(scale["n_observations"] // 2, n_vehicles=10)
    stats = TableStats.collect(TRACE_SCHEMA, records)
    model = CostModel(page_size=scale["page_size"])
    estimator = PlanCostEstimator(stats, model, scale["page_size"])
    workload = Workload("Traces")
    for i, q in enumerate(random_region_queries(10)):
        workload.add(Query(name=f"q{i}", fieldlist=("lat", "lon"), predicate=q))
    candidates = enumerate_candidates(TRACE_SCHEMA, stats, workload)

    print(f"column-grouping space 2^n = {2 ** len(TRACE_SCHEMA):,}; "
          f"candidate pool = {len(candidates)}")
    ex = exhaustive_search(candidates, TRACE_SCHEMA, estimator, workload)
    print(f"{'exhaustive':<22}{ex.best.total_ms:>10.1f} ms "
          f"({ex.evaluated} designs)")
    from repro.algebra.parser import parse

    seed = parse("grid[lat, lon],[60000, 80000](project[lat, lon](Traces))")
    gd = greedy_stride_descent(seed, TRACE_SCHEMA, estimator, workload)
    print(f"{'stride descent':<22}{gd.best.total_ms:>10.1f} ms "
          f"({gd.evaluated} designs, from a deliberately bad seed)")
    sa = simulated_annealing(
        candidates, TRACE_SCHEMA, estimator, workload, iterations=120, seed=1
    )
    print(f"{'simulated annealing':<22}{sa.best.total_ms:>10.1f} ms "
          f"({sa.evaluated} designs)")
    print(f"winner: {ex.expression.to_text()}")


def ablations(scale: dict) -> None:
    from repro.engine.cost import CostModel
    from repro.engine.database import RodentStore
    from repro.experiments.figure2 import n3_expr
    from repro.workloads import (
        BOSTON,
        TRACE_SCHEMA,
        generate_traces,
        grid_strides_for,
        random_region_queries,
    )

    records = generate_traces(scale["n_observations"] // 2, n_vehicles=15)
    queries = random_region_queries(max(10, scale["n_queries"] // 2))

    banner("Ablation A — grid cell size (cells per side)")
    print(f"{'cells/side':>10}{'pages/query':>13}{'seeks/query':>13}")
    for cells in (4, 8, 16, 32, 64):
        lat, lon = grid_strides_for(BOSTON, cells)
        store = RodentStore(page_size=scale["page_size"] // 2, pool_capacity=64)
        store.create_table("Traces", TRACE_SCHEMA, layout=n3_expr(lat, lon))
        table = store.load("Traces", records)
        pages = seeks = 0
        for q in queries:
            _, io = store.run_cold(lambda q=q: list(table.scan(predicate=q)))
            pages += io.page_reads
            seeks += io.read_seeks
        print(f"{cells:>10}{pages / len(queries):>13.1f}"
              f"{seeks / len(queries):>13.1f}")

    banner("Ablation B — page size")
    print(f"{'page KB':>8}{'pages/q':>10}{'seeks/q':>10}{'KB/q':>10}{'est ms':>9}")
    for page_size in (2_048, 8_192, 32_768, 131_072):
        lat, lon = grid_strides_for(BOSTON, 32)
        model = CostModel(page_size=page_size)
        store = RodentStore(page_size=page_size, pool_capacity=64,
                            cost_model=model)
        store.create_table("Traces", TRACE_SCHEMA, layout=n3_expr(lat, lon))
        table = store.load("Traces", records)
        pages = seeks = 0
        for q in queries:
            _, io = store.run_cold(lambda q=q: list(table.scan(predicate=q)))
            pages += io.page_reads
            seeks += io.read_seeks
        n = len(queries)
        print(f"{page_size // 1024:>8}{pages / n:>10.1f}{seeks / n:>10.1f}"
              f"{pages / n * page_size / 1024:>10.1f}"
              f"{model.cost_ms(pages / n, seeks / n):>9.2f}")

    banner("Ablation D — cell ordering (seeks)")
    base = (
        "grid[lat, lon],[{lat:g}, {lon:g}](project[lat, lon]"
        "(groupby[id](orderby[t](Traces))))"
    )
    lat, lon = grid_strides_for(BOSTON, 48)
    print(f"{'ordering':<10}{'pages/query':>12}{'seeks/query':>12}")
    for name, template in (
        ("rowmajor", base),
        ("zorder", f"zorder({base})"),
        ("hilbert", f"hilbert({base})"),
    ):
        store = RodentStore(page_size=4096, pool_capacity=64)
        store.create_table(
            "Traces", TRACE_SCHEMA, layout=template.format(lat=lat, lon=lon)
        )
        table = store.load("Traces", records)
        pages = seeks = 0
        for q in queries:
            _, io = store.run_cold(lambda q=q: list(table.scan(predicate=q)))
            pages += io.page_reads
            seeks += io.read_seeks
        print(f"{name:<10}{pages / len(queries):>12.1f}"
              f"{seeks / len(queries):>12.1f}")


def compression(scale: dict) -> None:
    from repro.compression import get_codec
    from repro.types import INT
    from repro.workloads import generate_timeseries, generate_traces, series_column

    banner("Ablation C — compression ratios (encoded/raw)")
    traces = generate_traces(scale["n_observations"] // 2, n_vehicles=10)
    columns = {
        "trace.lat": [r[1] for r in traces],
        "trace.id": [r[3] for r in traces],
        "ts.smooth": series_column(
            generate_timeseries(20_000, n_series=1, kind="smooth"), 0
        ),
        "ts.steppy": series_column(
            generate_timeseries(20_000, n_series=1, kind="steppy"), 0
        ),
    }
    baseline = {
        name: len(get_codec("none").encode(v, INT))
        for name, v in columns.items()
    }
    print(f"{'codec':<9}" + "".join(f"{n:>12}" for n in columns))
    for codec_name in ("varint", "delta", "rle", "dict", "bitpack", "lz"):
        codec = get_codec(codec_name)
        row = []
        for name, values in columns.items():
            encoded = codec.encode(values, INT)
            row.append(len(encoded) / baseline[name])
        print(f"{codec_name:<9}" + "".join(f"{r:>12.3f}" for r in row))


def reorganization(scale: dict) -> None:
    from repro.engine.database import RodentStore
    from repro.optimizer.reorganize import Policy, ReorganizationManager
    from repro.workloads import (
        BOSTON,
        TRACE_SCHEMA,
        generate_traces,
        grid_strides_for,
        random_region_queries,
    )

    banner("Ablation H — reorganization policies (10 accesses)")
    records = generate_traces(scale["n_observations"] // 4, n_vehicles=10)
    queries = random_region_queries(5)
    lat, lon = grid_strides_for(BOSTON, 32)
    design = f"grid[lat, lon],[{lat:g}, {lon:g}](Traces)"
    print(f"{'policy':<15}{'rewrite writes':>15}{'query reads':>13}"
          f"{'loaded run':>14}")
    for policy in (Policy.EAGER, Policy.NEW_DATA_ONLY, Policy.LAZY):
        store = RodentStore(page_size=scale["page_size"] // 2, pool_capacity=64)
        store.create_table("Traces", TRACE_SCHEMA)
        store.load("Traces", records)
        manager = ReorganizationManager(store)
        manager.lazy_access_threshold = 4
        manager.set_policy("Traces", policy)
        manager.apply_design("Traces", design)
        reads = 0
        for i in range(10):
            manager.on_access("Traces")
            table = store.table("Traces")
            q = queries[i % len(queries)]
            _, io = store.run_cold(lambda q=q: list(
                table.scan(fieldlist=["lat", "lon"], predicate=q)
            ))
            reads += io.page_reads
        print(f"{policy.value:<15}"
              f"{manager.reorganization_io.page_writes:>15}"
              f"{reads:>13}{store.table('Traces').main_plan.kind:>14}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=SCALES, default="default")
    parser.add_argument(
        "--adapt-bench-only",
        action="store_true",
        help="run only the adaptive-loop benchmark and write "
        "BENCH_adapt.json",
    )
    parser.add_argument(
        "--adapt-bench-out",
        default="BENCH_adapt.json",
        help="output path for the adaptive-loop benchmark JSON",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="RNG seed for data/query generation (recorded in every "
        "BENCH_*.json so runs are reproducible)",
    )
    args = parser.parse_args()
    scale = SCALES[args.scale]
    print(f"scale: {args.scale} {scale}  seed: {args.seed}")

    start = time.time()
    if args.adapt_bench_only:
        adapt_bench(scale, args.adapt_bench_out, seed=args.seed)
        print(f"\ntotal: {time.time() - start:.1f}s")
        return
    figure2(scale)
    sales(scale)
    adapt_bench(scale, args.adapt_bench_out, seed=args.seed)
    optimizer(scale)
    compression(scale)
    ablations(scale)
    reorganization(scale)
    print(f"\ntotal: {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
