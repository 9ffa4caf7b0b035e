"""Metric arithmetic: percentiles, the client-side write and I/O figures,
and the per-layer metrics of a traced run (spans of :mod:`bench.trace` plus
``storage_stats()`` deltas taken at the same boundaries)."""

from __future__ import annotations

import math
from time import perf_counter

PAGE_SIZE = 16384
READ_KINDS = ("region", "trajectory", "count", "projection", "groupby", "join",
              "slice", "topk", "window", "customer")
WRITE_KINDS = ("insert", "update", "delete")


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def bytes_written_by_user(ops, answers: list, data) -> int:
    """Bytes the client asked to store: rows inserted or updated x 8 B/field."""
    width = {spec.name: len(spec.schema.names()) for spec in data.tables}
    total = 0
    for op, got in zip(ops, answers):
        if op.kind == "insert":
            total += len(op.rows) * width[op.table] * 8
        elif op.kind == "update" and got is not None:
            total += got * width[op.table] * 8
    return total


def rows_written(ops) -> int:
    return sum(len(op.rows) for op in ops if op.kind == "insert")


def ms(seconds: float) -> float:
    return seconds * 1000.0


def latencies(ops, latency, pick) -> list[float]:
    return sorted(l for op, l in zip(ops, latency) if pick(op))


def client_metrics(ops, measured, data) -> dict:
    """What the client saw of the write side, and the exact I/O ratios.

    Not end-to-end metrics because two workloads have no writes (and one
    never misses its cache), so they would be undefined or zero there;
    ``--verbose`` prints them and the traced run reports them per layer,
    together with ``client.recovery_s`` (too unsteady to gate on: it is
    bound by file opens and fsyncs, not by the CPU).
    """
    latency, delta = measured["latency"], measured["delta"]
    reads = sum(1 for op in ops if op.is_read)
    writes = latencies(ops, latency, lambda op: not op.is_read)
    user_bytes = bytes_written_by_user(ops, measured["answers"], data)
    written = delta["page_writes"] * PAGE_SIZE + delta["wal_bytes"]
    return {
        "client.write_p50_ms": (ms(percentile(writes, 0.50)), "ms"),
        "client.write_p95_ms": (ms(percentile(writes, 0.95)), "ms"),
        "client.ingest_rows_per_s": (
            rows_written(ops) / measured["wall"], "rows/s"),
        "client.write_amp": (
            written / user_bytes if user_bytes else 0.0, "ratio"),
        "client.pages_read_per_read": (
            delta["page_reads"] / reads if reads else 0.0, "pages"),
    }


def verify_cost_us(store) -> float:
    """Checksum verification per page: checked minus unchecked read, over
    (up to 256 pages of) the workload's own page file."""
    disk = store.disk
    free = disk.free_page_ids()
    pages = [p for p in range(min(disk.num_pages, 256)) if p not in free]
    if not pages:
        return 0.0
    checked, unchecked = [], []
    for _ in range(3):
        t0 = perf_counter()
        for p in pages:
            disk.read_page(p)
        t1 = perf_counter()
        for p in pages:
            disk.read_page_unchecked(p)
        t2 = perf_counter()
        checked.append(t1 - t0)
        unchecked.append(t2 - t1)
    return (min(checked) - min(unchecked)) / len(pages) * 1e6


def recommend_ms(store, data) -> float:
    """One advisor pass over what the store's own monitor saw of the first
    table's reads (0 when it saw nothing or the advisor declines)."""
    from repro.errors import RodentStoreError
    from repro.optimizer import recommend_for_table

    monitor = store.catalog.entry(data.tables[0].name).monitor
    if monitor is None:
        return 0.0
    workload = monitor.to_workload()
    if not workload.queries:
        return 0.0
    t0 = perf_counter()
    try:
        recommend_for_table(store, workload)
    except RodentStoreError:
        return 0.0
    return ms(perf_counter() - t0)


def pruned_shares(store, ops, predicate) -> tuple[float, float]:
    """Useful-outcome ratios of zone maps and partition maps: pages and
    partitions pruned ÷ pages and partitions held, over the workload's own
    read predicates (first 200 reads; ``predicate`` builds one from an op)."""
    tables = store.storage_stats()["tables"]
    pages = pages_total = parts = parts_total = 0
    for op in [op for op in ops if op.is_read and op.query.where][:200]:
        table = store.table(op.table)
        pred = predicate(op.query.where)
        regions = tables.get(op.table, {})
        regions = regions.get("partitions") or regions.get("runs")
        pages += table.pruned_pages(pred)
        pages_total += (sum(r["pages"] for r in regions) if regions
                        else table.layout.total_pages())
        if table.is_partitioned:
            parts += table.partitions_pruned(pred)
            parts_total += table.partition_count
    return (pages / pages_total if pages_total else 0.0,
            parts / parts_total if parts_total else 0.0)


def layer_metrics(tracer, ops, measured, data) -> dict:
    """Per-layer metrics from the spans and the ``storage_stats()`` deltas."""
    whole, loop = tracer.totals()
    zero = {"calls": 0, "self_s": 0.0, "arg": 0, "outer_calls": 0, "outer_arg": 0}

    def w(name):
        return whole.get(name, zero)

    def m(name):
        return loop.get(name, zero)

    delta, latency = measured["delta"], measured["latency"]
    reads = [op for op in ops if op.is_read]
    rendered_rows = sum(len(s.rows) for s in data.tables) + rows_written(ops)
    op_total = sum(latency)
    scan_in = m("query.operators.scan")
    operator_s = sum(
        m("query.operators." + k)["self_s"]
        for k in ("scan", "filter", "join", "groupby", "sort", "other")
    )
    user_bytes = bytes_written_by_user(ops, measured["answers"], data)
    merge_ops = tracer.ops_containing("engine.levels.merge")
    stalls = [latency[i] for i in merge_ops if i >= 0]
    fetches = delta["hits"] + delta["misses"]
    fv = m("query.expressions.filter_vector")
    out = {
        "algebra.compile_ms": (ms(w("algebra.compile")["self_s"]), "ms"),
        "layout.render_s": (w("layout.render")["self_s"], "s"),
        "layout.render_rows_per_s": (
            rendered_rows / w("layout.render")["self_s"]
            if w("layout.render")["self_s"] else 0.0, "rows/s"),
        "layout.read_self_s": (m("layout.read")["self_s"], "s"),
        "layout.batches": (m("layout.read")["calls"], "count"),
        "layout.rows_out": (m("layout.read")["arg"], "rows"),
        "compression.decode_s": (m("compression.decode")["self_s"], "s"),
        "compression.decode_calls": (m("compression.decode")["outer_calls"], "count"),
        "compression.decode_bytes": (m("compression.decode")["outer_arg"], "bytes"),
        "compression.encode_s": (w("compression.encode")["self_s"], "s"),
        "storage.disk.read_s": (m("storage.disk.read")["self_s"], "s"),
        "storage.disk.page_reads": (delta["page_reads"], "count"),
        "storage.disk.write_s": (m("storage.disk.write")["self_s"], "s"),
        "storage.disk.page_writes": (delta["page_writes"], "count"),
        "storage.disk.fsync_s": (m("storage.disk.fsync")["self_s"], "s"),
        "storage.integrity.verifications": (delta["verifications"], "count"),
        "storage.buffer.fetch_self_s": (m("storage.buffer.fetch")["self_s"], "s"),
        "storage.buffer.fetches": (fetches, "count"),
        "storage.buffer.hit_rate": (
            delta["hits"] / fetches if fetches else 1.0, "ratio"),
        "storage.buffer.evictions": (delta["evictions"], "count"),
        "storage.wal.append_s": (m("storage.wal.append")["self_s"], "s"),
        "storage.wal.sync_s": (m("storage.wal.sync")["self_s"], "s"),
        "storage.wal.appends": (delta["wal_appends"], "count"),
        "storage.wal.fsyncs": (delta["wal_fsyncs"], "count"),
        "storage.wal.bytes_per_user_byte": (
            delta["wal_bytes"] / user_bytes if user_bytes else 0.0, "ratio"),
        "engine.table.scan_self_s": (m("engine.table.scan")["self_s"], "s"),
        "engine.table.insert_self_s": (m("engine.table.insert")["self_s"], "s"),
        "engine.table.rewrite_s": (m("engine.table.rewrite")["self_s"], "s"),
        "engine.table.flush_s": (m("engine.table.flush")["self_s"], "s"),
        "engine.table.compact_s": (m("engine.table.compact")["self_s"], "s"),
        "engine.levels.seal_s": (m("engine.levels.seal")["self_s"], "s"),
        "engine.levels.merge_s": (m("engine.levels.merge")["self_s"], "s"),
        "engine.levels.merges": (m("engine.levels.merge")["arg"], "count"),
        "engine.levels.run_count_max": (measured["run_count_max"], "count"),
        "engine.levels.stall_max_ms": (ms(max(stalls, default=0.0)), "ms"),
        "engine.recovery.replay_s": (
            w("engine.recovery.replay")["self_s"]
            / max(1, w("engine.recovery.replay")["calls"]), "s"),
        "engine.database.checkpoint_s": (
            w("engine.database.checkpoint")["self_s"], "s"),
        "query.planner.plan_ms_per_query": (
            ms(m("query.planner.compile")["self_s"]) / max(1, len(reads)), "ms"),
        "query.frontend.run_self_s": (m("query.frontend.run")["self_s"], "s"),
        "query.operators.scan_s": (scan_in["self_s"], "s"),
        "query.operators.filter_s": (m("query.operators.filter")["self_s"], "s"),
        "query.operators.join_s": (m("query.operators.join")["self_s"], "s"),
        "query.operators.groupby_s": (m("query.operators.groupby")["self_s"], "s"),
        "query.operators.sort_s": (m("query.operators.sort")["self_s"], "s"),
        "query.operators.other_s": (m("query.operators.other")["self_s"], "s"),
        "query.operators.rows_in_per_s": (
            scan_in["arg"] / operator_s if operator_s else 0.0, "rows/s"),
        "query.expressions.filter_vector_s": (fv["self_s"], "s"),
        "query.expressions.filter_vector_calls": (fv["outer_calls"], "count"),
        "query.expressions.fallback_share": (
            fv["outer_arg"] / fv["outer_calls"] if fv["outer_calls"] else 0.0,
            "ratio"),
        "index.lookup_s": (m("index.lookup")["self_s"], "s"),
        "index.lookups": (m("index.lookup")["calls"], "count"),
        "client.op_total_s": (op_total, "s"),
        "client.untraced_share": (
            m("client.op")["self_s"] / op_total if op_total else 0.0, "ratio"),
        "client.result_rows_per_op": (
            sum(a[0] for op, a in zip(ops, measured["answers"])
                if op.is_read and a is not None) / max(1, len(reads)),
            "rows"),
    }
    for kind in READ_KINDS + WRITE_KINDS:
        sample = latencies(ops, latency, lambda op, k=kind: op.kind == k)
        out[f"client.{kind}_p50_ms"] = (ms(percentile(sample, 0.50)), "ms")
    return out
