"""Run one workload against a durable, checksummed, file-backed store.

One process, one client thread, closed loop: each op waits for its reply.
The op count is fixed by ``--seconds`` (``ops_per_s * seconds``), not by the
clock, so every count repeats exactly at equal seed. Phases of a run:

1. set-up, ``SETUP_REPEATS`` times into fresh directories (median reported):
   generate, create, load, index, checkpoint, warm pass;
2. the measured op loop on the last store (no checkpoint inside it);
3. replay of the ops through the naive model and comparison of answers;
4. simulated power loss and timed reopen, on copies of the crashed files,
   then comparison of every table with the model;
5. final checkpoint for the space measurement.

With ``trace=True`` phases 1–4 run once under :mod:`bench.trace` (after an
untraced reference pass) and the per-layer metrics of :mod:`bench.metrics`
are returned instead of the end-to-end ones.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
from time import perf_counter

from repro import vector
from repro.engine.database import RodentStore
from repro.query import Q, Range, Rect
from repro.storage.faults import lose_unsynced_wal

from bench import metrics as M, trace as tracing_mod
from bench.speed import Speed
from bench.model import Model, digest, empty_aggregate
from bench.workloads import WORKLOADS, Data, Op, Workload

SETUP_REPEATS = 3
#: The files of a durable store at ``path``: pages, WAL, catalog.
STORE_FILES = ("", ".wal", ".catalog.json")
#: Recoveries timed per run (median reported), each on its own copy of the
#: crashed files.
RECOVERY_REPEATS = 3
#: Share of the op list the traced run's untraced reference pass executes
#: (both passes run the same prefix from the same state).
REFERENCE_SHARE = 0.25


def open_store(path: str, wl: Workload, size: dict) -> RodentStore:
    return RodentStore(
        path, durable=True, checksums=True, group_commit_window=0.0,
        page_size=M.PAGE_SIZE, pool_capacity=wl.pool_pages, adaptive=False,
        scan_workers=0, level_seal_rows=size.get("seal_rows", 2048),
    )


def remove_store(path: str) -> None:
    for suffix in STORE_FILES:
        os.remove(path + suffix)


def predicate(where):
    if len(where) == 1:
        return Range(*where[0])
    return Rect({f: (lo, hi) for f, lo, hi in where})


def build_q(store: RodentStore, q) -> Q:
    out = Q(store, q.table)
    if q.select:
        out.select(*q.select)
    if q.where:
        out.where(predicate(q.where))
    if q.join:
        out.join(q.join[0], on=q.join[1])
    if q.group_by:
        out.group_by(*q.group_by)
    if q.aggs:
        out.agg(**dict(q.aggs))
    if q.order_by:
        out.order_by(*q.order_by)
    if q.limit is not None:
        out.limit(q.limit)
    return out


def execute(store: RodentStore, op: Op):
    """Run one op; a write returns when its commit is acknowledged."""
    if op.query is not None:
        return build_q(store, op.query).run()
    table = store.table(op.table)
    if op.kind == "insert":
        n = table.insert(op.rows)
        if op.flush:
            table.flush_inserts()
        if op.compact:
            table.compact()
        return n
    if op.kind == "update":
        return table.update(op.assignments, predicate(op.where))
    return table.delete(predicate(op.where))


def set_up(wl: Workload, size: dict, seed: int, n_ops: int, path: str):
    """Generate the inputs and build a warmed store.

    Returns ``(data, store, timing)``; the speed samples taken between the
    steps are excluded from the set-up time they scale.
    """
    speed = Speed()
    sampling = 0.0

    def sample():
        nonlocal sampling
        t = perf_counter()
        speed.take()
        sampling += perf_counter() - t

    t0 = perf_counter()
    sample()
    data = wl.generate(seed, size, n_ops)
    gen_s = perf_counter() - t0 - sampling
    sample()
    store = open_store(path, wl, size)
    for spec in data.tables:
        store.create_table(spec.name, spec.schema, layout=spec.layout)
        store.load(spec.name, spec.rows)
        if spec.index:
            store.table(spec.name).create_index(spec.index)
        sample()
    store.checkpoint()
    for op in data.warm:
        execute(store, op)
    sample()
    raw = perf_counter() - t0 - sampling
    return data, store, {"raw_s": raw, "s": raw * speed.factor(), "gen_s": gen_s}


def counters(store: RodentStore) -> dict:
    s = store.storage_stats()
    pool, disk, wal = s["buffer_pool"], s["disk"], s["wal"]
    return {
        "page_reads": disk["page_reads"], "page_writes": disk["page_writes"],
        "hits": pool["hits"], "misses": pool["misses"],
        "evictions": pool["evictions"], "wal_bytes": wal["wal_bytes"],
        "wal_appends": wal["appends"], "wal_fsyncs": wal["fsyncs"],
        "verifications": s["integrity"]["page_verifications"],
    }


def run_ops(store: RodentStore, ops: list[Op], tracer=None) -> dict:
    """The measured loop. Answers are hashed here and compared later."""
    latency = [0.0] * len(ops)
    answers: list = [None] * len(ops)
    errors = 0
    run_count_max = 0
    speed = Speed()
    before = counters(store)
    start = perf_counter()
    for i, op in enumerate(ops):
        speed.tick(i)
        if tracer is not None:
            tracer.op_id = i
        result = None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = execute(store, op)
            else:
                with tracer.span("client.op"):
                    result = execute(store, op)
        except Exception:  # a failed op counts against the run
            errors += 1
        latency[i] = perf_counter() - t0
        if result is None:
            continue  # the op raised; its answer stays None
        if tracer is not None and not op.is_read:
            run_count_max = max(run_count_max, store.table(op.table).run_count)
        if op.is_read:
            q = op.query
            if not result and q.aggs and not q.group_by:
                result = empty_aggregate(q)
            answers[i] = digest(result, ordered=bool(q.order_by))
        else:
            answers[i] = result
    wall = perf_counter() - start
    speed.take(len(ops))
    after = counters(store)
    return {
        "latency": latency, "answers": answers, "errors": errors, "wall": wall,
        #: Op latencies at reference speed (see bench/speed.py).
        "scaled": [l * f for l, f in zip(latency, speed.factors(len(ops)))],
        "speed_samples": len(speed.costs),
        "loop_us": statistics.median(speed.costs) * 1e6,
        "delta": {k: after[k] - before[k] for k in before},
        "run_count_max": run_count_max,
    }


def crash_and_recover(store: RodentStore, path: str, wl, size, data: Data,
                      model: Model) -> dict:
    """Power loss, then reopen until the first query answers.

    The store is abandoned without ``close()`` (no checkpoint), WAL bytes no
    fsync covered are dropped with the public fault harness, and recovery
    runs on copies of the crashed files so that it can be timed repeatedly.
    Returns the median time, the recovered store (still open) and the number
    of tables whose contents differ from the model.
    """
    synced = store.wal.synced_size
    store.wal.close()
    store.disk.close()
    lose_unsynced_wal(path + ".wal", synced)
    repeats = size.get("recoveries") or RECOVERY_REPEATS
    times = []
    recovered = None
    probe = data.tables[0].name
    for n in range(repeats):
        target = path
        if n < repeats - 1:  # the last recovery runs on the original files
            target = f"{path}.crash{n}"
            for s in STORE_FILES:
                shutil.copyfile(path + s, target + s)
        t0 = perf_counter()
        reopened = open_store(target, wl, size)
        Q(reopened, probe).agg(n="*").run()
        times.append(perf_counter() - t0)
        if target == path:
            recovered = reopened
        else:
            reopened.close()
            remove_store(target)
    # Every acknowledged row present, nothing else visible.
    wrong = 0
    for spec in data.tables:
        _, rows = model.tables[spec.name]
        got = Q(recovered, spec.name).run()
        if digest(got, ordered=False) != digest(rows, ordered=False):
            wrong += 1
    summary = recovered.recovery_summary or {}
    return {
        "recovery_s": statistics.median(times), "store": recovered,
        "wrong_tables": wrong, "samples": len(times),
        "records_scanned": summary.get("records_scanned", 0),
    }


def replay(data: Data, ops: list[Op], answers: list, verify_every: int):
    """Apply ``ops`` to a fresh model; count answers that disagree with it."""
    model = Model()
    stored = {}
    for spec in data.tables:
        names = list(spec.schema.names())
        idx = [names.index(f) for f in spec.stored]
        stored[spec.name] = idx
        model.create(spec.name, spec.stored,
                     [tuple(r[i] for i in idx) for r in spec.rows])
    mismatches = checked = reads = 0
    for op, got in zip(ops, answers):
        if got is None:
            continue  # the op raised: counted by run_ops, and it changed nothing
        if op.is_read:
            reads += 1
            if reads % verify_every:
                continue
            want = digest(model.query(op.query), bool(op.query.order_by))
        elif op.kind == "insert":
            idx = stored[op.table]
            model.insert(op.table, [tuple(r[i] for i in idx) for r in op.rows])
            want = len(op.rows)
        elif op.kind == "update":
            want = model.update(op.table, op.assignments, op.where)
        else:
            want = model.delete(op.table, op.where)
        checked += 1
        mismatches += got != want
    return model, mismatches, checked


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        out_dir: str) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    wl = WORKLOADS[workload]
    size = wl.sizes[scale]
    n_ops = size.get("ops") or max(1, int(wl.ops_per_s * seconds))
    work = os.path.join(out_dir, f"run_{workload}_{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            return _traced_run(wl, size, seed, n_ops, work, out_dir)
        return _plain_run(wl, size, seed, n_ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _plain_run(wl, size, seed, n_ops, work) -> dict:
    setups = []
    repeats = size.get("setups") or SETUP_REPEATS
    for n in range(repeats):
        path = os.path.join(work, f"db{n}")
        data, store, timing = set_up(wl, size, seed, n_ops, path)
        setups.append(timing)
        if n < repeats - 1:
            store.close()
            del data, store
            remove_store(path)
    ops = data.ops
    measured = run_ops(store, ops)
    model, mismatches, checked = replay(
        data, ops, measured["answers"], wl.verify_every
    )
    recovery = crash_and_recover(store, path, wl, size, data, model)
    recovered = recovery["store"]
    recovered.checkpoint()
    recovered.close()
    disk_bytes = sum(os.path.getsize(path + s) for s in STORE_FILES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reads = M.latencies(ops, measured["scaled"], lambda op: op.is_read)
    raw_reads = M.latencies(ops, measured["latency"], lambda op: op.is_read)
    logical = sum(
        len(model.tables[spec.name][1]) * len(spec.schema.names()) * 8
        for spec in data.tables
    )
    failed = measured["errors"] + mismatches + recovery["wrong_tables"]
    metrics = {
        "setup_s": (statistics.median(t["s"] for t in setups), "s"),
        "ops_per_s": (len(ops) / sum(measured["scaled"]), "1/s"),
        "read_p50_ms": (M.ms(M.percentile(reads, 0.50)), "ms"),
        "read_p95_ms": (M.ms(M.percentile(reads, 0.95)), "ms"),
        "space_amp": (disk_bytes / logical, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    info = {
        "workload": wl.name, "seed": seed, "ops": len(ops),
        "reads": len(reads), "checked": checked,
        "measured_s": measured["wall"], "recovery_samples": recovery["samples"],
        "speed_samples": measured["speed_samples"],
        "reference_loop_us": measured["loop_us"],
        "vector.numpy": vector.numpy_enabled(),
        # The same timings as the clock read them, before speed scaling.
        "raw.setup_s": statistics.median(t["raw_s"] for t in setups),
        "raw.ops_per_s": len(ops) / sum(measured["latency"]),
        "raw.read_p50_ms": M.ms(M.percentile(raw_reads, 0.50)),
        "raw.read_p95_ms": M.ms(M.percentile(raw_reads, 0.95)),
    }
    info.update({k: v for k, (v, _) in M.client_metrics(ops, measured, data).items()})
    info["client.recovery_s"] = recovery["recovery_s"]
    return _result(ops, failed, metrics, info)


def _result(ops, failed, metrics, info) -> dict:
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def _traced_run(wl, size, seed, n_ops, work, out_dir) -> dict:
    # Untraced reference pass over a prefix of the ops, for the overhead.
    ref_path = os.path.join(work, "ref")
    data, store, timing = set_up(wl, size, seed, n_ops, ref_path)
    prefix = max(1, int(len(data.ops) * REFERENCE_SHARE))
    reference = run_ops(store, data.ops[:prefix])
    store.close()
    del store

    path = os.path.join(work, "db")
    with tracing_mod.tracing() as tracer:
        data, store, _ = set_up(wl, size, seed, n_ops, path)
        ops = data.ops
        measured = run_ops(store, ops, tracer)
        model, mismatches, checked = replay(
            data, ops, measured["answers"], wl.verify_every
        )
        tracer.op_id = tracing_mod.RECOVERY
        recommend_ms = M.recommend_ms(store, data)
        recovery = crash_and_recover(store, path, wl, size, data, model)
        recovered = recovery["store"]
        verify_us = M.verify_cost_us(recovered)
        pruned = M.pruned_shares(recovered, ops, predicate)
        recovered.close()
    failed = measured["errors"] + mismatches + recovery["wrong_tables"]
    traced_prefix_wall = sum(measured["scaled"][:prefix])
    reference_wall = sum(reference["scaled"])
    metrics = M.layer_metrics(tracer, ops, measured, data)
    metrics.update(M.client_metrics(ops, measured, data))
    metrics.update({
        "storage.integrity.verify_us_per_page": (verify_us, "us"),
        "engine.synopsis.pages_pruned_share": (pruned[0], "ratio"),
        "engine.synopsis.partitions_pruned_share": (pruned[1], "ratio"),
        "engine.recovery.records_scanned": (recovery["records_scanned"], "count"),
        "optimizer.recommend_ms": (recommend_ms, "ms"),
        "client.gen_s": (timing["gen_s"], "s"),
        "client.recovery_s": (recovery["recovery_s"], "s"),
        "client.trace_overhead_ratio": (traced_prefix_wall / reference_wall, "ratio"),
    })
    tracer.dump(
        os.path.join(out_dir, f"trace_{wl.name}.json"),
        {"workload": wl.name, "seed": seed, "ops": len(ops),
         "vector.numpy": vector.numpy_enabled()},
    )
    return _result(ops, failed, metrics, {
        "workload": wl.name, "seed": seed, "ops": len(ops), "checked": checked,
        "spans": len(tracer.start), "missing_targets": tracer.missing,
        "vector.numpy": vector.numpy_enabled(),
    })
