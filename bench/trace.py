"""Benchmark-side tracing: timing wrappers around each layer's entry points.

Nothing under ``src/`` knows about this file. :func:`tracing` patches the
public entry points of every layer (module = layer) with wrappers that
record one span per call — name, start, end, parent span, and the id of the
benchmark op that caused it — and restores the originals on exit. Generators
are timed per ``next()``: a suspended generator has no open span, so spans
always nest and a span's self time is its duration minus its children's.

Targets are looked up by name when tracing starts; one that a refactor has
removed is skipped and listed in ``Tracer.missing`` (its metrics read 0)
rather than failing the run, because the end-to-end metrics never depend on
tracing.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

#: Op ids for spans recorded outside the measured op loop.
SETUP, RECOVERY = -1, -2


class Tracer:
    """In-memory span store (parallel arrays; a span is an index)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.arg = array("q")
        self.stack = [-1]
        self.op_id = SETUP
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.arg.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int, arg: int = 0) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()
        if arg:
            self.arg[idx] = arg

    @contextmanager
    def span(self, name: str):
        idx = self.begin(self.name_id(name))
        try:
            yield idx
        finally:
            self.finish(idx)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> tuple[dict[str, dict], dict[str, dict]]:
        """Per span name: calls, self seconds, summed ``arg`` — over every
        span, and over the spans of the measured op loop only (op id >= 0).

        ``outer_*`` count only spans whose parent has another name, so a
        method that calls its own kind (``And.filter_vector`` → its parts)
        is counted once.
        """
        n = len(self.start)
        self_ns = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]

        def empty():
            return [{"calls": 0, "self_s": 0.0, "arg": 0,
                     "outer_calls": 0, "outer_arg": 0} for _ in self.names]

        whole, loop = empty(), empty()
        for i in range(n):
            outer = parent[i] < 0 or self.name[parent[i]] != self.name[i]
            for rows in (whole, loop) if self.op[i] >= 0 else (whole,):
                row = rows[self.name[i]]
                row["calls"] += 1
                row["self_s"] += self_ns[i] / 1e9
                row["arg"] += self.arg[i]
                if outer:
                    row["outer_calls"] += 1
                    row["outer_arg"] += self.arg[i]
        return dict(zip(self.names, whole)), dict(zip(self.names, loop))

    def ops_containing(self, name: str) -> set[int]:
        """Ids of the ops under which a span called ``name`` was recorded."""
        nid = self._name_ids.get(name)
        return {self.op[i] for i in range(len(self.start)) if self.name[i] == nid}

    def dump(self, path: str, meta: dict) -> None:
        """Write every span: ``[name id, start ns, end ns, parent, op id]``."""
        spans = list(zip(self.name, self.start, self.end, self.parent, self.op))
        with open(path, "w") as f:
            json.dump(
                {"meta": meta, "names": self.names, "missing": self.missing,
                 "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                 "spans": spans},
                f, separators=(",", ":"),
            )


def _wrap(tracer: Tracer, fn, name: str, arg_of=None, item_of=None):
    """Span around a call; an iterator result is then timed per ``next()``.

    ``arg_of(args, result)`` / ``item_of(item)`` give the integer a span
    carries (bytes decoded, rows in a batch, ...).
    """
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    def traced_iter(it):
        try:
            while True:
                idx = begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    finish(idx)
                    return
                except BaseException:
                    finish(idx)
                    raise
                finish(idx, item_of(item) if item_of else 0)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def traced(*args, **kwargs):
        idx = begin(nid)
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx, arg_of(args, result) if arg_of else 0)
        if hasattr(result, "__next__"):
            return traced_iter(result)
        return result

    traced.__wrapped__ = fn
    return traced


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _payload_len(args, result) -> int:
    return len(args[1])  # (self, data, dtype)


def _declined(args, result) -> int:
    return 1 if result is None else 0


def _merges(args, result) -> int:
    return result.get("merges", 0) if isinstance(result, dict) else 0


def _batch_rows(item) -> int:
    return getattr(item, "n_rows", 0)


#: (module, class or None, attribute, span name, arg extractor).
_TARGETS = [
    ("repro.query.frontend", "Q", "run", "query.frontend.run", None),
    ("repro.query.planner", None, "compile_query", "query.planner.compile", None),
    ("repro.engine.database", None, "parse", "algebra.compile", None),
    ("repro.algebra.interpreter", "AlgebraInterpreter", "compile",
     "algebra.compile", None),
    ("repro.engine.table", "Table", "scan_column_batches", "engine.table.scan", None),
    ("repro.engine.table", "Table", "insert", "engine.table.insert", None),
    ("repro.engine.table", "Table", "update", "engine.table.rewrite", None),
    ("repro.engine.table", "Table", "delete", "engine.table.rewrite", None),
    ("repro.engine.table", "Table", "flush_inserts", "engine.table.flush", None),
    ("repro.engine.table", "Table", "compact", "engine.table.compact", None),
    ("repro.engine.database", "RodentStore", "seal_level_run",
     "engine.levels.seal", None),
    ("repro.engine.database", "RodentStore", "compact_levels",
     "engine.levels.merge", _merges),
    ("repro.engine.database", "RodentStore", "checkpoint",
     "engine.database.checkpoint", None),
    ("repro.engine.recovery", None, "recover_store", "engine.recovery.replay", None),
    ("repro.layout.renderer", "LayoutRenderer", "render", "layout.render", None),
    ("repro.layout.renderer", "LayoutRenderer", "render_region",
     "layout.render", None),
    ("repro.storage.buffer", "BufferPool", "fetch", "storage.buffer.fetch", None),
    ("repro.storage.disk", "DiskManager", "read_page", "storage.disk.read", None),
    ("repro.storage.disk", "DiskManager", "write_page", "storage.disk.write", None),
    ("repro.storage.disk", "DiskManager", "fsync", "storage.disk.fsync", None),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal.append", None),
    ("repro.storage.wal", "WriteAheadLog", "sync", "storage.wal.sync", None),
    ("repro.engine.indexes", "FieldIndex", "positions_in_range",
     "index.lookup", None),
    ("repro.engine.indexes", "SpatialIndex", "positions_in_box",
     "index.lookup", None),
]

#: (module, base class, attributes, span name or None = per class, arg
#: extractor): wrapped on the base class and on every subclass defining it.
#: Operator and renderer batch iterators also carry each batch's row count.
_FAMILIES = [
    ("repro.query.operators", "Operator", ("batches",), None, None),
    ("repro.compression.base", "Codec", ("encode",), "compression.encode", None),
    ("repro.compression.base", "Codec", ("decode", "decode_all", "decode_buffer"),
     "compression.decode", _payload_len),
    ("repro.query.expressions", "Predicate", ("filter_vector",),
     "query.expressions.filter_vector", _declined),
]

_OPERATOR_SPANS = {
    "TableScanOp": "scan", "ParallelTableScanOp": "scan", "FilterOp": "filter",
    "HashJoinOp": "join", "GroupByOp": "groupby", "SortOp": "sort",
}


def _iter_targets(tracer: Tracer):
    for module, cls, attr, name, arg_of in _TARGETS:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            if attr not in vars(owner):
                raise AttributeError(attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            continue
        yield owner, attr, name, arg_of, None
    for module, base, attrs, name, arg_of in _FAMILIES:
        try:
            root = getattr(importlib.import_module(module), base)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module}.{base}")
            continue
        # Import the package so every registered subclass exists.
        importlib.import_module(module.rsplit(".", 1)[0])
        for cls in _subclasses(root):
            for attr in attrs:
                if attr in vars(cls):
                    span = name or "query.operators." + _OPERATOR_SPANS.get(
                        cls.__name__, "other"
                    )
                    yield cls, attr, span, arg_of, (
                        _batch_rows if attr == "batches" else None)
    # The renderer's batch iterators and cell/stream reads, whatever their
    # names — not its row-at-a-time iterators: a span per row would cost
    # more than the row.
    try:
        renderer = importlib.import_module("repro.layout.renderer").LayoutRenderer
    except (ImportError, AttributeError):
        tracer.missing.append("repro.layout.renderer.LayoutRenderer")
        return
    for attr in list(vars(renderer)):
        if attr.startswith("read_") or (
                attr.startswith("iter_") and attr.endswith("batches")):
            yield renderer, attr, "layout.read", None, _batch_rows


@contextmanager
def tracing():
    """Install the wrappers, yield the :class:`Tracer`, restore originals."""
    tracer = Tracer()
    patched = []
    try:
        for owner, attr, name, arg_of, item_of in list(_iter_targets(tracer)):
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, original, name, arg_of, item_of))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
