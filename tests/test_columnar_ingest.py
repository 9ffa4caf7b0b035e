"""Columnar ingest: coercion a column at a time, and seals and merges that
pass column vectors from the pages they read to the pages they write.

* ``Schema.coerce_records`` is ``[coerce_record(r) for r in records]`` —
  the same values, the same Python types, the same first error — for any
  batch (hypothesis).
* Every sealed and merged run of a levelled table is byte-identical, page
  by page, to a render of the batch's rows through the tuple path, and
  scans answer like ``tests/oracle.py`` — with numpy on and off.
* A merge that has nothing to resolve builds no row tuple, an all-int
  insert coerces no record, and a user codec still receives native values.
"""

import math
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from reference import Evaluator, from_evaluated
from repro import vector
from repro.compression import Codec, get_codec, register
from repro.compression import base as compression_base
from repro.engine import levels
from repro.engine.database import RodentStore
from repro.layout.renderer import ColumnBatch, LayoutRenderer
from repro.query.expressions import Range
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.types import Schema

PAGE_SIZE = 1024


@pytest.fixture(params=[True, False], ids=["numpy", "stdlib"])
def numpy_mode(request):
    if request.param and vector.numpy_module() is None:
        pytest.skip("numpy not installed")
    previous = vector.set_numpy_enabled(request.param)
    yield request.param
    vector.set_numpy_enabled(previous)


# ---------------------------------------------------------------------------
# coercion: one batch a column at a time, exactly the per-record loop
# ---------------------------------------------------------------------------


class Level(IntEnum):
    LOW = 1
    HIGH = 2


COERCE_SCHEMA = Schema.of(
    "i:int", "f:float", "ts:timestamp", "d:double", "b:bool", "s:string",
    "raw:bytes",
)

EDGE_VALUES = st.one_of(
    st.sampled_from([
        -(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 10**400, 0, True, False,
        Level.LOW, Level.HIGH, 3.0, 2.5, -0.0, math.nan, math.inf, -math.inf,
        None, "", "x", b"", b"\x00", bytearray(b"ab"),
    ]),
    st.integers(), st.floats(), st.text(max_size=3), st.binary(max_size=3),
)


def _typed_value(index):
    """Mostly well-typed values for field ``index`` (so batches often take
    the bulk path), sometimes any edge value."""
    well_typed = [
        st.integers(-(2**63), 2**63 - 1), st.floats(), st.integers(0, 2**40),
        st.one_of(st.floats(), st.integers(-(2**53), 2**53)), st.booleans(),
        st.text(max_size=4), st.binary(max_size=4),
    ][index]
    return st.one_of(well_typed, well_typed, well_typed, EDGE_VALUES)


RECORD = st.one_of(
    st.tuples(*(_typed_value(i) for i in range(len(COERCE_SCHEMA)))),
    st.lists(EDGE_VALUES, max_size=len(COERCE_SCHEMA) + 1),  # ragged arity
)


def _outcome(coerce):
    """What a coercion did: each value's type and repr (NaN-safe), or the
    type and message of the exception it raised."""
    try:
        records = coerce()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "raised", type(exc), str(exc)
    return "coerced", [[(type(v), repr(v)) for v in r] for r in records]


@settings(max_examples=300, deadline=None)
@given(st.lists(RECORD, max_size=6))
def test_coerce_records_is_the_record_loop(records):
    assert _outcome(lambda: COERCE_SCHEMA.coerce_records(records)) == _outcome(
        lambda: [COERCE_SCHEMA.coerce_record(r) for r in records]
    )


@pytest.mark.parametrize("records", [
    [(1, 2), (3, 4.5)],  # ints into a float column become floats
    [(3.0, 1), (Level.HIGH, 2.5)],
    [(Level.LOW, 1.0)],
    [(2**63 - 1, 1.0), (-(2**63), 10**300)],
    [(True, 1.0)],
    [(2**63, 1.0)],
    [(1, 10**400)],
    [(1, 1.0), (1,)],
    [(1, "x")],
])
def test_coerce_records_keeps_the_loops_edge_results(records):
    schema = Schema.of("i:int", "f:float")
    assert _outcome(lambda: schema.coerce_records(records)) == _outcome(
        lambda: [schema.coerce_record(r) for r in records]
    )


def test_an_all_int_insert_coerces_no_record(monkeypatch):
    store = RodentStore(page_size=PAGE_SIZE, level_seal_rows=64)
    store.create_table("T", Schema.of("a:int", "t:int"),
                       layout="levels[2; 2](columns(T))")
    calls = []
    real = Schema.coerce_record

    def spy(self, record):
        calls.append(record)
        return real(self, record)

    monkeypatch.setattr(Schema, "coerce_record", spy)
    table = store.table("T")
    table.insert([(i, i * 10) for i in range(100)])
    assert calls == []
    table.insert([(1.0, 2)])  # a float into an int column: the loop runs
    assert calls == [(1.0, 2)]
    assert sorted(table.scan())[-2:] == [(98, 980), (99, 990)]
    store.close()


# ---------------------------------------------------------------------------
# seals and merges: vectors in, pages byte-identical to the tuple path
# ---------------------------------------------------------------------------


SCHEMA = Schema.of("a:int", "b:float", "c:string", "t:int")
NAMES = tuple(SCHEMA.names())


class PageAudit:
    """Checks every ``render_region`` call against the tuple path: the page
    images it writes must equal, byte for byte, those of rendering
    ``batch.rows()`` through the reference ``Evaluator`` on a scratch renderer,
    and so must its zone maps. Images are taken before a run's pages are
    chained (page ids differ between the two renders; nothing else may)."""

    def __init__(self, monkeypatch):
        self.renders = 0
        self._written: list[bytes] = []
        self._scratch = LayoutRenderer(
            BufferPool(DiskManager(page_size=PAGE_SIZE), capacity=64)
        )
        written = self._written
        write_pages = LayoutRenderer._write_pages
        render_region = LayoutRenderer.render_region

        def capture(renderer, pages):
            written.extend(bytes(page.buffer) for page in pages)
            return write_pages(renderer, pages)

        def audited(renderer, plan, residual, batch):
            assert isinstance(batch, ColumnBatch)
            start = len(written)
            layout = render_region(renderer, plan, residual, batch)
            got = written[start:]
            rows = Evaluator({"__stored__": (batch.rows(), batch.fields)})
            reference = self._scratch.render(
                plan, from_evaluated(rows.evaluate(residual))
            )
            want = written[start + len(got):]
            del written[start:]
            assert got == want, f"pages differ from the tuple path: {plan.describe()}"
            assert _zones(layout) == _zones(reference), plan.describe()
            self.renders += 1
            return layout

        monkeypatch.setattr(LayoutRenderer, "_write_pages", capture)
        monkeypatch.setattr(LayoutRenderer, "render_region", audited)


def _zones(layout):
    """A layout's zone maps as plain values, collection by collection."""
    synopsis = layout.synopsis
    tables = [synopsis.page_zones, synopsis.cell_zones, synopsis.folded_zones,
              *synopsis.group_zones]
    return [
        (vector.to_list(t.row_counts), {
            name: (vector.to_list(c.mins), vector.to_list(c.maxs),
                   vector.to_list(c.null_counts))
            for name, c in t.fields.items()
        })
        for t in tables
    ]


def _rows(rng, n, start):
    return [
        (rng.randrange(50), rng.choice([rng.uniform(-5, 5), 0.5, -0.0]),
         rng.choice(["x", "yy", "", "zzz"]), start + i)
        for i in range(n)
    ]


DESIGNS = [
    "levels[4; 4](columns(T))",
    "levels[2; 2](compress[varint; a](columns(T)))",
    "levels[2; 2](columns[[a, b], [c, t]](T))",
    "levels[2; 2](orderby[t](T))",
    "levels[2; 2; r.a](columns(T))",
]


@pytest.mark.parametrize("design", DESIGNS)
def test_sealed_and_merged_pages_equal_the_tuple_path(design, numpy_mode, monkeypatch):
    audit = PageAudit(monkeypatch)
    rng = random.Random(len(design))
    store = RodentStore(page_size=PAGE_SIZE, level_seal_rows=16)
    store.create_table("T", SCHEMA, layout=design)
    table = store.table("T")
    loaded = _rows(rng, 40, 0)
    store.load("T", loaded)
    model = oracle.Model(NAMES, loaded, design)
    for step in range(24):
        batch = _rows(rng, 9, 1000 + 10 * step)
        table.insert(batch)
        model.insert(batch)
        if step % 6 == 5:  # keyed: kills the key; multiset: tombstones
            victims = Range("a", step, step + 6)
            assert table.delete(victims) == model.delete(victims)
        oracle.check_table(table, model, context=f"step {step}")
        oracle.check_table(table, model, predicate=Range("t", 1050, 1150))
    tail = _rows(rng, 5, 5000)  # pending when the full merge folds it in
    table.insert(tail)
    model.insert(tail)
    table.compact()
    oracle.check_table(table, model, context="after a full merge")
    entry = store.catalog.entry("T")
    assert entry.regions[0].level_tombstones == [] and table.run_count == 1
    assert audit.renders > 10
    store.close()


def test_multiset_tombstones_survive_merges_as_rows(numpy_mode, monkeypatch):
    """Deletes on a multiset table leave tombstones; the merges that apply
    them read rows through the resolver and still write tuple-path pages."""
    audit = PageAudit(monkeypatch)
    design = "levels[2; 2](columns(T))"
    store = RodentStore(page_size=PAGE_SIZE, level_seal_rows=8)
    store.create_table("T", SCHEMA, layout=design)
    table = store.table("T")
    model = oracle.Model(NAMES, (), design)
    rng = random.Random(5)
    for step in range(20):
        batch = _rows(rng, 8, 100 * step) * 2  # equal copies in one run
        table.insert(batch)
        model.insert(batch)
        if step % 3 == 2:
            victims = Range("a", 10 * (step % 5), 10 * (step % 5) + 4)
            assert table.delete(victims) == model.delete(victims)
        oracle.check_table(table, model, context=f"step {step}")
    assert store.catalog.entry("T").regions[0].level_tombstones or table.run_count > 1
    table.compact()
    oracle.check_table(table, model)
    assert audit.renders > 10
    store.close()


def test_non_finite_floats_through_seal_and_merge(numpy_mode):
    design = "levels[2; 2](columns(T))"
    schema = Schema.of("x:float", "t:int")
    store = RodentStore(page_size=PAGE_SIZE, level_seal_rows=8)
    store.create_table("T", schema, layout=design)
    table = store.table("T")
    model = oracle.Model(("x", "t"), (), design)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5, -2.5, 1e308]
    rng = random.Random(3)
    for step in range(12):
        batch = [(rng.choice(specials), 8 * step + i) for i in range(8)]
        table.insert(batch)
        model.insert(batch)
        for lo, hi in ((-1.0, 2.0), (0.0, 0.0), (-math.inf, -1.0),
                       (1.0, math.inf), (-math.inf, math.inf)):
            oracle.check_table(table, model, predicate=Range("x", lo, hi))
    table.compact()
    oracle.check_table(table, model, predicate=Range("x", -math.inf, 0.0))
    store.close()


def test_a_merge_with_nothing_to_resolve_builds_no_rows(numpy_mode, monkeypatch):
    store = RodentStore(page_size=PAGE_SIZE, level_seal_rows=32)
    store.create_table("T", Schema.of("a:int", "t:int"),
                       layout="levels[2; 2](columns(T))")
    table = store.table("T")

    def no_rows(batch):
        raise AssertionError("a row tuple was built")

    merges = []
    real = levels.merge
    monkeypatch.setattr(
        levels, "merge",
        lambda *a, **k: merges.append(1) or real(*a, **k),
    )
    monkeypatch.setattr(ColumnBatch, "rows", no_rows)
    monkeypatch.setattr(ColumnBatch, "iter_rows", no_rows)
    for i in range(40):
        table.insert([(i, 32 * i + j) for j in range(32)])
    table.compact()  # the full merge folds the pending buffer in too
    assert len(merges) > 5 and table.run_count == 1
    monkeypatch.undo()
    assert sorted(table.scan()) == [(i, 32 * i + j) for i in range(40) for j in range(32)]
    store.close()


class NativeOnly(Codec):
    """A user codec that insists on the codec contract: a list of native
    Python values, never a vector."""

    name = "nativeonly"
    calls = 0

    def encode(self, values, dtype):
        assert type(values) is list
        assert all(type(v) is int for v in values)
        NativeOnly.calls += 1
        return get_codec("none").encode(values, dtype)

    def decode(self, data, dtype):
        return get_codec("none").decode(data, dtype)


def test_a_user_codec_still_receives_native_values(numpy_mode, monkeypatch):
    monkeypatch.setattr(NativeOnly, "calls", 0)
    register(NativeOnly())
    try:
        store = RodentStore(page_size=PAGE_SIZE, level_seal_rows=16)
        store.create_table(
            "T", Schema.of("a:int", "t:int"),
            layout="levels[2; 2](compress[nativeonly; a](columns(T)))",
        )
        table = store.table("T")
        for i in range(12):
            table.insert([(i, 16 * i + j) for j in range(16)])
        table.compact()
        assert NativeOnly.calls > 10
        assert sorted(table.scan()) == sorted(
            (i, 16 * i + j) for i in range(12) for j in range(16)
        )
        store.close()
    finally:
        compression_base._REGISTRY.pop(NativeOnly.name, None)
