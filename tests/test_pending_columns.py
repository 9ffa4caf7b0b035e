"""The pending buffer keeps columns (``catalog.PendingBuffer``).

A region's inserts wait as one append-only vector per stored field, so a
scan filters them with the vector kernels and a seal or merge renders them
without a transpose. The checks here:

* the append-only column (``vector.extend`` / ``vector.head``): typed
  exactly where every value fits, a list otherwise, and a head never sees
  a later append;
* scans that read pending rows equal ``tests/oracle.py`` — ints near 2**53
  and -2**60, NaN floats and strings; a non-vectorizing ``ScalarPredicate``;
  keyed levels and tombstoned regions; updates and deletes over pending
  rows; a scan pinned before an insert, and one pinned inside an insert
  that aborts, followed by a new insert; reopening through WAL replay and
  through the catalog image — with numpy on and off;
* sealed and merged pages equal, byte for byte, a render of the same rows
  through the tuple path (``PageAudit``).
"""

from array import array

import pytest

import oracle
from repro import vector
from repro.algebra.parser import parse_condition
from repro.engine.catalog import PendingBuffer
from repro.engine.database import RodentStore, _Mutation
from repro.errors import CrashError, StorageError
from repro.query.expressions import And, Range, ScalarPredicate, from_scalar
from repro.storage.faults import FaultInjector, IoFault, IoFaultInjector
from repro.types import Schema
from test_columnar_ingest import PageAudit

SCHEMA = Schema.of("t:int", "x:int", "f:float", "s:string")
NAMES = tuple(SCHEMA.names())
BIG = 2**53
NAN = float("nan")


@pytest.fixture(params=[True, False], ids=["numpy", "stdlib"])
def numpy_leg(request):
    if request.param and vector.numpy_module() is None:
        pytest.skip("numpy not installed")
    previous = vector.set_numpy_enabled(request.param)
    yield request.param
    vector.set_numpy_enabled(previous)


def batch(start: int, n: int) -> list[tuple]:
    """``n`` rows: ``t`` just past 2**53, ``x`` near -2**60, a NaN in
    every third ``f``, and strings (the empty one among them)."""
    return [
        (BIG + start + i, -(2**60) + (start + i) % 7,
         NAN if (start + i) % 3 == 0 else (start + i) / 4 - 5,
         ["", "a", "bb", "ccc"][(start + i) % 4])
        for i in range(n)
    ]


#: Predicates over pending rows: exact int bounds beyond 2**53, a float
#: bound on an int field, a float range beside NaN, a conjunction, and a
#: residual condition that does not vectorize.
PREDICATES = [
    None,
    Range("t", BIG + 3, BIG + 30),
    Range("x", -(2**60) + 2.5, -(2**60) + 5),
    Range("f", -3.0, 1.0),
    And(Range("t", BIG, BIG + 60), Range("f", -5.0, 0.0)),
    from_scalar(parse_condition("r.x > -1152921504606846974 and r.t % 2 = 0")),
]


def check(table, model, context=""):
    for predicate in PREDICATES:
        oracle.check_table(table, model, predicate=predicate, context=context)
    oracle.check_table(table, model, ["s", "t"], Range("t", BIG, BIG + 25))


# -- the append-only column --------------------------------------------------


def test_a_column_is_typed_only_where_every_value_fits_exactly(numpy_leg):
    ints = vector.extend(None, (1, -(2**60), BIG + 1))
    assert isinstance(ints, array) and ints.typecode == "q"
    floats = vector.extend(None, (0.5, NAN, -0.0))
    assert isinstance(floats, array) and floats.typecode == "d"
    assert vector.extend(None, ("a", "")) == ["a", ""]
    # A value the typecode would change becomes a list of the values given.
    for column, more in [
        ((1, 2), (True,)), ((1, 2), (2**63,)), ((0.5,), (3,)), ((1,), (2.0,)),
    ]:
        grown = vector.extend(vector.extend(None, column), more)
        assert isinstance(grown, list)
        assert list(map(type, grown)) == list(map(type, column + more))
        assert grown == list(column + more)


def test_a_head_never_sees_a_later_append(numpy_leg):
    column = vector.extend(None, (1, 2, 3))
    heads = [vector.head(column, 2), vector.head(column, 3)]
    if numpy_leg:
        assert isinstance(heads[0], vector.numpy_module().ndarray)
    column = vector.extend(column, (4, 5))
    assert [vector.to_list(head) for head in heads] == [[1, 2], [1, 2, 3]]
    assert vector.to_list(column) == [1, 2, 3, 4, 5]


def test_a_view_keeps_its_rows_and_a_prefix_owns_its_vectors():
    buffer = PendingBuffer()
    buffer.append(list(zip(*batch(0, 4))))
    view = buffer.view(3)
    own = buffer.prefix(3)
    buffer.append(list(zip(*batch(4, 2))))
    own.append(list(zip(*batch(10, 1))))
    assert oracle.comparable(view.rows()) == oracle.comparable(batch(0, 3))
    assert oracle.comparable(own.rows()) == oracle.comparable(
        batch(0, 3) + batch(10, 1)
    )
    assert oracle.comparable(buffer.rows()) == oracle.comparable(batch(0, 6))


def test_the_oracle_compares_nan_as_a_value():
    """A NaN equals a NaN in the same field, and nothing else."""
    model = oracle.Model(NAMES, batch(0, 3), "columns(T)")
    oracle.check_scan(batch(0, 3), model)
    for wrong in [
        [(BIG, -(2**60), 0.0, "")] + batch(1, 2),  # NaN read back as 0.0
        [(BIG, -(2**60), NAN, NAN)] + batch(1, 2),  # a NaN in another field
    ]:
        with pytest.raises(AssertionError):
            oracle.check_scan(wrong, model)


# -- scans over pending rows ---------------------------------------------------


DESIGNS = {
    "columns": "columns(T)",
    "rows": "T",
    "levels": "levels[2; 2](columns[[t, x], [f, s]](T))",
    "keyed": "levels[2; 2; r.t](columns(T))",
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_scans_of_pending_rows_equal_the_model(design, numpy_leg, monkeypatch):
    assert type(PREDICATES[-1]) is ScalarPredicate  # filtered row by row
    layout = DESIGNS[design]
    audit = PageAudit(monkeypatch)
    store = RodentStore(page_size=1024, pool_capacity=32, level_seal_rows=24)
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", batch(0, 30))
    model = oracle.Model(NAMES, batch(0, 30), layout)
    for step in range(5):
        rows = batch(100 + 10 * step, 10)
        table.insert(rows)
        model.insert(rows)
        check(table, model, f"insert {step}")
    again = [(t, x, f, s + "!") for t, x, f, s in batch(135, 4)]
    table.insert(again)  # keyed: a newer version of pending keys
    model.insert(again)
    check(table, model, "a key inserted twice")
    for victims in Range("t", BIG + 1, BIG + 2), Range("t", BIG + 134, BIG + 142):
        assert table.delete(victims) == model.delete(victims)
    update = ({"s": "u"}, Range("t", BIG + 143, BIG + 146))
    assert table.update(*update) == model.update(*update)
    check(table, model, "after an update and a delete")
    assert any(r.level_tombstones for r in table.partitions)
    assert any(r.pending for r in table.partitions)
    table.flush_inserts()
    check(table, model, "sealed")
    table.compact()
    model.compact()
    check(table, model, "merged")
    assert audit.renders >= 2
    store.close()


def test_a_sealed_nan_is_skipped_by_its_zone_on_both_legs(
    numpy_leg, monkeypatch
):
    """A 30-row seal holding one NaN bounds its ``f`` chunk by the other
    values on both numpy legs, as the tuple path does (``PageAudit``), so
    a ``Range`` on ``f`` outside them reads no page. Under a level policy
    keyed on ``f``, a delete of the NaN key still removes its row:
    ``may_hold`` stays true for NaN."""
    audit = PageAudit(monkeypatch)
    rows = [(i, 0, NAN if i == 7 else i / 4, "a") for i in range(30)]
    for layout in "levels[2; 4](columns(T))", "levels[2; 4; r.f](columns(T))":
        store = RodentStore(page_size=1024, pool_capacity=32, level_seal_rows=30)
        store.create_table("T", SCHEMA, layout=layout)
        table = store.table("T")
        table.insert(rows)
        (run,) = table._entry.runs()
        assert not any(r.pending for r in table.partitions)
        (zones,) = [
            zones for zones, group in zip(
                run.layout.synopsis.group_zones, run.layout.column_groups
            )
            if "f" in group.fields
        ]
        f = zones.fields["f"]
        assert (vector.to_list(f.mins), vector.to_list(f.maxs)) == ([0.0], [7.25])
        assert run.layout.run_bounds["f"] == (0.0, 7.25)
        model = oracle.Model(NAMES, [], layout)
        model.insert(rows)
        if "r.f" not in layout:
            got, io = store.run_cold(
                lambda: list(table.scan(predicate=Range("f", 10.0, 20.0)))
            )
            assert got == [] and io.page_reads == 0
            continue
        victim = from_scalar(parse_condition("r.t = 7"))
        assert table.delete(victim) == model.delete(victim) == 1
        check(table, model, "the NaN key deleted")
        assert all(r[0] != 7 for r in table.scan())
        store.close()
    assert audit.renders == 2


def test_a_pinned_scan_sees_no_later_insert(numpy_leg):
    store = RodentStore(page_size=1024, pool_capacity=32)
    store.create_table("T", SCHEMA, layout="columns(T)")
    table = store.load("T", batch(0, 5))
    table.insert(batch(10, 4))
    scan = table.scan()
    first = next(scan)  # pinned: runs, then the 4 pending rows
    table.insert(batch(20, 6))
    assert oracle.comparable([first, *scan]) == oracle.comparable(
        batch(0, 5) + batch(10, 4)
    )
    model = oracle.Model(NAMES, batch(0, 5) + batch(10, 4), "columns(T)")
    model.insert(batch(20, 6))
    check(table, model)
    store.close()


def test_an_aborted_insert_rewrites_no_row_a_pinned_scan_sees(
    tmp_path, numpy_leg, monkeypatch
):
    """A scan pinned inside an insert sees its uncommitted rows; the
    insert's commit fails and it aborts; the next insert's rows take the
    same buffer positions, yet the pinned scan still reads the rows it
    pinned, and a new scan reads only the committed ones."""
    store = RodentStore(
        str(tmp_path / "db.pages"), durable=True, page_size=1024,
        pool_capacity=32,
    )
    store.create_table("T", SCHEMA, layout="columns(T)")
    table = store.load("T", batch(0, 5))
    table.insert(batch(10, 3))
    model = oracle.Model(NAMES, batch(0, 5) + batch(10, 3), "columns(T)")
    pinned = []
    log_rows = _Mutation.log_rows

    def pin_then_log(m, name, rows):
        scan = table.scan()
        pinned.append((next(scan), scan))
        log_rows(m, name, rows)

    monkeypatch.setattr(_Mutation, "log_rows", pin_then_log)
    store.inject_io_faults(
        IoFaultInjector(IoFault("enospc", target="wal", after=0))
    )
    with pytest.raises(StorageError):
        table.insert(batch(20, 4))
    monkeypatch.undo()
    check(table, model, "after the abort")
    table.insert(batch(30, 6))
    model.insert(batch(30, 6))
    (first, scan), = pinned
    assert oracle.comparable([first, *scan]) == oracle.comparable(
        batch(0, 5) + batch(10, 3) + batch(20, 4)
    )
    check(table, model, "after the next insert")
    store.close()


def durable(path, layout=None):
    store = RodentStore(
        str(path / "db.pages"), durable=True, page_size=1024,
        pool_capacity=32, level_seal_rows=64,
    )
    if layout is not None:
        store.create_table("T", SCHEMA, layout=layout)
    return store


def abandon(store):
    """A crash: the files close with no checkpoint."""
    try:
        store.wal.close()
    except StorageError:
        pass
    store.disk.close()


@pytest.mark.parametrize("image", [False, True], ids=["wal", "catalog"])
def test_pending_rows_reopen_equal(tmp_path, numpy_leg, image):
    """Pending rows come back through WAL replay (no checkpoint since the
    inserts) or through the catalog image (checkpointed), after an insert
    that a crash cut short."""
    layout = "levels[2; 2](columns(T))"
    store = durable(tmp_path, layout)
    table = store.load("T", batch(0, 20))
    model = oracle.Model(NAMES, batch(0, 20), layout)
    for step in range(3):
        table.insert(batch(100 + 10 * step, 10))
        model.insert(batch(100 + 10 * step, 10))
    victims = Range("t", BIG + 102, BIG + 104)
    assert table.delete(victims) == model.delete(victims)
    if image:
        store.checkpoint()
    store.inject_faults(FaultInjector(crash_after=0, mode="before", target="wal"))
    with pytest.raises(CrashError):
        table.insert(batch(200, 5))
    abandon(store)
    again = durable(tmp_path)
    (region,) = again.table("T").partitions
    assert len(region.pending) == 27 and region.pending_zone is not None
    check(again.table("T"), model, "reopened")
    again.table("T").insert(batch(300, 4))
    model.insert(batch(300, 4))
    check(again.table("T"), model, "reopened, then an insert")
    again.close()
