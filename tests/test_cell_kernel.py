"""The read path's run kernels, each against the rows it must give back.

* :meth:`LayoutRenderer.iter_grid_batches` ≡ the rows each cell was built
  from (the algebra's ``undelta_records`` of its stored records), cell by
  cell, over hand-built grids (empty, one-row and
  page-straddling cells, any subset of survivors and of fields, every grid
  codec, delta on none, one or both codec fields, values beyond 64 bits)
  — and numpy on ≡ off; fields that decode alike in one ``decode_buffer``
  per batch, a blob with a value too many failing loudly;
* :func:`repro.vector.prefix_sum` ≡ ``undelta_records``, segmented and
  carried across arbitrary batch splits, and through ``delta`` on rows and
  columns layouts;
* the page-batched index fetch ≡ a slot-at-a-time fetch, on the packed and
  on the general ``decode_page`` path, lazily and without pinned frames;
* :meth:`LayoutRenderer.iter_folded_batches` ≡ a record-at-a-time reader
  of the folded stream, over one and several nest fields, string nests,
  every fold codec, key-pruned records and projections — and numpy on ≡
  off, a projected field decoded with one ``decode_buffer`` per batch;
* the varint codec beyond int64, through ``compress[varint](delta[...])``;
* a grid or folded directory that disagrees with its stream fails loudly.
"""

import struct
from contextlib import contextmanager
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from reference import evaluate, from_evaluated, undelta_records
from repro import vector
from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.parser import parse
from repro.compression import CodecError, get_codec
from repro.compression.base import Codec
from repro.compression.varint import VarintCodec
from repro.engine.database import RodentStore
from repro.engine.indexes import fetch_rows_by_position, pages_for_positions
from repro.errors import QueryError, StorageError
from repro.layout.renderer import (
    CellEntry,
    LayoutRenderer,
    StoredLayout,
    _nest_types,
    select_cell_fields,
)
from repro.query.expressions import Range, Rect
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import BytePage, SlottedPage
from repro.storage.serializer import RecordSerializer
from repro.types import Schema
from repro.types.types import INT

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

numpy_legs = pytest.mark.parametrize(
    "numpy_on",
    [
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                not vector.numpy_enabled(), reason="numpy off"
            ),
        ),
        False,
    ],
)


@contextmanager
def numpy_set(enabled):
    previous = vector.set_numpy_enabled(enabled)
    try:
        yield
    finally:
        vector.set_numpy_enabled(previous)


@contextmanager
def decode_buffer_calls():
    """One entry per ``Codec.decode_buffer`` call, any codec's, inside."""
    calls = []
    originals = {cls: cls.__dict__["decode_buffer"] for cls in (Codec, VarintCodec)}
    for cls, original in originals.items():

        def spy(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        setattr(cls, "decode_buffer", spy)
    try:
        yield calls
    finally:
        for cls, original in originals.items():
            setattr(cls, "decode_buffer", original)


@pytest.fixture
def numpy_leg(numpy_on):
    with numpy_set(numpy_on):
        yield numpy_on


# ---------------------------------------------------------------------------
# grid cells, a run at a time
# ---------------------------------------------------------------------------

GRID_SCHEMA = Schema.of("x:int", "y:int", "a:int", "b:int", "s:string")
FIELDS = tuple(GRID_SCHEMA.names())

#: Values each codec can store in the ``a``/``b`` columns of a cell.
CODEC_VALUES = {
    "varint": st.one_of(
        st.integers(-300, 300),
        st.integers(I64_MIN, I64_MAX),
        st.integers(-(2**66), 2**66),  # varints of ten bytes and more
        st.sampled_from([I64_MIN, I64_MAX, 2**62, -(2**62) - 1, 2**63]),
    ),
    "none": st.one_of(
        st.integers(-300, 300),
        st.integers(I64_MIN, I64_MAX),
        st.sampled_from([I64_MIN, I64_MAX]),
    ),
    "bitpack": st.one_of(st.integers(0, 300), st.integers(0, I64_MAX)),
    "for": st.one_of(st.integers(-300, 300), st.integers(I64_MIN, I64_MAX)),
    "delta": st.one_of(st.integers(-300, 300), st.integers(I64_MIN, I64_MAX)),
}


#: The fields ``grid_plan`` delta-encodes: with ``a`` alone, a delta and
#: a plain field of one codec decode in the same batch.
DELTAS = [(), ("a",), ("a", "b")]


def grid_plan(codec: str, delta: tuple[str, ...] = ("a", "b")):
    expr = "grid[x, y],[10, 10](T)"
    if delta:
        expr = f"delta[{', '.join(delta)}]({expr})"
    if codec != "none":
        expr = f"compress[{codec}; a, b]({expr})"
    return AlgebraInterpreter({"T": GRID_SCHEMA}).compile(parse(expr))


def build_grid(plan, cells, page_size):
    """A grid layout holding exactly ``cells`` (lists of stored records) in
    stream order — empty cells included, which rendering never produces."""
    renderer = LayoutRenderer(BufferPool(DiskManager(page_size=page_size), 64))
    stream = bytearray()
    directory = []
    for i, cell in enumerate(cells):
        columns = [list(c) for c in zip(*cell)] or [[] for _ in plan.schema.fields]
        (blob,) = renderer._encode_cells(plan, plan.schema, columns, [len(cell)])
        directory.append(
            CellEntry(
                coord=(i, 0),
                bounds=((10 * i, 10 * i + 10), (0, 10)),
                offset=len(stream),
                length=len(blob),
                row_count=len(cell),
            )
        )
        stream += blob
    layout = StoredLayout(
        plan=plan,
        row_count=sum(map(len, cells)),
        extent=renderer._write_stream(bytes(stream)),
        cell_directory=directory,
    )
    return renderer, layout


def batch_rows(batches):
    return [row for batch in batches for row in batch.rows()]


@st.composite
def grids(draw):
    codec = draw(st.sampled_from(sorted(CODEC_VALUES)))
    values = CODEC_VALUES[codec]
    record = st.tuples(
        st.integers(0, 99),
        st.integers(0, 9),
        values,
        values,
        st.text(max_size=6),
    )
    size = st.sampled_from([0, 0, 1, 1, 2, 5, 40, 150])
    cells = draw(
        st.lists(
            size.flatmap(lambda n: st.lists(record, min_size=n, max_size=n)),
            min_size=1,
            max_size=12,
        )
    )
    keep = draw(
        st.one_of(
            st.none(),  # every cell
            st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)),
        )
    )
    needed = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(FIELDS + ("nowhere",)), unique=True),
        )
    )
    return (
        codec,
        draw(st.sampled_from(DELTAS)),
        cells,
        keep,
        needed,
        draw(st.sampled_from([128, 256, 4096])),
    )


@settings(max_examples=150, deadline=None)
@given(grids())
def test_grid_batches_equal_cell_at_a_time_reader(case):
    codec, delta, cells, keep, needed, page_size = case
    plan = grid_plan(codec, delta)
    renderer, layout = build_grid(plan, cells, page_size)
    entries = None
    if keep is not None:
        entries = [e for e, k in zip(layout.cell_directory, keep) if k]
    wanted = select_cell_fields(plan.schema, needed)
    kept = cells if keep is None else [c for c, k in zip(cells, keep) if k]
    positions = {name: i for i, name in enumerate(FIELDS)}
    loaded = [
        tuple(row[i] for i in wanted)
        for cell in kept
        for row in undelta_records(cell, positions, plan.delta_fields)
    ]
    results = []
    for numpy_on in (True, False):
        # Each leg decodes for itself: nothing left in the decoded cache.
        renderer.cache.clear()
        with numpy_set(numpy_on), decode_buffer_calls() as calls:
            batches = list(renderer.iter_grid_batches(layout, entries, needed))
        assert len(calls) >= len(batches)
        assert bool(calls) == bool(batches) == bool(loaded)
        assert all(b.n_rows and b.is_columnar for b in batches)
        assert all(b.fields == tuple(FIELDS[i] for i in wanted) for b in batches)
        rows = batch_rows(batches)
        # Native python scalars only, whatever the vectors were.
        assert {type(v) for row in rows for v in row} <= {int, str}
        results.append(rows)
    assert results[0] == results[1] == loaded
    assert not renderer.pool.pinned_pages()


@numpy_legs
def test_grid_batches_close_at_a_page_of_cell_stream(numpy_leg):
    plan = grid_plan("varint")
    cells = [[(i, 0, i, -i, "s")] * 20 for i in range(30)]
    renderer, layout = build_grid(plan, cells, page_size=512)
    batches = list(renderer.iter_grid_batches(layout, None, ["a"]))
    assert len(batches) > 1
    assert sum(b.n_rows for b in batches) == 600
    # A limit that the first batch satisfies reads no further cell.
    first = next(renderer.iter_grid_batches(layout, None, ["a"]))
    assert first.n_rows < 600


@numpy_legs
def test_scan_filters_grid_batches_as_vectors(numpy_leg, monkeypatch):
    """The N4 shape end to end: the in-cell ``Rect`` is evaluated by
    ``filter_vector`` on the numpy leg, and either leg equals the oracle."""
    store = RodentStore(page_size=512, pool_capacity=64)
    records = [(i, (i * 37) % 200, (i * 53) % 200, i % 5) for i in range(900)]
    schema = Schema.of("t:int", "lat:int", "lon:int", "id:int")
    layout = (
        "compress[varint; lat, lon](delta[lat, lon](zorder("
        "grid[lat, lon],[25, 25](project[lat, lon](T)))))"
    )
    store.create_table("T", schema, layout=layout)
    table = store.load("T", records)
    model = oracle.Model(schema.names(), records, layout)
    calls = []
    original = Rect.filter_vector

    def spy(self, columns, n_rows):
        verdict = original(self, columns, n_rows)
        calls.append(verdict is not None)
        return verdict

    monkeypatch.setattr(Rect, "filter_vector", spy)
    box = Rect({"lat": (30, 110), "lon": (15, 95)})
    got = oracle.check_table(table, model, ["lat", "lon"], box)
    assert got and calls and all(calls) == numpy_leg
    oracle.check_table(table, model)


#: Four varint fields, plain or with a delta on two of them.
VARINT4 = "compress[varint; x, y, a, b]({})"
PLAIN_GRID, DELTA_GRID = "grid[x, y],[10, 10](T)", "delta[a, b](grid[x, y],[10, 10](T))"


@numpy_legs
@pytest.mark.parametrize(
    "design, needed, calls",
    [
        (VARINT4.format(PLAIN_GRID), None, 1),
        (VARINT4.format(PLAIN_GRID), ["b", "y", "a"], 1),
        (VARINT4.format(DELTA_GRID), None, 2),
        (VARINT4.format(DELTA_GRID), ["a", "b"], 1),
    ],
)
def test_fields_that_decode_alike_are_one_decode_buffer_per_batch(
    numpy_leg, monkeypatch, design, needed, calls
):
    """A batch's wanted fields of one codec, type and delta-ness are one
    ``decode_buffer`` call, whatever their number, and a delta group is
    one ``prefix_sum`` restarting at each of its blobs."""
    plan = AlgebraInterpreter({"T": GRID_SCHEMA}).compile(parse(design))
    cells = [
        [(10 * i + j % 10, j % 10, 7 * i + j, -j, "s") for j in range(3 + i)]
        for i in range(6)
    ]
    renderer, layout = build_grid(plan, cells, page_size=4096)
    counted = {"decode": 0, "decode_buffer": 0}
    for name in counted:
        original = getattr(VarintCodec, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            counted[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(VarintCodec, name, spy)
    segments = []
    prefix_sum = vector.prefix_sum

    def summed(values, counts=None, carry=None):
        segments.append(list(counts))
        return prefix_sum(values, counts, carry)

    monkeypatch.setattr(vector, "prefix_sum", summed)
    batches = list(renderer.iter_grid_batches(layout, None, needed))
    assert len(batches) == 1
    assert counted == {"decode": 0, "decode_buffer": calls}
    sizes = [len(cell) for cell in cells]
    deltas = [f for f in ("a", "b") if f in plan.delta_fields]
    if needed is not None:
        deltas = [f for f in deltas if f in needed]
    assert segments == ([sizes * len(deltas)] if deltas else [])
    wanted = select_cell_fields(plan.schema, needed)
    positions = {name: i for i, name in enumerate(FIELDS)}
    assert batch_rows(batches) == [
        tuple(row[i] for i in wanted)
        for cell in cells
        for row in undelta_records(cell, positions, plan.delta_fields)
    ]


def _cell_with_blobs(cell, blobs):
    """A cell's bytes as ``_encode_cells`` lays them, with ``blobs`` (one
    per field) in place of the encoded columns."""
    parts = [struct.pack("<IH", len(cell), len(blobs))]
    for blob in blobs:
        parts += [struct.pack("<I", len(blob)), blob]
    return b"".join(parts)


@numpy_legs
@pytest.mark.parametrize(
    "codec, damage",
    [
        ("varint", "extra value"),
        ("varint", "count only"),  # a varint blob leads with its count
        ("none", "extra value"),
        ("for", "extra value"),
    ],
)
def test_a_blob_with_a_value_too_many_never_shifts_rows(numpy_leg, codec, damage):
    """The second cell's ``b`` blob declares one value more than its cell
    holds — a whole extra value, or only its count word: the batch that
    decodes ``a`` and ``b`` together fails loudly instead of moving a
    value of ``b`` into the rows of ``a`` or of the next cell."""
    plan = grid_plan(codec, ())
    cells = [[(i, 0, 10 * i + j, -j, "s") for j in range(4)] for i in range(3)]
    renderer, good = build_grid(plan, cells, page_size=4096)
    stream = bytearray()
    directory = []
    for i, (cell, entry) in enumerate(zip(cells, good.cell_directory)):
        blobs = [
            get_codec(plan.codec_for(f.name)).encode(
                [row[k] for row in cell], f.dtype
            )
            for k, f in enumerate(plan.schema.fields)
        ]
        if i == 1:
            b = [row[3] for row in cell]
            if damage == "extra value":
                blobs[3] = get_codec(codec).encode(b + [99], INT)
            else:
                blobs[3] = struct.pack("<I", len(b) + 1) + blobs[3][4:]
        blob = _cell_with_blobs(cell, blobs)
        directory.append(replace(entry, offset=len(stream), length=len(blob)))
        stream += blob
    bad = replace(
        good,
        extent=renderer._write_stream(bytes(stream)),
        cell_directory=directory,
    )
    assert batch_rows(renderer.iter_grid_batches(good, None, ["a", "b"])) == [
        (row[2], row[3]) for cell in cells for row in cell
    ]
    with pytest.raises((CodecError, StorageError)):
        list(renderer.iter_grid_batches(bad, None, ["a", "b"]))
    assert not renderer.pool.pinned_pages()


# ---------------------------------------------------------------------------
# a directory that disagrees with its cells
# ---------------------------------------------------------------------------


def _damaged(layout, index, **changes):
    directory = list(layout.cell_directory)
    directory[index] = replace(directory[index], **changes)
    return replace(layout, cell_directory=directory)


@numpy_legs
@pytest.mark.parametrize("index", [0, 2, 4])
@pytest.mark.parametrize(
    "field, step",
    [
        ("row_count", 1), ("row_count", -1), ("length", 1), ("length", -1),
        ("folded_length", 1), ("folded_length", -1), ("folded_key", 1),
    ],
)
def test_directory_off_by_one_is_a_loud_error(numpy_leg, index, field, step):
    if field.startswith("folded"):
        records = [(g, "h", 7 * g + j, -j, "s") for g in range(5) for j in range(3 + g)]
        renderer, layout = build_folded(
            "compress[varint; a, b](fold[a, b, s; g](T))", records, 256
        )
        if field == "folded_key":  # record ``index`` claims its neighbour's key
            keys = list(layout.folded_keys)
            other = (index + 1) % len(keys)
            keys[index], keys[other] = keys[other], keys[index]
            bad = replace(layout, folded_keys=keys)
        else:
            directory = list(layout.folded_directory)
            offset, length = directory[index]
            directory[index] = (offset, length + step)
            bad = replace(layout, folded_directory=directory)
        with pytest.raises(StorageError):
            list(renderer.iter_folded_batches(bad))
        with pytest.raises(StorageError):
            list(renderer.iter_folded_batches(bad, [index], ["a"]))
        return
    plan = grid_plan("varint")
    cells = [[(i, 0, 7 * i + j, -j, "s") for j in range(3 + i)] for i in range(5)]
    renderer, layout = build_grid(plan, cells, page_size=256)
    entry = layout.cell_directory[index]
    bad = _damaged(layout, index, **{field: getattr(entry, field) + step})
    with pytest.raises(StorageError):
        list(renderer.iter_grid_batches(bad, None, None))
    with pytest.raises(StorageError):
        list(renderer.iter_grid_batches(bad, [bad.cell_directory[index]], ["a"]))


@numpy_legs
def test_blob_with_the_wrong_value_count_is_a_loud_error(numpy_leg):
    """A cell whose header agrees with the directory but whose column blob
    holds another number of values must not shift the cells after it."""
    codec = get_codec("varint")
    blobs = [codec.encode(v, INT) for v in ([1, 2, 3], [4, 5], [6])]
    data, lengths = b"".join(blobs), list(map(len, blobs))
    assert vector.to_list(
        codec.decode_buffer(data, INT, lengths, [3, 2, 1])
    ) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(CodecError):
        codec.decode_buffer(data, INT, lengths, [3, 1, 2])
    with pytest.raises(CodecError):  # a varint cut by the end of its blob
        codec.decode_buffer(data[:-1] + b"\x80", INT, lengths, [3, 2, 1])
    with pytest.raises(CodecError):  # lengths that do not cover the payload
        codec.decode_buffer(data, INT, lengths[:-1], [3, 2])
    for name in ("none", "for", "delta", "bitpack"):
        other = get_codec(name)
        blobs = [other.encode(v, INT) for v in ([1, 2, 3], [4, 5])]
        data, lengths = b"".join(blobs), list(map(len, blobs))
        assert vector.to_list(
            other.decode_buffer(data, INT, lengths, [3, 2])
        ) == [1, 2, 3, 4, 5]
        with pytest.raises(CodecError):
            other.decode_buffer(data, INT, lengths, [2, 3])


# ---------------------------------------------------------------------------
# folded records, a run at a time
# ---------------------------------------------------------------------------

FOLD_SCHEMA = Schema.of("g:int", "h:string", "a:int", "b:int", "s:string")

#: One and several nest fields, a string nest field, two group fields, and
#: the fold codecs: none, varint, lz.
FOLD_DESIGNS = [
    "fold[a; g](T)",
    "fold[a, b, s; g](T)",
    "compress[varint; a, b](fold[a, b; g, h](T))",
    "compress[lz; s, a](fold[s, a; g](T))",
]


def build_folded(design, records, page_size):
    plan = AlgebraInterpreter({"T": FOLD_SCHEMA}).compile(parse(design))
    renderer = LayoutRenderer(BufferPool(DiskManager(page_size=page_size), 64))
    evaluated = evaluate(plan.expr, {"T": (records, tuple(FOLD_SCHEMA.names()))})
    return renderer, renderer.render(plan, from_evaluated(evaluated))


def folded_at_a_time(renderer, layout, indices=None):
    """The reader ``iter_folded_batches`` replaced: the stream a page at a
    time, then one record at a time — its key, its count, and each nested
    vector through ``Codec.decode`` into a list — un-nested into rows of
    the group fields and every nest field."""
    plan = layout.plan
    keys = RecordSerializer(plan.schema.project(plan.group_fields))
    nest_types = _nest_types(
        plan.schema.field("__folded__").dtype, len(plan.nest_fields)
    )
    codecs = [
        (get_codec(plan.codec_for(name)), dtype)
        for name, dtype in zip(plan.nest_fields, nest_types)
    ]
    pages = []
    for page_id in layout.extent.page_ids:
        frame = renderer.pool.fetch(page_id)
        try:
            pages.append(BytePage(renderer.page_size, frame.data).read())
        finally:
            renderer.pool.unpin(page_id)
    stream = b"".join(pages)
    directory = layout.folded_directory
    rows = []
    for i in range(len(directory)) if indices is None else indices:
        offset, length = directory[i]
        blob = stream[offset : offset + length]
        key = keys.decode(blob)
        at = keys.encoded_size(key)
        (count,) = struct.unpack_from("<I", blob, at)
        at += 4
        vectors = []
        for codec, dtype in codecs:
            (size,) = struct.unpack_from("<I", blob, at)
            at += 4
            vectors.append(vector.to_list(codec.decode(blob[at : at + size], dtype)))
            at += size
        assert at == length and all(len(v) == count for v in vectors)
        rows.extend(tuple(key) + values for values in zip(*vectors))
    return rows


@st.composite
def folds(draw):
    ints = st.one_of(st.integers(-300, 300), st.integers(I64_MIN, I64_MAX))
    record = st.tuples(
        st.integers(0, 6),
        st.sampled_from(["", "p", "quite a long group key"]),
        ints,
        ints,
        st.text(max_size=5),
    )
    records = draw(st.lists(record, max_size=200))
    keep = draw(st.one_of(st.none(), st.lists(st.booleans(), max_size=25)))
    needed = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(FOLD_SCHEMA.names() + ["nowhere"]), unique=True),
        )
    )
    return (
        draw(st.sampled_from(FOLD_DESIGNS)),
        records,
        keep,
        needed,
        draw(st.sampled_from([128, 256, 4096])),
    )


@settings(max_examples=150, deadline=None)
@given(folds())
def test_folded_batches_equal_record_at_a_time_reader(case):
    design, records, keep, needed, page_size = case
    renderer, layout = build_folded(design, records, page_size)
    plan = layout.plan
    indices = None
    if keep is not None:
        indices = [i for i, k in zip(range(len(layout.folded_directory)), keep) if k]
    fields = tuple(plan.group_fields) + tuple(
        name for name in plan.nest_fields if needed is None or name in needed
    )
    every = plan.group_fields + plan.nest_fields
    where = [every.index(name) for name in fields]
    stored = folded_at_a_time(renderer, layout)
    columns = [FOLD_SCHEMA.names().index(name) for name in every]
    assert sorted(stored) == sorted(tuple(r[i] for i in columns) for r in records)
    want = [
        tuple(row[i] for i in where)
        for row in folded_at_a_time(renderer, layout, indices)
    ]
    decodes = len(fields) > len(plan.group_fields)  # a nest field is read
    for numpy_on in (True, False):
        # Each leg decodes for itself: nothing left in the decoded cache.
        renderer.cache.clear()
        with numpy_set(numpy_on), decode_buffer_calls() as calls:
            batches = list(renderer.iter_folded_batches(layout, indices, needed))
        assert len(calls) >= len(batches) or not decodes
        assert bool(calls) == (decodes and bool(batches))
        assert all(b.n_rows and b.is_columnar for b in batches)
        assert all(b.fields == fields for b in batches)
        rows = batch_rows(batches)
        assert {type(v) for row in rows for v in row} <= {int, str}
        assert rows == want
    assert not renderer.pool.pinned_pages()


@numpy_legs
def test_a_projected_nest_field_is_one_decode_buffer_per_batch(numpy_leg, monkeypatch):
    """One group spanning several pages; a scan of one varint nest field
    decodes it with one ``decode_buffer`` call per batch, and never calls
    ``Codec.decode`` per record."""
    records = [(0, "h", i * 7, -i, "s") for i in range(2000)]
    design = "compress[varint; a, b](fold[a, b, s; g](T))"
    renderer, layout = build_folded(design, records, 256)
    assert len(layout.folded_directory) == 1
    assert layout.folded_directory[0][1] > 4 * 256
    calls = {"decode": 0, "decode_buffer": 0}
    for name in calls:
        original = getattr(VarintCodec, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(VarintCodec, name, spy)
    batches = list(renderer.iter_folded_batches(layout, None, ["a"]))
    assert calls == {"decode": 0, "decode_buffer": len(batches)}
    assert all(b.is_columnar and b.fields == ("g", "a") for b in batches)
    assert batch_rows(batches) == [(0, i * 7) for i in range(2000)]
    empty_renderer, empty = build_folded(design, [], 256)
    assert list(empty_renderer.iter_folded_batches(empty)) == []


# ---------------------------------------------------------------------------
# varint beyond int64
# ---------------------------------------------------------------------------

BEYOND_INT64 = [2**63, -(2**63) - 1, 2**64 - 1, -(2**64 - 1), -(2**70)]


def test_varint_round_trips_beyond_int64():
    codec = get_codec("varint")
    values = BEYOND_INT64 + [I64_MIN, I64_MAX, 0, -1, 1]
    data = codec.encode(values, INT)
    assert codec.decode(data, INT) == values
    assert vector.to_list(codec.decode_buffer(data, INT)) == values
    # In-range values keep the bytes they always had.
    assert codec.encode([I64_MIN, I64_MAX, -1, 1], INT) == bytes.fromhex(
        "04000000" + "ff" * 9 + "01" + "fe" + "ff" * 8 + "01" + "01" + "02"
    )


@numpy_legs
@pytest.mark.parametrize(
    "layout",
    [
        "compress[varint; v](delta[v](grid[k, k2],[10, 10](T)))",
        "compress[varint; v](columns(delta[v](T)))",
    ],
)
def test_delta_of_int64_values_survives_varint(numpy_leg, layout):
    """``delta`` of two valid int64 values need not fit int64: the varint
    codec under it must carry the difference exactly."""
    store = RodentStore(page_size=512, pool_capacity=64)
    records = [(0, 0, 2**62), (1, 1, -(2**62) - 1), (2, 2, I64_MAX), (3, 3, I64_MIN)]
    store.create_table("T", Schema.of("k:int", "k2:int", "v:int"), layout=layout)
    table = store.load("T", records)
    assert sorted(table.scan()) == records
    predicate = Range("v", -(2**62) - 1, 2**62)
    assert sorted(table.scan(predicate=predicate)) == records[:2]


# ---------------------------------------------------------------------------
# prefix sums
# ---------------------------------------------------------------------------


def _undelta(values):
    return [r[0] for r in undelta_records([(v,) for v in values], {"v": 0}, ["v"])]


def _shapes(values):
    """``values`` as every vector shape that can hold them."""
    shapes = [list(values), tuple(values)]
    code = "q" if all(isinstance(v, int) for v in values) else "d"
    typed = vector.from_values(values, code)
    if typed is not None and len(typed):
        shapes.append(typed)
    return shapes


numbers = st.one_of(
    st.lists(st.integers(-1000, 1000), max_size=60),
    st.lists(st.integers(I64_MIN, I64_MAX), max_size=60),
    st.lists(st.integers(-(2**70), 2**70), max_size=20),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=60),
)


@numpy_legs
@settings(max_examples=150, deadline=None)
@given(values=numbers, cuts=st.lists(st.integers(0, 60), max_size=6))
def test_prefix_sum_segments_equal_undelta_records(numpy_on, values, cuts):
    with numpy_set(numpy_on):
        bounds = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
        counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        if cuts and len(values):
            counts.insert(len(counts) // 2, 0)  # an empty segment changes nothing
        want = []
        start = 0
        for count in counts:
            want.extend(_undelta(values[start : start + count]))
            start += count
        for shape in _shapes(values):
            got = vector.to_list(vector.prefix_sum(shape, counts))
            assert got == want and list(map(type, got)) == list(map(type, want))
        assert vector.to_list(vector.prefix_sum(list(values))) == _undelta(values)


@numpy_legs
@settings(max_examples=150, deadline=None)
@given(values=numbers, cuts=st.lists(st.integers(0, 60), max_size=6))
def test_prefix_sum_carries_across_batch_splits(numpy_on, values, cuts):
    with numpy_set(numpy_on):
        bounds = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
        for shape in _shapes(values):
            got, carry = [], None
            for lo, hi in zip(bounds, bounds[1:]):
                sums = vector.to_list(vector.prefix_sum(shape[lo:hi], carry=carry))
                got.extend(sums)
                carry = sums[-1]
            assert got == _undelta(values)


DELTA_SCHEMA = Schema.of("k:int", "a:int", "f:float", "s:string")


@numpy_legs
@pytest.mark.parametrize(
    "layout", ["delta[a, f](T)", "columns(delta[a, f](T))", "columns[[k, a], [f], [s]](delta[a](T))"]
)
@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 50),
            st.integers(-(2**40), 2**40),
            # Eighths: every difference and prefix sum of them is exact, so
            # the reconstructed floats are the loaded ones (a delta of
            # arbitrary floats rounds on the way back).
            st.integers(-(2**23), 2**23).map(lambda v: v / 8),
            st.text(max_size=4),
        ),
        max_size=120,
    )
)
def test_delta_layouts_scan_equals_reference(numpy_on, layout, records):
    with numpy_set(numpy_on):
        store = RodentStore(page_size=256, pool_capacity=64, batch_rows=16)
        store.create_table("T", DELTA_SCHEMA, layout=layout)
        table = store.load("T", records)
        model = oracle.Model(DELTA_SCHEMA.names(), records, layout)
        oracle.check_table(table, model)
        oracle.check_table(
            table, model, ["a", "k"], Range("a", -(2**39), 2**39)
        )


# ---------------------------------------------------------------------------
# index probes, a page at a time
# ---------------------------------------------------------------------------

PACKED_SCHEMA = Schema.of("k:int", "v:int", "w:float")
GENERAL_SCHEMA = Schema.of("k:int", "v:int", "s:string")


def _slot_at_a_time(table, positions):
    """The reader ``fetch_rows_by_position`` replaced: one ``page.get`` and
    one ``RecordSerializer.decode`` per position."""
    layout = table.layout
    pool = table.store.pool
    serializer = RecordSerializer(table.plan.schema)
    starts = list(accumulate(layout.page_row_counts, initial=0))
    rows = []
    for position in positions:
        index = max(i for i, s in enumerate(starts[:-1]) if s <= position)
        page_id = layout.extent.page_ids[index]
        frame = pool.fetch(page_id)
        try:
            page = SlottedPage(table.store.disk.page_size, frame.data)
            rows.append(serializer.decode(page.get(position - starts[index])))
        finally:
            pool.unpin(page_id)
    return rows


def _indexed_table(schema, records):
    store = RodentStore(page_size=512, pool_capacity=64)
    store.create_table("T", schema, layout="orderby[k](T)")
    table = store.load("T", records)
    table.create_index("k")
    return store, table


def index_of(table):
    """The B+Tree over ``k`` of the table's one run."""
    (run,) = table._entry.runs()
    return run.indexes[("k",)]


def fetch(table, positions):
    """``fetch_rows_by_position`` over the table's one rows run."""
    return fetch_rows_by_position(table.store.renderer, table.layout, positions)


@numpy_legs
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_batched_fetch_equals_slot_at_a_time(numpy_on, data):
    with numpy_set(numpy_on):
        if data.draw(st.booleans()):
            schema = PACKED_SCHEMA
            record = st.tuples(
                st.integers(0, 30), st.integers(I64_MIN, I64_MAX), st.floats(-9, 9)
            )
        else:
            schema = GENERAL_SCHEMA
            record = st.tuples(
                st.integers(0, 30),
                st.integers(-99, 99),
                st.text(max_size=5),
            )
        records = data.draw(st.lists(record, min_size=1, max_size=150))
        store, table = _indexed_table(schema, records)
        positions = sorted(
            data.draw(st.sets(st.integers(0, len(records) - 1), max_size=60))
        )
        batches = list(fetch(table, positions))
        assert batch_rows(batches) == _slot_at_a_time(table, positions)
        assert len(batches) == pages_for_positions(table, positions)
        assert not store.pool.pinned_pages()
        # Through a scan: whichever path the planner takes equals the stored
        # rows filtered one by one.
        lo, hi = sorted(data.draw(st.tuples(st.integers(0, 30), st.integers(0, 30))))
        stored = _slot_at_a_time(table, range(len(records)))
        assert list(table.scan(predicate=Range("k", lo, hi))) == [
            r for r in stored if lo <= r[0] <= hi
        ]


@numpy_legs
def test_duplicate_keys_spanning_leaves(numpy_leg):
    records = [(k, i, float(i)) for i, k in enumerate([3] * 40 + [7] * 400 + [9] * 40)]
    store, table = _indexed_table(PACKED_SCHEMA, records)
    index = index_of(table)
    assert index.tree.height > 1
    assert index.positions_in_range(7, 7) == list(range(40, 440))
    assert index.tree.search(7) == list(range(40, 440))
    assert [k for k, _ in index.tree.range(3, 7)] == [3] * 40 + [7] * 400
    assert index.positions_in_range(4, 6) == []
    assert list(table.scan(predicate=Range("k", 7, 7))) == records[40:440]
    assert list(table.scan(predicate=Range("k", 8, 99))) == records[440:]


@numpy_legs
def test_limit_stops_the_probe_and_leaves_no_frame_pinned(numpy_leg):
    records = [(k, k, float(k)) for k in range(2000)]
    store, table = _indexed_table(PACKED_SCHEMA, records)
    positions = index_of(table).positions_in_range(100, 400)
    assert positions == list(range(100, 401))
    pages = table.layout.page_starts
    per_page = pages[1]
    assert len(positions) > 3 * per_page  # the probe spans several pages

    def data_page_reads(consume):
        store.pool.clear()
        with store.disk.measure() as io:
            consume()
        assert not store.pool.pinned_pages()
        return io.page_reads

    everything = data_page_reads(lambda: list(fetch(table, positions)))
    first_only = data_page_reads(lambda: next(fetch(table, positions)))
    assert first_only == 1 < everything

    def abandoned():
        batches = fetch(table, positions)
        next(batches)
        batches.close()

    assert data_page_reads(abandoned) == 1
    # A pushed-down limit reads the index and the pages holding the first
    # ``limit`` matches — what the record-at-a-time probe read — no more.
    limit = per_page // 2
    decided = table.scan_access(predicate=Range("k", 100, 400))
    ((_, access),) = decided.runs.values()
    assert access.probed is index_of(table)
    probe_only = data_page_reads(access.batches)
    limited = data_page_reads(
        lambda: list(table.scan(predicate=Range("k", 100, 400), limit=limit))
    )
    covering = len({p // per_page for p in positions[:limit]})
    assert limited <= probe_only + covering
    assert list(table.scan(predicate=Range("k", 100, 400), limit=limit)) == (
        records[100 : 100 + limit]
    )


def test_fetch_rejects_positions_outside_the_layout():
    store, table = _indexed_table(PACKED_SCHEMA, [(k, k, 0.0) for k in range(50)])
    with pytest.raises(QueryError):
        list(fetch(table, [3, 50]))
    with pytest.raises(QueryError):
        list(fetch(table, [-1, 3]))
    assert list(fetch(table, [])) == []
