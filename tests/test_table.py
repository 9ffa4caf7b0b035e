"""Tests for repro.engine.table — the paper §4.1 access-method API."""

import re

import pytest

from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.parser import parse
from repro.engine.database import RodentStore
from repro.engine.table import normalize_order, split_design
from repro.errors import QueryError, StorageError, TypeCheckError
from repro.query.expressions import Range, Rect
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 500, (i * 53) % 500, i % 7) for i in range(600)]


def compile_design(layout):
    return AlgebraInterpreter({"T": SCHEMA}).compile(layout)


def make(layout=None, records=RECORDS, page_size=1024):
    store = RodentStore(page_size=page_size, pool_capacity=64)
    store.create_table("T", SCHEMA, layout=layout)
    table = store.load("T", records)
    return store, table


class TestScanBasics:
    def test_full_scan(self):
        _, table = make()
        assert list(table.scan()) == RECORDS

    def test_fieldlist_projection_order(self):
        _, table = make()
        out = list(table.scan(fieldlist=["lon", "t"]))
        assert out == [(r[2], r[0]) for r in RECORDS]

    def test_unknown_projection_field(self):
        _, table = make()
        with pytest.raises(QueryError):
            list(table.scan(fieldlist=["bogus"]))

    def test_predicate_filters(self):
        _, table = make()
        out = list(table.scan(predicate=Range("lat", 0, 99)))
        assert out == [r for r in RECORDS if r[1] <= 99]

    def test_predicate_with_projection(self):
        _, table = make()
        out = list(
            table.scan(fieldlist=["t"], predicate=Range("lat", 0, 99))
        )
        assert out == [(r[0],) for r in RECORDS if r[1] <= 99]

    def test_order_sorts(self):
        _, table = make()
        out = list(table.scan(order=["lat"]))
        assert [r[1] for r in out] == sorted(r[1] for r in RECORDS)

    def test_order_descending(self):
        _, table = make()
        out = list(table.scan(order=[("lat", False)]))
        assert [r[1] for r in out] == sorted(
            (r[1] for r in RECORDS), reverse=True
        )

    def test_stored_order_not_resorted(self):
        store, table = make(layout="orderby[t](T)")
        out = list(table.scan(order=["t"]))
        assert [r[0] for r in out] == sorted(r[0] for r in RECORDS)

    def test_scan_cost_rows_counts_extent(self):
        _, table = make()
        cost = table.scan_cost()
        assert cost.pages == table.layout.total_pages()
        assert cost.seeks == 1

    def test_row_count(self):
        _, table = make()
        assert table.row_count == len(RECORDS)


class TestColumnsLayout:
    LAYOUT = "columns[[t], [lat, lon], [id]](T)"

    def test_scan_matches_rows(self):
        _, table = make(self.LAYOUT)
        assert list(table.scan()) == RECORDS

    def test_narrow_scan_reads_fewer_pages(self):
        store, table = make(self.LAYOUT)
        _, io_narrow = store.run_cold(
            lambda: list(table.scan(fieldlist=["id"]))
        )
        _, io_wide = store.run_cold(lambda: list(table.scan()))
        assert io_narrow.page_reads < io_wide.page_reads

    def test_scan_cost_prunes_groups(self):
        _, table = make(self.LAYOUT)
        narrow = table.scan_cost(fieldlist=["id"])
        wide = table.scan_cost()
        assert narrow.pages < wide.pages

    def test_predicate_fields_force_group_read(self):
        store, table = make(self.LAYOUT)
        out, io = store.run_cold(
            lambda: list(
                table.scan(fieldlist=["id"], predicate=Range("lat", 0, 50))
            )
        )
        assert out == [(r[3],) for r in RECORDS if r[1] <= 50]

    def test_cost_matches_measured_pages(self):
        store, table = make(self.LAYOUT)
        estimated = table.scan_cost(fieldlist=["t"])
        _, io = store.run_cold(lambda: list(table.scan(fieldlist=["t"])))
        assert estimated.pages == io.page_reads


class TestGridLayout:
    LAYOUT = "zorder(grid[lat, lon],[100, 100](project[lat, lon](T)))"

    def test_spatial_query_correct(self):
        _, table = make(self.LAYOUT)
        q = Rect({"lat": (100, 199), "lon": (200, 299)})
        got = sorted(table.scan(predicate=q))
        want = sorted(
            (r[1], r[2])
            for r in RECORDS
            if 100 <= r[1] <= 199 and 200 <= r[2] <= 299
        )
        assert got == want

    def test_spatial_query_reads_fewer_pages_than_full(self):
        store, table = make(self.LAYOUT)
        q = Rect({"lat": (100, 199), "lon": (200, 299)})
        _, io_query = store.run_cold(lambda: list(table.scan(predicate=q)))
        _, io_full = store.run_cold(lambda: list(table.scan()))
        assert io_query.page_reads < io_full.page_reads

    def test_scan_cost_matches_measured(self):
        store, table = make(self.LAYOUT)
        q = Rect({"lat": (100, 199), "lon": (200, 299)})
        estimated = table.scan_cost(predicate=q)
        _, io = store.run_cold(lambda: list(table.scan(predicate=q)))
        assert estimated.pages == io.page_reads

    def test_get_element_by_cell_coord(self):
        _, table = make(self.LAYOUT)
        entry = table.layout.cell_directory[0]
        records = table.get_element(entry.coord)
        assert len(records) == entry.row_count

    def test_get_element_unknown_cell(self):
        _, table = make(self.LAYOUT)
        with pytest.raises(QueryError):
            table.get_element((999, 999))

    def test_get_element_is_exactly_the_cell(self):
        """On the N4 shape (delta + varint + zorder), every cell coordinate
        answers exactly the loaded rows whose ``x`` / ``y`` fall in that
        cell — through the run kernel, in any order."""
        schema = Schema.of("x:int", "y:int", "t:int")
        records = [((i * 37) % 200, (i * 53) % 200, i) for i in range(900)]
        store = RodentStore(page_size=512, pool_capacity=64)
        store.create_table(
            "T", schema,
            layout="compress[varint; x, y](delta[x, y](zorder("
            "grid[x, y],[25, 25](T))))",
        )
        table = store.load("T", records)
        (x0, y0), seen = table.layout.grid_origin, 0
        for entry in table.layout.cell_directory:
            want = sorted(
                r for r in records
                if ((r[0] - x0) // 25, (r[1] - y0) // 25) == entry.coord
            )
            assert sorted(table.get_element(entry.coord)) == want
            assert sorted(table.get_element(entry.coord, ["t"])) == sorted(
                (r[2],) for r in want
            )
            seen += len(want)
        assert seen == len(records)


class TestFoldedLayout:
    LAYOUT = "fold[lat, lon; id](T)"

    def test_scan_unnests(self):
        _, table = make(self.LAYOUT)
        got = sorted(table.scan())
        want = sorted((r[3], r[1], r[2]) for r in RECORDS)
        assert got == want

    def test_scan_schema(self):
        _, table = make(self.LAYOUT)
        assert table.scan_schema().names() == ["id", "lat", "lon"]

    def test_predicate_on_unnested(self):
        _, table = make(self.LAYOUT)
        got = list(table.scan(predicate=Range("id", 2, 2)))
        assert all(r[0] == 2 for r in got)
        assert len(got) == len([r for r in RECORDS if r[3] == 2])


class TestMirrorLayout:
    LAYOUT = "mirror(rows(T), columns(T))"

    def test_narrow_query_uses_columns(self):
        store, table = make(self.LAYOUT)
        _, io_narrow = store.run_cold(
            lambda: list(table.scan(fieldlist=["id"]))
        )
        rows_pages = table.layout.mirrors[0].total_pages()
        assert io_narrow.page_reads < rows_pages

    def test_wide_query_uses_rows(self):
        store, table = make(self.LAYOUT)
        out, io = store.run_cold(lambda: list(table.scan()))
        assert out == RECORDS
        rows_pages = table.layout.mirrors[0].total_pages()
        assert io.page_reads <= rows_pages + 1


class TestGetElementAndNext:
    def test_get_element_rows_fast_path(self):
        store, table = make()
        store.pool.clear()
        with store.disk.measure() as io:
            assert table.get_element(250) == RECORDS[250]
        assert io.page_reads == 1  # direct page access

    def test_get_element_out_of_range(self):
        _, table = make()
        with pytest.raises(QueryError):
            table.get_element(len(RECORDS))
        with pytest.raises(QueryError):
            table.get_element(-1)

    def test_get_element_with_fieldlist(self):
        _, table = make()
        assert table.get_element(3, fieldlist=["lon"]) == (RECORDS[3][2],)

    def test_next_after_get_element(self):
        _, table = make()
        table.get_element(10)
        assert table.next() == RECORDS[11]
        assert table.next() == RECORDS[12]

    def test_next_with_order(self):
        _, table = make()
        by_lat = sorted(RECORDS, key=lambda r: r[1])
        table.get_element(0)
        first = table.next(order=["lat"])
        assert first == by_lat[1]

    def test_next_past_end(self):
        store = RodentStore(page_size=1024)
        store.create_table("T", SCHEMA)
        table = store.load("T", RECORDS[:2])
        table.get_element(1)
        with pytest.raises(QueryError):
            table.next()

    def test_get_element_cost(self):
        _, table = make()
        cost = table.get_element_cost(0)
        assert cost.pages == 1

    def test_multidim_index_on_rows_rejected(self):
        _, table = make()
        with pytest.raises(QueryError):
            table.get_element((1, 2))


class TestOrderList:
    def test_prefixes_of_sort_keys(self):
        _, table = make("orderby[t ASC, id DESC](T)")
        orders = table.order_list()
        assert orders == [
            (("t", True),),
            (("t", True), ("id", False)),
        ]

    def test_unordered_layout_empty(self):
        _, table = make()
        assert table.order_list() == []


class TestInsertOverflowCompact:
    def test_insert_visible_in_scan(self):
        _, table = make(records=RECORDS[:100])
        table.insert(RECORDS[100:110])
        assert sorted(table.scan()) == sorted(RECORDS[:110])

    def test_flush_creates_overflow_region(self):
        _, table = make(records=RECORDS[:100])
        table.insert(RECORDS[100:150])
        overflow = table.flush_inserts()
        assert overflow is not None
        assert table.unmerged_row_count == 50
        assert sorted(table.scan()) == sorted(RECORDS[:150])

    def test_flush_empty_is_noop(self):
        _, table = make()
        assert table.flush_inserts() is None

    def test_insert_respects_projection_pipeline(self):
        _, table = make("project[lat, lon](T)")
        table.insert(RECORDS[:5])
        got = list(table.scan())
        assert got[-5:] == [(r[1], r[2]) for r in RECORDS[:5]]

    def test_insert_respects_select_pipeline(self):
        _, table = make("select[r.id = 0](T)")
        kept = table.insert(RECORDS[:14])
        assert kept == len([r for r in RECORDS[:14] if r[3] == 0])

    def test_compact_merges_overflow(self):
        store, table = make("orderby[t](T)", records=RECORDS[:100])
        table.insert(RECORDS[100:160])
        table.flush_inserts()
        table.compact()
        assert table.unmerged_row_count == 0
        assert list(table.scan()) == sorted(
            RECORDS[:160], key=lambda r: r[0]
        )

    def test_compact_grid_layout(self):
        store, table = make(
            "grid[lat, lon],[100, 100](project[lat, lon](T))",
            records=RECORDS[:200],
        )
        table.insert(RECORDS[200:300])
        table.compact()
        q = Rect({"lat": (0, 99), "lon": (0, 99)})
        got = sorted(table.scan(predicate=q))
        want = sorted(
            (r[1], r[2])
            for r in RECORDS[:300]
            if r[1] <= 99 and r[2] <= 99
        )
        assert got == want

    def test_scan_cost_includes_overflow(self):
        _, table = make(records=RECORDS[:100])
        base = table.scan_cost().pages
        table.insert(RECORDS[100:300])
        table.flush_inserts()
        assert table.scan_cost().pages > base

    def test_order_not_trusted_with_overflow(self):
        _, table = make("orderby[t](T)", records=RECORDS[:100])
        table.insert([RECORDS[100]])
        out = list(table.scan(order=["t"]))
        assert [r[0] for r in out] == sorted(r[0] for r in out)

    def test_insert_validates_schema(self):
        _, table = make()
        with pytest.raises(Exception):
            table.insert([("not", "valid")])


class TestArrayDesigns:
    def test_writes_are_refused_by_design_kind(self):
        """An array stores values, not records: an insert has no record
        shape to land in, and a rewrite of the stored value column would
        transpose it again (a (2, 4) array became (1, 7))."""
        store = RodentStore(page_size=1024)
        store.create_table(
            "T", Schema.of("x:int", "y:int"), layout="transpose(project[x, y](T))"
        )
        table = store.load("T", [(i, 10 * i) for i in range(4)])
        before = list(table.scan())
        writes = [
            lambda: table.insert([(1, 2)]),
            lambda: table.update({"value": 0}),
            lambda: table.delete(Range("value", 5, 100)),
            lambda: table.delete(),
        ]
        for write in writes:
            with pytest.raises(StorageError, match="array design"):
                write()
        assert list(table.scan()) == before
        assert table.layout.array_shape == (2, 4)


class TestHelpers:
    def test_normalize_order(self):
        assert normalize_order(None) == ()
        assert normalize_order(["a", ("b", False)]) == (
            ("a", True), ("b", False)
        )

    def test_record_pipeline_extracts_record_ops(self):
        split = split_design(compile_design(
            "zorder(grid[lat, lon],[10, 10](project[lat, lon]("
            "select[r.id = 1](groupby[id](T)))))"
        ))
        ops = [type(n).__name__ for n in split.pipeline]
        assert ops == ["GroupBy", "Select", "Project"]
        assert split.fields == ("lat", "lon")

    def test_record_pipeline_rejects_prejoin(self):
        """A prejoin has no stored-record split: ``create_table`` and
        ``relayout`` refuse it (the algebra still compiles it), and a
        refused create leaves no table behind."""
        store = RodentStore(page_size=1024)
        schema = Schema.of("k:int", "a:int")
        with pytest.raises(StorageError, match="prejoin design cannot be stored"):
            store.create_table("T", schema, layout="prejoin[k](T, T)")
        assert AlgebraInterpreter({"T": schema}).compile("prejoin[k](T, T)")
        store.create_table("T", schema)
        store.load("T", [(1, 2), (1, 3)])
        with pytest.raises(StorageError, match="prejoin design cannot be stored"):
            store.relayout("T", "prejoin[k](T, T)")
        assert list(store.table("T").scan()) == [(1, 2), (1, 3)]

    def test_design_over_another_table_refuses_load(self):
        """A design renders its own table's rows: one that names another
        table refuses ``load`` rather than reading its own rows in its
        place (a prejoin of two tables is refused earlier, at create)."""
        store = RodentStore(page_size=1024)
        store.create_table("U", Schema.of("k:int", "b:int"))
        with pytest.raises(StorageError, match="prejoin design cannot be stored"):
            store.create_table(
                "T", Schema.of("k:int", "a:int"), layout="prejoin[k](T, U)"
            )
        store.create_table("T", Schema.of("k:int", "a:int"), layout="columns(U)")
        with pytest.raises(StorageError, match=r"reads \['U'\]"):
            store.load("T", [(1, 2), (1, 3)])

    MIRROR_ROWS = [(i, 6 - i, i % 2) for i in range(6)]

    @pytest.mark.parametrize("layout", [
        "mirror(columns(T), select[r.a > 2](T))",
        "mirror(select[r.a > 2](T), columns(T))",
        "mirror(orderby[a](T), limit[2](orderby[b](T)))",
        "mirror(columns(T), project[a](T))",
        "mirror(project[a, b](T), columns(T))",
    ])
    def test_mirror_sides_must_store_the_same_records(self, layout):
        """A mirror's sides share one record pipeline (the left side's), so
        sides whose record operators differ are refused at ``create_table``
        and ``relayout`` — naming both sides — instead of storing the left
        side's records on both or failing at ``load``."""
        schema = Schema.of("a:int", "b:int", "c:int")
        sides = parse(layout).children()
        store = RodentStore(page_size=1024)
        with pytest.raises(StorageError) as refused:
            store.create_table("T", schema, layout=layout)
        assert all(side.to_text() in str(refused.value) for side in sides)
        store.create_table("T", schema)
        store.load("T", self.MIRROR_ROWS)
        with pytest.raises(StorageError):
            store.relayout("T", layout)
        assert list(store.table("T").scan()) == self.MIRROR_ROWS

    CHUNK_ROWS = [(i, 2 * i, 3 * i) for i in range(6)]

    def test_chunk_stores_its_leaves_as_values(self):
        """``chunk`` makes an array of its input's leaves: the design's
        schema is the array's one ``value`` column, and a scan yields the
        values in row order."""
        store = RodentStore(page_size=1024)
        store.create_table(
            "T", Schema.of("a:int", "b:int", "c:int"), layout="chunk[4](T)"
        )
        table = store.load("T", self.CHUNK_ROWS)
        assert table.layout.plan.schema.names() == ["value"]
        assert list(table.scan()) == [
            (v,) for row in self.CHUNK_ROWS for v in row
        ]

    #: Each refused layout and the operator (for a mirror, the side) its
    #: error names.
    REFUSED_OVER_A_CHUNK = {
        "rows(chunk[2](T))": "rows",
        "orderby[a](chunk[2](T))": "orderby",
        "mirror(chunk[2](T), T)": "mirror (left side chunk[2](T))",
        "mirror(T, chunk[2](T))": "mirror (right side chunk[2](T))",
    }

    @pytest.mark.parametrize("layout", list(REFUSED_OVER_A_CHUNK))
    def test_record_operator_over_a_chunk_is_refused_at_create(self, layout):
        """A chunk's array has no record fields, so a record operator over
        it — or a mirror pairing it with records — is a type error at
        ``create_table`` and at ``relayout`` that names what it refuses (a
        mirror: the offending side); the table stays as it was."""
        schema = Schema.of("a:int", "b:int", "c:int")
        store = RodentStore(page_size=1024)
        named = re.escape(self.REFUSED_OVER_A_CHUNK[layout])
        with pytest.raises(
            TypeCheckError, match=named + " requires a record-shaped"
        ):
            store.create_table("T", schema, layout=layout)
        store.create_table("T", schema)
        store.load("T", self.CHUNK_ROWS)
        with pytest.raises(TypeCheckError):
            store.relayout("T", layout)
        assert list(store.table("T").scan()) == self.CHUNK_ROWS

    @pytest.mark.parametrize("layout", [
        "mirror(orderby[a](T), orderby[b](T))",
        "mirror(rows(T), columns(T))",
        "mirror(orderby[b](T), columns[[a, b], [c]](T))",
        "mirror(project[a, c](select[r.b > 2](T)), "
        "project[a, c](select[r.b > 2](T)))",
    ])
    def test_mirror_sides_that_differ_in_stored_sorts_load(self, layout):
        """Sides that differ only in a sort on stored fields — which each
        side's residual applies to the stored records — load; both
        replicas hold the design's records, and scans answer as the
        design says."""
        schema = Schema.of("a:int", "b:int", "c:int")
        store = RodentStore(page_size=1024)
        store.create_table("T", schema, layout=layout)
        table = store.load("T", self.MIRROR_ROWS)
        fields = split_design(table.plan).fields
        want = [
            tuple(r[schema.names().index(f)] for f in fields)
            for r in self.MIRROR_ROWS
            if "select" not in layout or r[1] > 2
        ]
        assert [m.row_count for m in table.layout.mirrors] == [len(want)] * 2
        assert sorted(table.scan()) == sorted(want)
        for key in ("a", "b"):
            if key in fields:
                position = fields.index(key)
                assert list(table.scan(order=[key])) == sorted(
                    want, key=lambda r: r[position]
                )

    def test_structural_residual(self):
        """A sort or regroup stays while its keys are stored; the other
        record-level operators drop out."""
        residual = split_design(compile_design(
            "zorder(grid[lat, lon],[10, 10](project[lat, lon]("
            "groupby[id](orderby[lat](T)))))"
        )).residual
        assert residual == parse(
            "zorder(grid[lat, lon],[10, 10](orderby[lat](__stored__)))"
        )
        kept = split_design(compile_design("groupby[id](orderby[t](T))"))
        assert kept.residual == parse("groupby[id](orderby[t](__stored__))")

    def test_unloaded_table_raises(self):
        store = RodentStore(page_size=1024)
        table = store.create_table("T", SCHEMA)
        with pytest.raises(StorageError):
            list(table.scan())
