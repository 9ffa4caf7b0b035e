"""Tests for repro.layout.renderer (rendering and readback per layout)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import evaluate, from_evaluated
from repro.algebra.interpreter import AlgebraInterpreter
from repro.algebra.parser import parse
from repro.errors import StorageError
from repro.layout.renderer import LayoutRenderer
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.types import Schema

SCHEMA = Schema.of("t:int", "lat:int", "lon:int", "id:int")
RECORDS = [(i, (i * 37) % 200, (i * 53) % 200, i % 5) for i in range(400)]


def render(expr_text, records=RECORDS, page_size=1024, schema=SCHEMA):
    interp = AlgebraInterpreter({"T": schema})
    plan = interp.compile(parse(expr_text))
    disk = DiskManager(page_size=page_size)
    pool = BufferPool(disk, capacity=128)
    renderer = LayoutRenderer(pool)
    evaluated = evaluate(plan.expr, {"T": (records, tuple(schema.names()))})
    layout = renderer.render(plan, from_evaluated(evaluated))
    return renderer, layout


def rows_of(batches):
    return [row for batch in batches for row in batch.rows()]


def cell_rows(renderer, layout, entry):
    """One grid cell's records, through the run kernel."""
    return rows_of(renderer.iter_grid_batches(layout, [entry]))


class TestRowsRendering:
    def test_roundtrip(self):
        renderer, layout = render("T")
        assert rows_of(renderer.iter_row_batches(layout)) == RECORDS

    def test_extent_contiguous_and_chained(self):
        renderer, layout = render("T")
        ids = layout.extent.page_ids
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        from repro.storage.page import SlottedPage

        for i, page_id in enumerate(ids):
            page = SlottedPage(1024, renderer.disk.read_page(page_id))
            expected_next = ids[i + 1] if i + 1 < len(ids) else -1
            assert page.next_page_id == expected_next

    def test_page_row_counts_sum(self):
        _, layout = render("T")
        assert sum(layout.page_row_counts) == len(RECORDS)

    def test_empty_table(self):
        renderer, layout = render("T", records=[])
        assert rows_of(renderer.iter_row_batches(layout)) == []
        assert layout.row_count == 0
        assert layout.total_pages() == 1  # one empty page

    def test_ordered_layout_preserves_order(self):
        renderer, layout = render("orderby[lat](T)")
        rows = rows_of(renderer.iter_row_batches(layout))
        assert rows == sorted(RECORDS, key=lambda r: r[1])

    def test_record_exceeding_page_rejected(self):
        schema = Schema.of("s:string")
        with pytest.raises(StorageError):
            render("T", records=[("x" * 5000,)], schema=schema)


class TestColumnsRendering:
    def test_single_field_groups(self):
        renderer, layout = render("columns(T)")
        assert len(layout.column_groups) == 4
        assert rows_of(renderer.iter_column_batches(layout, [1])) == [
            (r[1],) for r in RECORDS
        ]

    def test_multi_field_group(self):
        renderer, layout = render("columns[[lat, lon], [t], [id]](T)")
        pairs = rows_of(renderer.iter_column_batches(layout, [0]))
        assert pairs == [(r[1], r[2]) for r in RECORDS]

    def test_chunks_cover_rows(self):
        _, layout = render("columns(T)")
        for group in layout.column_groups:
            if group.chunks:
                assert sum(rows for _, rows in group.chunks) == len(RECORDS)

    def test_compressed_column(self):
        renderer, layout = render("compress[varint; t](columns(T))")
        assert rows_of(renderer.iter_column_batches(layout, [0])) == [
            (r[0],) for r in RECORDS
        ]

    def test_compressed_column_fewer_pages(self):
        _, plain = render("columns[[t]](project[t](T))")
        _, packed = render("compress[varint; t](columns[[t]](project[t](T)))")
        assert packed.total_pages() <= plain.total_pages()

    def test_empty_columns(self):
        renderer, layout = render("columns(T)", records=[])
        assert rows_of(renderer.iter_column_batches(layout, [0])) == []


class TestGridRendering:
    EXPR = "grid[lat, lon],[50, 50](T)"

    def test_cells_partition_rows(self):
        renderer, layout = render(self.EXPR)
        got = []
        for entry in layout.cell_directory:
            got.extend(cell_rows(renderer, layout, entry))
        assert sorted(got) == sorted(RECORDS)
        assert rows_of(renderer.iter_grid_batches(layout)) == got

    def test_directory_bounds_contain_members(self):
        renderer, layout = render(self.EXPR)
        for entry in layout.cell_directory:
            (lat_lo, lat_hi), (lon_lo, lon_hi) = entry.bounds
            for record in cell_rows(renderer, layout, entry):
                assert lat_lo <= record[1] < lat_hi
                assert lon_lo <= record[2] < lon_hi

    def test_cells_overlapping_prunes(self):
        renderer, layout = render(self.EXPR)
        hits = layout.cells_overlapping({"lat": (0, 49), "lon": (0, 49)})
        assert 0 < len(hits) < len(layout.cell_directory)
        records = rows_of(renderer.iter_grid_batches(layout, hits))
        expected = [r for r in RECORDS if r[1] < 50 and r[2] < 50]
        got = [r for r in records if r[1] < 50 and r[2] < 50]
        assert sorted(got) == sorted(expected)

    def test_unbounded_dimension(self):
        _, layout = render(self.EXPR)
        hits = layout.cells_overlapping({"lat": (0, 49)})
        all_lon = {e.coord[1] for e in hits}
        assert len(all_lon) > 1  # lon unconstrained

    def test_delta_reconstruction(self):
        renderer, layout = render(
            "delta[lat, lon](grid[lat, lon],[50, 50](T))"
        )
        got = rows_of(renderer.iter_grid_batches(layout))
        assert sorted((r[1], r[2]) for r in got) == sorted(
            (r[1], r[2]) for r in RECORDS
        )

    def test_delta_varint_smaller(self):
        _, plain = render("grid[lat, lon],[50, 50](project[lat, lon](T))")
        _, packed = render(
            "compress[varint; lat, lon](delta[lat, lon](zorder("
            "grid[lat, lon],[50, 50](project[lat, lon](T)))))"
        )
        assert packed.total_pages() < plain.total_pages()

    def test_zorder_directory_in_curve_order(self):
        from repro.curves.zorder import zorder_sort_key

        _, layout = render("zorder(grid[lat, lon],[50, 50](T))")
        coords = [e.coord for e in layout.cell_directory]
        keys = [zorder_sort_key(c) for c in coords]
        assert keys == sorted(keys)

    def test_pages_for_cells_sorted_unique(self):
        renderer, layout = render(self.EXPR)
        entries = layout.cell_directory[:5]
        pages = renderer.pages_for_cells(layout, entries)
        assert pages == sorted(set(pages))

    def test_cells_overlapping_requires_grid(self):
        _, layout = render("T")
        with pytest.raises(StorageError):
            layout.cells_overlapping({"lat": (0, 1)})


class TestArrayRendering:
    def test_matrix_roundtrip(self):
        renderer, layout = render("[[1, 2, 3], [4, 5, 6]]")
        leaves = rows_of(renderer.iter_array_batches(layout))
        assert leaves == [(v,) for v in [1, 2, 3, 4, 5, 6]]
        assert layout.array_shape == (2, 3)

    def test_get_element_multidim(self):
        renderer, layout = render("[[1, 2, 3], [4, 5, 6]]")
        assert renderer.get_array_element(layout, (1, 2)) == 6
        assert renderer.get_array_element(layout, 0) == 1

    def test_get_element_bounds(self):
        renderer, layout = render("[[1, 2], [3, 4]]")
        with pytest.raises(StorageError):
            renderer.get_array_element(layout, (2, 0))
        with pytest.raises(StorageError):
            renderer.get_array_element(layout, (0, 0, 0))

    def test_float_leaves(self):
        renderer, layout = render("[[1.5, 2.5]]")
        assert rows_of(renderer.iter_array_batches(layout)) == [(1.5,), (2.5,)]

    def test_direct_offset_reads_one_page(self):
        records = [[float(i) for i in range(50)] for _ in range(40)]
        import json

        renderer, layout = render(str(records).replace("'", ""))
        renderer.pool.clear()
        with renderer.disk.measure() as io:
            renderer.get_array_element(layout, (20, 10))
        assert io.page_reads == 1


class TestMirrorRendering:
    def test_both_replicas_present(self):
        renderer, layout = render("mirror(rows(T), columns(T))")
        assert [m.plan.kind for m in layout.mirrors] == ["rows", "columns"]
        assert layout.total_pages() == sum(
            m.total_pages() for m in layout.mirrors
        )


class TestStreamRanges:
    @given(
        st.integers(0, 3000),
        st.integers(1, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_read_stream_range_property(self, offset, length):
        # Build a grid layout and read arbitrary ranges of its stream.
        renderer, layout = render("grid[lat, lon],[50, 50](T)")
        total = sum(e.length for e in layout.cell_directory)
        offset = offset % max(1, total)
        length = min(length, total - offset)
        if length <= 0:
            return
        data = renderer._read_stream_range(layout, offset, length)
        assert len(data) == length
