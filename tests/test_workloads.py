"""Tests for repro.workloads (synthetic data generators)."""

from reference import multisort
from repro.workloads import (
    BOSTON,
    SALES_SCHEMA,
    TIMESERIES_SCHEMA,
    TRACE_SCHEMA,
    generate_sales,
    generate_timeseries,
    generate_traces,
    grid_strides_for,
    narrow_column_queries,
    random_region_queries,
    series_column,
    trajectories,
    trajectory_mbrs,
    year_zip_queries,
)


class TestCartel:
    def test_schema_conformance(self):
        records = generate_traces(500, n_vehicles=5)
        assert len(records) == 500
        for record in records[:50]:
            assert TRACE_SCHEMA.validate_record(record)

    def test_deterministic(self):
        a = generate_traces(300, seed=9)
        b = generate_traces(300, seed=9)
        assert a == b
        c = generate_traces(300, seed=10)
        assert a != c

    def test_points_inside_region(self):
        records = generate_traces(1000, n_vehicles=8)
        for r in records:
            assert BOSTON.lat_min <= r[1] <= BOSTON.lat_max
            assert BOSTON.lon_min <= r[2] <= BOSTON.lon_max

    def test_timestamps_interleaved_across_vehicles(self):
        records = generate_traces(100, n_vehicles=10)
        assert [r[0] for r in records[:10]] == [0] * 10
        assert [r[0] for r in records[10:20]] == [1] * 10

    def test_small_deltas_within_trajectory(self):
        """The property delta compression relies on: consecutive points of a
        trajectory differ by small integers."""
        records = generate_traces(4000, n_vehicles=4, trip_length=500)
        for points in trajectories(records).values():
            for a, b in zip(points, points[1:]):
                assert abs(b[1] - a[1]) < 1000
                assert abs(b[2] - a[2]) < 1000

    def test_trip_segmentation(self):
        records = generate_traces(3000, n_vehicles=3, trip_length=200)
        trips = trajectories(records)
        assert len(trips) >= 3 * (1000 // 200 - 1)
        for points in trips.values():
            assert len(points) <= 200 + 1

    def test_trajectory_mbrs_cover_points(self):
        records = generate_traces(1000, n_vehicles=5, trip_length=100)
        boxes = dict(trajectory_mbrs(records))
        for trip, points in trajectories(records).items():
            lat_min, lat_max, lon_min, lon_max = boxes[trip]
            for p in points:
                assert lat_min <= p[1] <= lat_max
                assert lon_min <= p[2] <= lon_max

    def test_trajectory_mbrs_stack_over_the_core(self):
        """The Figure 2 R-tree pathology: a small central query intersects a
        large fraction of trajectory bounding boxes, each of which costs
        random I/O and drags in all of its observations."""
        records = generate_traces(8000, n_vehicles=8, trip_length=300)
        boxes = [b for _, b in trajectory_mbrs(records)]
        mid_lat = (BOSTON.lat_min + BOSTON.lat_max) // 2
        mid_lon = (BOSTON.lon_min + BOSTON.lon_max) // 2
        half_lat = BOSTON.lat_span // 20  # 10% per side = 1% of area
        half_lon = BOSTON.lon_span // 20
        q = (
            mid_lat - half_lat, mid_lat + half_lat,
            mid_lon - half_lon, mid_lon + half_lon,
        )
        hits = sum(
            1
            for a in boxes
            if not (a[1] < q[0] or q[1] < a[0] or a[3] < q[2] or q[3] < a[2])
        )
        assert hits / len(boxes) > 0.1

    def test_queries_cover_fraction(self):
        queries = random_region_queries(50, coverage=0.01)
        for q in queries:
            ranges = q.ranges()
            lat_span = ranges["lat"][1] - ranges["lat"][0]
            lon_span = ranges["lon"][1] - ranges["lon"][0]
            area = lat_span * lon_span
            assert abs(area / BOSTON.area - 0.01) < 0.002

    def test_queries_inside_region(self):
        for q in random_region_queries(50):
            ranges = q.ranges()
            assert ranges["lat"][0] >= BOSTON.lat_min
            assert ranges["lat"][1] <= BOSTON.lat_max

    def test_grid_strides(self):
        lat_stride, lon_stride = grid_strides_for(BOSTON, cells_per_side=32)
        assert lat_stride * 32 >= BOSTON.lat_span
        assert lon_stride * 32 >= BOSTON.lon_span


class TestSales:
    def test_schema_conformance(self):
        records = generate_sales(500)
        assert len(records) == 500
        for record in records[:50]:
            assert SALES_SCHEMA.validate_record(record)

    def test_deterministic(self):
        assert generate_sales(200, seed=4) == generate_sales(200, seed=4)

    def test_years_in_range(self):
        records = generate_sales(500, years=(2001, 2003))
        assert {r[1] for r in records} <= {2001, 2002, 2003}

    def test_zipcodes_clustered_by_metro(self):
        records = generate_sales(2000)
        zips = sorted({r[0] for r in records})
        # Each zip is within 100 of one of the metro bases.
        from repro.workloads.sales import _METRO_BASES

        for z in zips:
            assert any(base <= z < base + 100 for base in _METRO_BASES)

    def test_product_popularity_skewed(self):
        records = generate_sales(5000, n_products=100)
        from collections import Counter

        counts = Counter(r[5] for r in records)
        top = sum(v for _, v in counts.most_common(10))
        assert top > len(records) * 0.3  # Zipf-ish head

    def test_year_zip_queries_shape(self):
        for q in year_zip_queries(20):
            ranges = q.ranges()
            assert ranges["year"][0] == ranges["year"][1]
            assert ranges["zipcode"][1] - ranges["zipcode"][0] == 50

    def test_narrow_column_queries(self):
        specs = narrow_column_queries()
        assert all(len(fields) <= 2 for fields, _ in specs)


class TestTimeseries:
    def test_schema_conformance(self):
        records = generate_timeseries(300)
        for record in records[:30]:
            assert TIMESERIES_SCHEMA.validate_record(record)

    def test_kinds_differ_in_compressibility(self):
        from repro.compression import get_codec
        from repro.types import INT

        n = 2000
        codec = get_codec("delta")
        sizes = {}
        for kind in ("smooth", "steppy", "noisy"):
            records = generate_timeseries(n, n_series=1, kind=kind)
            column = series_column(records, 0)
            sizes[kind] = len(codec.encode(column, INT))
        assert sizes["smooth"] < sizes["noisy"]
        rle = get_codec("rle")
        steppy = series_column(
            generate_timeseries(n, n_series=1, kind="steppy"), 0
        )
        noisy = series_column(
            generate_timeseries(n, n_series=1, kind="noisy"), 0
        )
        from repro.types import INT as INT_T

        assert len(rle.encode(steppy, INT_T)) < len(rle.encode(noisy, INT_T))

    def test_series_column_time_ordered(self):
        records = generate_timeseries(500, n_series=4)
        per_series = [r for r in records if r[0] == 2]
        assert [r[1] for r in per_series] == sorted(r[1] for r in per_series)
