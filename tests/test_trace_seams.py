"""The seams ``bench/trace.py`` patches keep resolving.

The benchmark's tracer looks its targets up by name and merely *lists* one
a refactor removed (its metrics then read 0), so nothing in ``bench/``
fails when a seam moves. This is the check: every target resolves, and the
grid run reader is measured by the spans that measured the readers it
replaced — ``layout.read`` around the batches, ``compression.decode``
around the codec, carrying the payload's length.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import trace  # noqa: E402

from repro.engine.database import RodentStore  # noqa: E402
from repro.query.expressions import Rect  # noqa: E402
from repro.types import Schema  # noqa: E402


def test_every_traced_seam_resolves():
    with trace.tracing() as tracer:
        assert tracer.missing == []


def test_grid_run_reader_is_measured_by_the_existing_spans():
    store = RodentStore(page_size=1024, pool_capacity=64)
    store.create_table(
        "T",
        Schema.of("lat:int", "lon:int"),
        layout="compress[varint; lat, lon](delta[lat, lon](zorder("
        "grid[lat, lon],[25, 25](T))))",
    )
    table = store.load("T", [((i * 37) % 200, (i * 53) % 200) for i in range(800)])
    box = Rect({"lat": (30, 110), "lon": (15, 95)})
    with trace.tracing() as tracer:
        rows = list(table.scan(predicate=box))
        spans, _ = tracer.totals()
    assert rows and tracer.missing == []
    decode, read = spans["compression.decode"], spans["layout.read"]
    # One decode per batch for both fields (one codec, both delta),
    # whatever the number of cells, and the span carries the bytes handed
    # to the codec.
    batches = read["calls"] - 2  # the call itself, and the ``next()`` that ends it
    assert batches >= 1 and decode["outer_calls"] == batches
    assert decode["outer_arg"] > 0 and read["arg"] >= len(rows)
