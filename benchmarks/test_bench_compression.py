"""Ablation C: compression codecs on trace and time-series columns.

§3.5.2 ("the storage algebra supports a wide range of compression schemes")
and §5 (the Abadi et al. claim that heavyweight codecs still pay off through
reduced I/O). The table reports compression ratio and decode throughput per
codec per column shape.
"""

import time

import pytest

from repro import vector
from repro.compression import get_codec
from repro.types import INT
from repro.workloads import generate_timeseries, generate_traces, series_column

CODECS = ("none", "varint", "delta", "rle", "dict", "bitpack", "lz")


@pytest.fixture(scope="module")
def columns():
    traces = generate_traces(20_000, n_vehicles=10)
    smooth = series_column(
        generate_timeseries(20_000, n_series=1, kind="smooth"), 0
    )
    steppy = series_column(
        generate_timeseries(20_000, n_series=1, kind="steppy"), 0
    )
    return {
        "trace.lat": [r[1] for r in traces],
        "trace.id": [r[3] for r in traces],
        "ts.smooth": smooth,
        "ts.steppy": steppy,
    }


def ratio_table(columns):
    baseline = {
        name: len(get_codec("none").encode(values, INT))
        for name, values in columns.items()
    }
    out = {}
    for codec_name in CODECS:
        codec = get_codec(codec_name)
        row = {}
        for name, values in columns.items():
            try:
                encoded = codec.encode(values, INT)
            except Exception:
                row[name] = None
                continue
            assert vector.to_list(codec.decode(encoded, INT)) == values
            row[name] = len(encoded) / baseline[name]
        out[codec_name] = row
    return out


def test_bench_compression_ratios(columns, benchmark):
    ratios = ratio_table(columns)

    print("\n=== compression ratio (encoded/raw, lower is better) ===")
    names = list(columns)
    print(f"{'codec':<9}" + "".join(f"{n:>12}" for n in names))
    for codec_name, row in ratios.items():
        cells = "".join(
            f"{row[n]:>12.3f}" if row[n] is not None else f"{'-':>12}"
            for n in names
        )
        print(f"{codec_name:<9}{cells}")

    # Delta-family codecs crush smooth series; RLE crushes steppy series.
    assert ratios["delta"]["ts.smooth"] < 0.35
    assert ratios["rle"]["ts.steppy"] < 0.2
    assert ratios["delta"]["trace.lat"] < 0.6
    # Low-cardinality id column: dictionary/bitpack beat raw by a lot.
    assert ratios["dict"]["trace.id"] < 0.3

    benchmark(lambda: ratio_table({"ts.smooth": columns["ts.smooth"][:2000]}))


@pytest.mark.parametrize("codec_name", ["varint", "delta", "lz"])
def test_bench_decode_throughput(columns, codec_name, benchmark):
    """Decode speed per codec — the CPU side of the §5 trade-off."""
    codec = get_codec(codec_name)
    values = columns["ts.smooth"]
    encoded = codec.encode(values, INT)

    decoded = benchmark(lambda: codec.decode(encoded, INT))
    assert vector.to_list(decoded) == values
