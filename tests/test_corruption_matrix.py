"""Corruption matrix: flip bytes everywhere, never return silently wrong rows.

A deterministic workload is run to completion, then a single byte is
flipped at evenly spaced sites across each persistent structure (page
file, WAL, catalog) and the store is reopened and scanned. Every outcome
must be one of:

* **exact** — the flip was harmless (free page, JSON whitespace, trailer
  padding) or transparently repaired from a WAL after-image: the scan
  returns exactly the model rows;
* **prefix** — a flip near the WAL tail is indistinguishable from a torn
  append, so recovery may legitimately drop a suffix of operations: the
  scan returns the model state after some prefix of completed ops;
* **loud** — a :class:`~repro.errors.CorruptionError` (or the store's
  loud-failure wrapper) is raised at open or during the scan;
* **degraded** — with ``degraded_reads=True``, a subset of the model rows
  plus a non-empty skip report whenever rows are missing.

What is *never* acceptable is a quiet success with rows that differ from
the model — silent corruption is the one outcome the integrity layer
exists to rule out.

Environment knobs (CI smoke uses small defaults):

* ``CORRUPT_ITERATIONS`` — flip sites per target structure (``0`` means
  every byte of the smallest structure — slow; meant for soak runs).
* ``CORRUPT_SEED`` — seed for the workload generator and flip masks.
"""

import json
import os
import random
import shutil
import tempfile

import pytest

from repro.engine.database import RodentStore
from repro.engine.persistence import CATALOG_CRC_KEY, _catalog_crc
from repro.errors import CorruptionError, RodentStoreError
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")

CORRUPT_ITERATIONS = int(os.environ.get("CORRUPT_ITERATIONS", "12"))
CORRUPT_SEED = int(os.environ.get("CORRUPT_SEED", "20260808"))

#: A partition of levelled regions: seals, tombstones and a cascade per
#: partition (``level_seal_rows=16``).
COMPOSED = "partition[id; range, 200](levels[2; 2](rows(T)))"


def build_workload(seed, layout="columns(T)"):
    """Deterministic ops plus the expected row set after each op, the
    table re-laid out to ``layout`` mid-way."""
    rng = random.Random(seed)
    initial = [(i, rng.randrange(1000)) for i in range(150)]
    ops = [
        ("create", None),
        ("load", list(initial)),
        ("insert", [(300 + i, rng.randrange(1000)) for i in range(40)]),
        ("relayout", layout),
        ("delete", (0, 29)),
        ("insert", [(400 + i, rng.randrange(1000)) for i in range(30)]),
        ("update", (300, 319)),
    ]
    rows: dict[int, int] = {}
    expected = [[]]  # state before any op (empty store, no table)
    for kind, arg in ops:
        if kind == "load":
            rows = dict(arg)
        elif kind == "insert":
            rows.update(dict(arg))
        elif kind == "delete":
            lo, hi = arg
            rows = {k: v for k, v in rows.items() if not lo <= k <= hi}
        elif kind == "update":
            lo, hi = arg
            rows = {k: (0 if lo <= k <= hi else v) for k, v in rows.items()}
        expected.append(sorted(rows.items()))
    return ops, expected


def apply_op(store, kind, arg):
    if kind == "create":
        store.create_table("T", SCHEMA)
    elif kind == "load":
        store.load("T", arg)
    elif kind == "insert":
        store.table("T").insert(arg)
    elif kind == "relayout":
        store.relayout("T", arg)
    elif kind == "delete":
        store.table("T").delete(Range("id", *arg))
    elif kind == "update":
        store.table("T").update({"val": 0}, Range("id", *arg))


def run_workload(path, checkpoint, layout="columns(T)"):
    ops, expected = build_workload(CORRUPT_SEED, layout)
    store = RodentStore(
        path, page_size=1024, pool_capacity=64, durable=True,
        level_seal_rows=16,
    )
    for kind, arg in ops:
        apply_op(store, kind, arg)
    if checkpoint:
        store.checkpoint()
        store.close()
    else:
        # Unclean close: flush pages and the log but keep the WAL so
        # reopen replays it (the repairable regime).
        store.pool.flush_all()
        store.wal.sync()
        store.wal.close()
        store.disk.close()
    return expected


def flip_sites(path, rng):
    size = os.path.getsize(path)
    if CORRUPT_ITERATIONS and CORRUPT_ITERATIONS < size:
        step = size / CORRUPT_ITERATIONS
        offsets = sorted({int(i * step) for i in range(CORRUPT_ITERATIONS)})
    else:
        offsets = list(range(size))
    return [(off, 1 << rng.randrange(8)) for off in offsets]


def flip_byte(path, offset, mask):
    with open(path, "r+b") as f:
        f.seek(offset)
        b = f.read(1)
        f.seek(offset)
        f.write(bytes([b[0] ^ mask]))


def scan_rows(store):
    if not store.catalog.has("T"):
        return None
    entry = store.catalog.entry("T")
    if entry.plan is None or not entry.loaded:
        return []
    return sorted(store.table("T").scan())


def reopen_and_scan(path, degraded=False):
    """Returns ('rows', rows) or ('error', exc). Never leaks handles."""
    store = None
    try:
        store = RodentStore(
            path,
            page_size=1024,
            pool_capacity=64,
            durable=True,
            degraded_reads=degraded,
        )
        rows = scan_rows(store)
        skipped = (
            list(store.catalog.entry("T").last_corruption_skipped)
            if store.catalog.has("T")
            else []
        )
        return "rows", rows, skipped
    except RodentStoreError as exc:
        return "error", exc, []
    finally:
        if store is not None:
            try:
                store.wal.close()
                store.disk.close()
            except RodentStoreError:
                pass


def _copy_store(src_dir, dst_dir):
    shutil.copytree(src_dir, dst_dir, dirs_exist_ok=True)


def _matrix(target_suffix, checkpoint, degraded=False, layout="columns(T)"):
    """Run the flip matrix against one persistent structure."""
    rng = random.Random(CORRUPT_SEED ^ 0xC0A0)
    base = tempfile.mkdtemp()
    try:
        base_path = os.path.join(base, "clean")
        os.makedirs(base_path)
        expected = run_workload(
            os.path.join(base_path, "db"), checkpoint, layout
        )
        final = expected[-1]
        target = os.path.join(base_path, "db" + target_suffix)
        assert os.path.getsize(target) > 0
        sites = flip_sites(target, rng)
        assert sites

        outcomes = {"exact": 0, "prefix": 0, "loud": 0, "degraded": 0}
        for offset, mask in sites:
            work = os.path.join(base, f"work_{offset}_{mask}")
            _copy_store(base_path, work)
            flipped = os.path.join(work, "db" + target_suffix)
            flip_byte(flipped, offset, mask)
            kind, result, skipped = reopen_and_scan(
                os.path.join(work, "db"), degraded=degraded
            )
            site = f"{target_suffix or 'pages'}@{offset}^{mask:#x}"
            if kind == "error":
                outcomes["loud"] += 1
            elif result == final:
                outcomes["exact"] += 1
            elif degraded:
                # A degraded scan may return any subset of the model
                # rows — but only with an accompanying skip report, and
                # never a row the model does not contain.
                got = dict(result or [])
                model = dict(final)
                for key, val in got.items():
                    assert model.get(key) == val, (
                        f"{site}: degraded scan returned wrong row "
                        f"{key}={val}"
                    )
                assert skipped, (
                    f"{site}: rows missing but no corruption report"
                )
                outcomes["degraded"] += 1
            elif result in expected:
                # Tail damage indistinguishable from a torn append:
                # a committed prefix of the workload, never a mix.
                assert not checkpoint, (
                    f"{site}: checkpointed store lost operations"
                )
                outcomes["prefix"] += 1
            else:
                raise AssertionError(
                    f"{site}: silently wrong rows {type(result)}"
                )
            shutil.rmtree(work)
        return outcomes
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_page_flips_with_live_wal_repair_or_fail():
    outcomes = _matrix("", checkpoint=False)
    # With the WAL intact every referenced-page flip must be repaired
    # (or land harmlessly); silent wrongness is already asserted inside.
    assert outcomes["exact"] + outcomes["loud"] + outcomes["prefix"] > 0
    assert outcomes["exact"] > 0, "no flip was repaired or harmless"


def test_page_flips_after_checkpoint_fail_loudly():
    outcomes = _matrix("", checkpoint=True)
    assert outcomes["prefix"] == 0
    assert outcomes["loud"] > 0, "no page flip was detected"


def test_page_flips_degraded_reads_report_skips():
    outcomes = _matrix("", checkpoint=True, degraded=True)
    assert outcomes["degraded"] + outcomes["exact"] + outcomes["loud"] > 0
    assert outcomes["degraded"] > 0, "no flip exercised the degraded path"


def test_composed_page_flips_degraded_reads_report_skips():
    """A corrupt run of one levelled partition is skipped and reported,
    never misread."""
    outcomes = _matrix("", checkpoint=True, degraded=True, layout=COMPOSED)
    assert outcomes["degraded"] > 0, "no flip exercised the degraded path"


def test_wal_flips_prefix_or_loud():
    outcomes = _matrix(".wal", checkpoint=False)
    assert outcomes["loud"] > 0, "no WAL flip was detected"


def test_catalog_flips_rejected():
    outcomes = _matrix(".catalog.json", checkpoint=True)
    # Flips in JSON whitespace are canonicalized away (exact); anything
    # touching content must be rejected by the catalog checksum.
    assert outcomes["loud"] > 0, "no catalog flip was detected"
    assert outcomes["prefix"] == 0 and outcomes["degraded"] == 0


def _drop_last_min(zones):
    """One field's ``mins`` loses its tail: the table disagrees with itself."""
    mins = next(iter(zones["fields"].values()))[0]
    del mins[-1:]


def _drop_first_zone(zones):
    """Every vector loses its head: self-consistent, but shifted against
    the chunk directory — positional pruning would skip the wrong rows."""
    del zones["rows"][:1]
    for vectors in zones["fields"].values():
        for values in vectors:
            del values[:1]


@pytest.mark.parametrize("damage", [_drop_last_min, _drop_first_zone])
def test_truncated_synopsis_vector_scans_unpruned_and_scrub_reports(damage):
    """A catalog whose checksum is *valid* but whose persisted synopsis
    vectors are shorter than the directory they index (a writer bug, not a
    bit flip) must never drop rows: the layout scans unpruned and scrub
    names the mismatch."""
    base = tempfile.mkdtemp()
    try:
        path = os.path.join(base, "db")
        final = run_workload(path, checkpoint=True)[-1]
        catalog = path + ".catalog.json"
        with open(catalog, encoding="utf-8") as f:
            payload = json.load(f)
        del payload[CATALOG_CRC_KEY]
        (table,) = payload["tables"]
        for zones in table["runs"][0]["synopsis"]["group_zones"]:
            assert len(zones["rows"]) > 1, "workload too small to truncate"
            damage(zones)
        payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
        with open(catalog, "w", encoding="utf-8") as f:
            json.dump(payload, f)

        store = RodentStore(
            path, page_size=1024, pool_capacity=64, durable=True
        )
        try:
            layout = store.table("T").layout
            assert layout.synopsis is None and layout.synopsis_error
            for lo, hi in [(0, 60), (100, 149), (300, 330), (400, 500)]:
                got = sorted(store.table("T").scan(predicate=Range("id", lo, hi)))
                assert got == [r for r in final if lo <= r[0] <= hi]
            report = store.scrub()
            assert report["clean"] is False
            assert [m["error"] for m in report["synopsis_mismatches"]] == [
                layout.synopsis_error
            ]
        finally:
            store.wal.close()
            store.disk.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)


GRID_LAYOUT = (
    "compress[varint; id, val](delta[id, val](zorder("
    "grid[id, val],[40, 250](T))))"
)


@pytest.mark.parametrize("degraded", [False, True])
@pytest.mark.parametrize(
    "field, step",
    [("row_count", 1), ("row_count", -1), ("length", 1), ("length", -1)],
)
def test_grid_directory_off_by_one_never_returns_wrong_rows(
    field, step, degraded
):
    """Every page CRC and the catalog checksum are *valid*, but one cell's
    directory entry is off by one (a writer bug, not a bit flip). The run
    reader checks each cell header against the directory before it decodes
    anything, so every scan that touches the cell fails loudly — a short or
    shifted column vector would be silently wrong rows."""
    base = tempfile.mkdtemp()
    try:
        path = os.path.join(base, "db")
        rng = random.Random(CORRUPT_SEED)
        rows = sorted((i, rng.randrange(1000)) for i in range(400))
        store = RodentStore(path, page_size=1024, pool_capacity=64, durable=True)
        store.create_table("T", SCHEMA, layout=GRID_LAYOUT)
        store.load("T", rows)
        store.checkpoint()
        store.close()

        catalog = path + ".catalog.json"
        with open(catalog, encoding="utf-8") as f:
            payload = json.load(f)
        del payload[CATALOG_CRC_KEY]
        (table,) = payload["tables"]
        directory = table["runs"][0]["cell_directory"]
        assert len(directory) > 4
        victim = directory[len(directory) // 2]
        victim[field] += step
        payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
        with open(catalog, "w", encoding="utf-8") as f:
            json.dump(payload, f)

        store = RodentStore(
            path,
            page_size=1024,
            pool_capacity=64,
            durable=True,
            degraded_reads=degraded,
        )
        try:
            table = store.table("T")
            (lo, hi), (vlo, vhi) = victim["bounds"]
            inside = Range("id", lo, hi - 1)
            with pytest.raises(RodentStoreError):
                list(table.scan())
            with pytest.raises(RodentStoreError):
                list(table.scan(predicate=inside))
            # Scans that prune the damaged cell away never read it.
            elsewhere = Range("id", hi + 40, 10_000)
            assert sorted(table.scan(predicate=elsewhere)) == [
                r for r in rows if r[0] >= hi + 40
            ]
        finally:
            store.wal.close()
            store.disk.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)


FOLDED_LAYOUT = "compress[varint; id](fold[id; val](T))"


@pytest.mark.parametrize("degraded", [False, True])
@pytest.mark.parametrize("damage", ["length+1", "length-1", "swapped key"])
def test_folded_directory_off_by_one_never_returns_wrong_rows(damage, degraded):
    """The folded twin of the grid case: every page CRC and the catalog
    checksum are valid, but one record's directory length is off by one,
    or two records' keys are swapped. The stream reader checks each
    record's key against the directory and its fields against its length,
    so every scan that reads a damaged record fails loudly — key pruning
    would otherwise hand back another group's rows, or none."""
    base = tempfile.mkdtemp()
    try:
        path = os.path.join(base, "db")
        rng = random.Random(CORRUPT_SEED)
        rows = [(i, rng.randrange(6)) for i in range(400)]
        store = RodentStore(path, page_size=1024, pool_capacity=64, durable=True)
        store.create_table("T", SCHEMA, layout=FOLDED_LAYOUT)
        store.load("T", rows)
        store.checkpoint()
        store.close()

        catalog = path + ".catalog.json"
        with open(catalog, encoding="utf-8") as f:
            payload = json.load(f)
        del payload[CATALOG_CRC_KEY]
        (table,) = payload["tables"]
        run = table["runs"][0]
        directory, keys = run["folded_directory"], run["folded_keys"]
        assert len(directory) == 6
        victim = 3
        if damage == "swapped key":
            keys[victim], keys[victim + 1] = keys[victim + 1], keys[victim]
        else:
            directory[victim][1] += 1 if damage == "length+1" else -1
        (key,), (untouched,) = keys[victim], keys[0]
        payload[CATALOG_CRC_KEY] = _catalog_crc(payload)
        with open(catalog, "w", encoding="utf-8") as f:
            json.dump(payload, f)

        store = RodentStore(
            path,
            page_size=1024,
            pool_capacity=64,
            durable=True,
            degraded_reads=degraded,
        )
        try:
            table = store.table("T")
            with pytest.raises(RodentStoreError):
                list(table.scan())
            with pytest.raises(RodentStoreError):
                list(table.scan(predicate=Range("val", key, key)))
            # Scans that prune the damaged records away never read them.
            elsewhere = Range("val", untouched, untouched)
            assert sorted(table.scan(["id", "val"], elsewhere)) == sorted(
                r for r in rows if r[1] == untouched
            )
        finally:
            store.wal.close()
            store.disk.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)


# Damage that a missing marker once hid: each case is checked in full.


def test_wal_record_without_its_checksum_flag_is_loud():
    """A ``FRESH_PAGE`` record whose checksum flag is cleared and one bit
    of whose image is flipped: every record carries the flag, so the
    record is undecodable — with records after it, mid-log corruption —
    not an unchecked image to redo."""
    from repro.errors import CorruptWALError
    from repro.storage import wal as wal_module

    base = tempfile.mkdtemp()
    try:
        path = os.path.join(base, "db")
        run_workload(path, checkpoint=False)
        with open(path + ".wal", "rb") as f:
            data = bytearray(f.read())
        pages, at = [], 0
        while at < len(data):
            record, end = wal_module.LogRecord.decode(data, at)
            if record.kind == wal_module.KIND_FRESH_PAGE:
                pages.append(at)
            at = end
        at = pages[-1]  # the newest page image, its COMMIT after it
        data[at + 4] &= ~wal_module.KIND_CRC_FLAG & 0xFF  # the kind byte
        image = at + wal_module._HEADER.size + wal_module._UPDATE_META.size
        data[image + 100] ^= 0x01
        with open(path + ".wal", "wb") as f:
            f.write(data)
        with pytest.raises(CorruptWALError):
            RodentStore(path, page_size=1024, pool_capacity=64, durable=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _rewrite_catalog(path, edit):
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    edit(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def test_catalog_with_a_renamed_checksum_key_is_loud():
    """A catalog whose ``crc32`` key is renamed and one of whose runs
    claims another row count: a catalog without a checksum is corrupt,
    not one to load unverified."""
    from repro.errors import CorruptCatalogError

    base = tempfile.mkdtemp()
    try:
        path = os.path.join(base, "db")
        run_workload(path, checkpoint=True)

        def damage(payload):
            payload["crc33"] = payload.pop(CATALOG_CRC_KEY)
            payload["tables"][0]["runs"][0]["row_count"] += 1

        _rewrite_catalog(path + ".catalog.json", damage)
        with pytest.raises(CorruptCatalogError):
            RodentStore(path, page_size=1024, pool_capacity=64, durable=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)


@pytest.mark.parametrize("degraded", [False, True])
def test_folded_run_without_its_keys_is_loud_at_load(degraded):
    """A folded run whose ``folded_keys`` are dropped under a recomputed
    checksum: the key check of every folded record needs them, so the
    catalog is corrupt when it loads — not a run read unchecked."""
    from repro.errors import CorruptCatalogError

    base = tempfile.mkdtemp()
    try:
        path = os.path.join(base, "db")
        store = RodentStore(path, page_size=1024, pool_capacity=64, durable=True)
        store.create_table("T", SCHEMA, layout=FOLDED_LAYOUT)
        store.load("T", [(i, i % 6) for i in range(400)])
        store.close()

        def damage(payload):
            del payload[CATALOG_CRC_KEY]
            payload["tables"][0]["runs"][0]["folded_keys"] = []
            payload[CATALOG_CRC_KEY] = _catalog_crc(payload)

        _rewrite_catalog(path + ".catalog.json", damage)
        with pytest.raises(CorruptCatalogError):
            RodentStore(
                path, page_size=1024, pool_capacity=64, durable=True,
                degraded_reads=degraded,
            )
    finally:
        shutil.rmtree(base, ignore_errors=True)
