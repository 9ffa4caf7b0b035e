"""Typed-vector support for the vectorized execution core.

Columns travel through the batch layer as one of three physical shapes,
uniformly called a *vector*:

* a ``numpy.ndarray`` (``int64``/``float64``) when numpy is importable —
  the fast path;
* a stdlib ``array.array`` (typecode ``"q"``/``"d"``) — the pure-Python
  fallback, still contiguous and bulk-decodable;
* a plain ``list`` — the graceful-degradation shape for strings, bools,
  mixed/null data, any codec that has no typed decode, and row pages read
  without numpy (:func:`from_records`).

Every helper here accepts all three shapes so callers never branch on
numpy availability; behavior is identical either way, only speed differs.
``set_numpy_enabled(False)`` (or ``REPRO_NO_NUMPY=1``) forces the
fallback even when numpy is installed, which is how tests assert parity.
"""

from __future__ import annotations

import heapq
import math
import operator
import os
import struct
import sys
from array import array
from collections import Counter, defaultdict
from itertools import accumulate, chain, compress, count, islice, repeat
from typing import Any, Iterable, Sequence

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _numpy_mod
except ImportError:  # pragma: no cover
    _numpy_mod = None

#: The active numpy module, or None when absent/disabled at runtime.
_np = None if os.environ.get("REPRO_NO_NUMPY") else _numpy_mod

#: struct typecodes we promote to contiguous buffers. Bools stay lists:
#: ``array`` has no ``"?"`` typecode and masks of three-ish distinct
#: values vectorize poorly anyway.
_NUMERIC_TYPECODES = frozenset("qd")

_NP_DTYPES = {"q": "<i8", "d": "<f8"}

_U32 = struct.Struct("<I")


def numpy_module():
    """The numpy module if importable, regardless of the runtime toggle."""
    return _numpy_mod


def numpy_enabled() -> bool:
    return _np is not None


def set_numpy_enabled(enabled: bool) -> bool:
    """Toggle the numpy fast path at runtime (testing/benchmarking hook).

    Only affects vectors built *after* the call — typed vectors already
    cached inside live stores keep their shape. Parity tests therefore
    always build fresh stores after toggling. Returns the previous state.
    """
    global _np
    previous = _np is not None
    _np = _numpy_mod if (enabled and _numpy_mod is not None) else None
    return previous


def typecode_for(dtype) -> str | None:
    """``"q"``/``"d"`` for fixed 8-byte numeric types, else None.

    Accepts NamedType wrappers (unwraps ``.base``). STRING/BYTES have no
    struct format and BOOL ("?") is deliberately excluded — both decode
    to plain lists.
    """
    base = getattr(dtype, "base", dtype)
    fmt = getattr(base, "struct_format", None)
    return fmt if fmt in _NUMERIC_TYPECODES else None


def from_bytes(data, offset: int, count: int, code: str):
    """Wrap ``count`` packed little-endian elements starting at ``offset``
    into a typed vector — zero-copy under numpy, one bulk copy under the
    ``array`` fallback."""
    if count <= 0:
        return _np.empty(0, dtype=_NP_DTYPES[code]) if _np is not None else array(code)
    if _np is not None:
        return _np.frombuffer(data, dtype=_NP_DTYPES[code], count=count, offset=offset)
    vec = array(code)
    end = offset + count * vec.itemsize
    vec.frombytes(bytes(data[offset:end]))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        vec.byteswap()
    return vec


def from_records(data, offset: int, count: int, prefix: int, codes: str):
    """Transpose ``count`` back-to-back fixed-width records into one vector
    per field, with no per-record Python.

    Each record is ``prefix`` flag bytes followed by one little-endian
    8-byte field per typecode in ``codes``; the records start at ``offset``
    in ``data``. Returns ``None`` when any flag byte is non-zero (a record
    carries nulls), leaving such pages to the caller's per-record decode.

    Under numpy the records are a strided byte matrix over ``data``: the
    field bytes are copied out, viewed as 8-byte words and transposed, so
    each vector is contiguous and owns its memory (``data`` may be recycled
    at once). The fallback unpacks the records with one
    ``struct.iter_unpack`` and transposes them with one ``zip``; its vectors
    are plain lists (the python scalars already exist, re-packing them into
    ``array`` would buy nothing).
    """
    stride = prefix + 8 * len(codes)
    if _np is not None:
        records = _np.frombuffer(
            data, dtype=_np.uint8, count=count * stride, offset=offset
        ).reshape(count, stride)
        if records[:, :prefix].any():
            return None
        return _word_columns(records[:, prefix:], codes)
    end = offset + count * stride
    unpacked = struct.iter_unpack(f"<{prefix}s{codes}", data[offset:end])
    flags, *columns = zip(*unpacked)
    if flags.count(bytes(prefix)) != count:
        return None
    return [list(column) for column in columns]


def _word_columns(matrix, codes: str) -> list:
    """The columns of a byte matrix whose rows are little-endian 8-byte
    words, one typecode in ``codes`` per word: contiguous vectors that own
    their memory."""
    words = _np.ascontiguousarray(matrix).view("<i8")
    columns = _np.ascontiguousarray(words.T)
    return [
        column if code == "q" else column.view("<f8")
        for code, column in zip(codes, columns)
    ]


#: A slot directory entry's length for a deleted record.
_DELETED_SLOT = 0xFFFFFFFF


def from_slots(
    data, directory: int, slots: int, heap: tuple[int, int],
    prefix: int, codes: str, texts: Sequence[bool],
):
    """The live records of a slotted page as columns, in one vector pass.

    ``data`` holds the page; its directory of ``slots`` ``(u32 offset,
    u32 length)`` entries starts at ``directory`` and runs backward (slot 0
    is its last entry), and a live record lies inside ``heap``
    (``[start, end)``). A record is ``prefix`` null-flag bytes, one
    little-endian 8-byte word per typecode in ``codes``, then one ``u32``
    length and that many payload bytes per entry of ``texts`` (True: a
    UTF-8 string, False: bytes).

    The directory is read as an array, the record heads are gathered as
    one byte matrix and viewed as typed columns, and each variable field's
    lengths are gathered as one vector before its payloads are sliced.
    Returns one vector per code, then one list per variable field, in slot
    order — or ``None`` when numpy is off, the page has no live record, a
    record carries a null flag, or a slot, a length or a string is not
    what it should be: the caller's record loop then reads the page and
    raises its own errors.
    """
    if _np is None or not slots:
        return None
    buf = _np.frombuffer(data, dtype=_np.uint8)
    entries = _np.frombuffer(
        data, dtype="<u4", count=2 * slots, offset=directory
    ).reshape(slots, 2)[::-1].astype(_np.int64)
    entries = entries[entries[:, 1] != _DELETED_SLOT]
    starts, ends = entries[:, 0], entries.sum(axis=1)
    at = starts + prefix + 8 * len(codes)
    if (
        not len(starts)
        or starts.min() < heap[0]
        or ends.max() > heap[1]
        or (at > ends).any()
        or buf[starts[:, None] + _np.arange(prefix)].any()
    ):
        return None
    words = buf[(starts + prefix)[:, None] + _np.arange(8 * len(codes))]
    columns = _word_columns(words, codes)
    page = bytes(data)
    for text in texts:
        if (at + 4 > ends).any():
            return None
        sizes = buf[at[:, None] + _np.arange(4)].view("<u4").ravel()
        at = at + 4
        stops = at + sizes
        if (stops > ends).any():
            return None
        payloads = [page[a:b] for a, b in zip(at.tolist(), stops.tolist())]
        if text:
            try:
                payloads = list(map(bytes.decode, payloads))
            except UnicodeDecodeError:
                return None
        columns.append(payloads)
        at = stops
    return columns


def packed_bytes(vec, code: str) -> bytes | None:
    """The little-endian packed elements of a typed vector whose element
    type is ``code`` (the inverse of :func:`from_bytes`), or ``None`` for
    anything else — a list, or a vector of another element type."""
    if isinstance(vec, array):
        if vec.typecode != code:
            return None
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            vec = array(code, vec)
            vec.byteswap()
        return vec.tobytes()
    if _numpy_mod is not None and isinstance(vec, _numpy_mod.ndarray):
        if vec.ndim == 1 and vec.dtype.str == _NP_DTYPES.get(code):
            return vec.tobytes()
    return None


def from_values(values: Sequence, code: str):
    """A typed vector from already-decoded python scalars, or None when
    the values don't fit the typecode (e.g. a None snuck in)."""
    try:
        if _np is not None:
            out = _np.asarray(values, dtype=_NP_DTYPES[code])
            if len(out) != len(values):  # pragma: no cover - defensive
                return None
            return out
        return array(code, values)
    except (TypeError, ValueError, OverflowError):
        return None


def extend(vec, values: Sequence):
    """``vec`` — an append-only column: an ``array``, a list, or ``None``
    for a new one — with ``values`` appended, in place while they fit it.

    A new column is an ``array`` when every value is exactly an ``int``
    (``"q"``) or exactly a ``float`` (``"d"``), else a list. Values that do
    not fit a typed column's typecode exactly (a bool, an int in a float
    column, an int beyond int64) turn it into a new list, so a column
    always reads back the values appended, Python types included.
    """
    if isinstance(vec, list):
        vec.extend(values)
        return vec
    kinds = set(map(type, values))
    if vec is None:
        code = "q" if kinds == {int} else "d" if kinds == {float} else None
        if code is None:
            return list(values)
        vec = array(code)
    if kinds <= {int if vec.typecode == "q" else float}:
        try:
            vec.frombytes(struct.pack(f"{len(values)}{vec.typecode}", *values))
            return vec
        except struct.error:  # an int beyond int64
            pass
    return vec.tolist() + list(values)


def head(vec, count: int):
    """The first ``count`` entries of an append-only column as a vector of
    their own, in the active shape: one C-level slice — under numpy an
    ``ndarray`` over it — so later appends to ``vec`` never show
    through, and no view of ``vec`` itself blocks them."""
    part = vec[:count]
    typed = as_ndarray(part) if isinstance(part, array) else None
    return part if typed is None else typed


def owned(vec):
    """``vec`` with a buffer of its own: an ndarray view (a slice of a
    batch's vector) is copied, so keeping it does not keep its base."""
    return vec.copy() if getattr(vec, "base", None) is not None else vec


def nbytes(vec) -> int:
    """Bytes a vector's values take: a typed buffer's, 8 a list slot."""
    if isinstance(vec, array):
        return vec.itemsize * len(vec)
    return getattr(vec, "nbytes", 8 * len(vec))


def is_typed(vec) -> bool:
    """True when the vector is a contiguous typed buffer (not a list)."""
    return not isinstance(vec, list)


def to_list(vec) -> list | tuple:
    """Materialize native python scalars. Lists — and tuples, the columns
    of a transposed row batch — pass through unchanged; ndarray/array use
    their bulk ``tolist`` (never ``list(ndarray)``, which would leak numpy
    scalars into row tuples)."""
    if isinstance(vec, (list, tuple)):
        return vec
    return vec.tolist()


def concat(parts: list):
    """Concatenate column fragments, preserving the typed shape when all
    fragments share it; degrades to a plain list otherwise."""
    if len(parts) == 1:
        return parts[0]
    if (
        _np is not None
        and all(isinstance(p, _np.ndarray) for p in parts)
        and len({p.dtype for p in parts}) == 1  # (never upcast ints to floats)
    ):
        return _np.concatenate(parts)
    if (
        all(isinstance(p, array) for p in parts)
        and len({p.typecode for p in parts}) == 1
    ):
        out = array(parts[0].typecode)
        for p in parts:
            out.extend(p)
        return out
    out = []
    for p in parts:
        out.extend(to_list(p))
    return out


def mask_count(mask) -> int:
    """Number of selected rows in a boolean selection mask."""
    if _numpy_mod is not None and isinstance(mask, _numpy_mod.ndarray):
        return int(mask.sum())
    return sum(mask)


def as_ndarray(vec):
    """A numpy view of a typed vector, or None when numpy is disabled or
    the vector is a plain list. ``array`` fallback vectors get a
    zero-copy ``frombuffer`` view."""
    if _np is None:
        return None
    if isinstance(vec, _np.ndarray):
        return vec if vec.dtype.kind in "if" else None
    if isinstance(vec, array) and vec.typecode in _NUMERIC_TYPECODES and len(vec):
        return _np.frombuffer(vec, dtype=_NP_DTYPES[vec.typecode])
    if isinstance(vec, array):
        return _np.empty(0, dtype=_NP_DTYPES.get(vec.typecode, "<i8"))
    return None


# ---------------------------------------------------------------------------
# min/max synopsis kernels (zone maps, grid cell bounds)
# ---------------------------------------------------------------------------

_INF = float("inf")
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def min_max_nulls(values) -> tuple[Any, Any, int]:
    """``(min, max, null count)`` of a value vector in one reduction each;
    ``(None, None, nulls)`` when it holds no non-null value. A NaN is
    skipped whatever the vector's shape (it matches no range); only a
    vector of NaNs alone reduces to NaN bounds."""
    if not len(values):
        return None, None, 0
    if _numpy_mod is not None and isinstance(values, _numpy_mod.ndarray):
        low, high = values.min(), values.max()
        if low != low or high != high:  # NaN propagates through numpy
            present = values[values == values]
            if len(present):
                values = present
                low, high = present.min(), present.max()
        # Of 0.0 and -0.0 Python's reductions keep the first seen.
        return _first_seen(values, low), _first_seen(values, high), 0
    try:
        low, high = min(values), max(values)
    except TypeError:  # a None among the values: not orderable
        low = None
    if low is not None:
        return (*_skip_nan(values, low, high), 0)
    # Nulls are rare, so they are looked for only now (a lone None, the
    # one case the reductions accept, lands here through ``low``). Values
    # of genuinely unorderable types raise again below.
    present = [v for v in values if v is not None]
    nulls = len(values) - len(present)
    if not present:
        return None, None, nulls
    return (*_skip_nan(present, min(present), max(present)), nulls)


def _skip_nan(values, low, high) -> tuple[Any, Any]:
    """``low``/``high`` of Python's reductions, re-reduced without NaN
    when they are NaN (which they are exactly when the first value is)."""
    if low != low or high != high:
        present = [v for v in values if v == v]
        if present:
            return min(present), max(present)
    return low, high


def pack(values: list):
    """A bounds vector in its fastest shape: an ``int64``/``float64``
    ndarray when numpy is on and every entry is an int (not bool) or every
    entry a float; otherwise (``None`` for an all-null zone, strings,
    bools, mixed, beyond int64) the list itself."""
    if _np is None or not values:
        return values
    kinds = set(map(type, values))
    code = "q" if kinds == {int} else "d" if kinds == {float} else None
    packed = from_values(values, code) if code else None
    return values if packed is None else packed


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _exact_bound(vec, bound, up: bool):
    """``bound`` moved onto ``vec``'s dtype without changing a comparison.

    numpy rounds a python scalar to the array's dtype before comparing
    (an int beyond 2**53 to the nearest float, a float to the int64 array's
    float image), python compares exactly. Rounding *up* to the smallest
    representable value >= ``bound`` keeps ``vec < bound`` exact; rounding
    down keeps ``vec > bound`` and ``vec <= bound`` exact.
    """
    if isinstance(bound, float):
        if vec.dtype.kind == "f" or bound != bound or bound in (_INF, -_INF):
            return bound
        bound = math.ceil(bound) if up else math.floor(bound)
    if vec.dtype.kind == "i":
        if bound > _I64_MAX:
            return _INF
        return -_INF if bound < _I64_MIN else bound
    try:
        image = float(bound)
    except OverflowError:
        if bound > 0:
            return _INF if up else sys.float_info.max
        return -sys.float_info.max if up else -_INF
    if up and image < bound:
        return math.nextafter(image, _INF)
    if not up and image > bound:
        return math.nextafter(image, -_INF)
    return image


def disjoint_mask(lows, highs, lo, hi, half_open: bool = False):
    """Per entry: is ``[low, high]`` provably disjoint from the inclusive
    query interval ``[lo, hi]``? ``half_open`` entries are ``[low, high)``.

    Typed bounds take one vector pass; list bounds are tested entry by
    entry, and an entry that is not an (int, float) pair — ``None``,
    strings, bools — is never provably disjoint.
    """
    np_mod = _numpy_mod
    if (
        np_mod is not None
        and isinstance(lows, np_mod.ndarray)
        and isinstance(highs, np_mod.ndarray)
        and isinstance(lo, (int, float))
        and isinstance(hi, (int, float))
    ):
        if half_open:
            below = highs <= _exact_bound(highs, lo, up=False)
        else:
            below = highs < _exact_bound(highs, lo, up=True)
        return below | (lows > _exact_bound(lows, hi, up=False))
    return [
        _is_number(low)
        and _is_number(high)
        and ((high <= lo if half_open else high < lo) or low > hi)
        for low, high in zip(to_list(lows), to_list(highs))
    ]


def nonzero_mask(values):
    """Selection mask of the non-zero entries of a count vector."""
    if _numpy_mod is not None and isinstance(values, _numpy_mod.ndarray):
        return values != 0
    return [v != 0 for v in values]


def mask_and_not(keep, drop):
    """``keep & ~drop`` for selection masks of either shape; ``keep`` may
    be ``None`` (everything selected so far)."""
    np_mod = _numpy_mod
    if np_mod is not None and (
        isinstance(keep, np_mod.ndarray) or isinstance(drop, np_mod.ndarray)
    ):
        drop = np_mod.asarray(drop, dtype=bool)
        return ~drop if keep is None else np_mod.asarray(keep, dtype=bool) & ~drop
    if keep is None:
        return [not d for d in drop]
    return [k and not d for k, d in zip(keep, drop)]


def mask_positions(mask):
    """Positions of the selected entries of a selection mask, ascending:
    an ``int64`` ndarray for an ndarray mask, a list otherwise."""
    if _numpy_mod is not None and isinstance(mask, _numpy_mod.ndarray):
        return _numpy_mod.flatnonzero(mask)
    return list(compress(count(), mask))


def mask_indexes(mask) -> list[int]:
    """:func:`mask_positions` as a list of python ints."""
    return to_list(mask_positions(mask))


# ---------------------------------------------------------------------------
# ordering kernel (order-by, top-k)
# ---------------------------------------------------------------------------


def _dense_rank(values) -> list[int]:
    """Each value's rank among the distinct values, under Python's own
    ``<`` / ``==`` — what makes strings, bools and mixed int/float columns
    sortable as ints without changing a single comparison's outcome."""
    rank = {value: i for i, value in enumerate(sorted(set(values)))}
    return list(map(rank.__getitem__, values))


def _ascending_key(vec, descending: bool):
    """``vec`` as a numeric ndarray whose *ascending* order is the wanted
    order of the column (numpy path only).

    Typed vectors, and lists that are all int or all float, are used as
    they are; any other column goes through its dense rank. Descending is
    ``~x`` on ints and ranks (total on int64, unlike ``-x`` at ``-2**63``)
    and ``-x`` on floats; both keep ties ties.
    """
    key = as_ndarray(vec)
    if key is None:
        values = to_list(vec)
        key = as_ndarray(pack(values))
        if key is None:
            key = _np.asarray(_dense_rank(values), dtype="<i8")
    if not descending:
        return key
    return -key if key.dtype.kind == "f" else ~key


def sort_indexes(
    keys: Sequence, descending: Sequence[bool], limit: int | None = None
):
    """Row positions that put parallel ``keys`` vectors (most significant
    first) in order, each key descending where ``descending`` says so;
    only the first ``limit`` of them when a limit is given.

    The order is *stable*: rows equal on every key keep their input order,
    so the result is exactly what one stable sort per key, least
    significant first, leaves behind — with Python's comparisons, whatever
    the shape of a key vector. One ``np.lexsort`` under numpy (with a
    limit, over only the rows whose leading key is within the limit-th
    smallest), one ``sorted`` / ``heapq.nsmallest`` over a composite key
    without. A NaN key has no place in any order, here as in ``sorted``.
    """
    n = len(keys[0])
    if _np is not None:
        columns = [_ascending_key(v, d) for v, d in zip(keys, descending)]
        if limit is not None and limit < n:
            lead = columns[0]
            cutoff = _np.partition(lead, limit - 1)[limit - 1]
            rows = _np.flatnonzero(lead <= cutoff)
            if limit <= len(rows) < n:  # (a NaN cut-off selects nothing)
                order = _np.lexsort([c[rows] for c in reversed(columns)])
                return rows[order[:limit]]
        return _np.lexsort(columns[::-1])[:limit]
    columns = []
    for vec, desc in zip(keys, descending):
        values = to_list(vec)
        if desc and isinstance(vec, array):
            values = [-v for v in values]
        elif desc:
            values = [~r for r in _dense_rank(values)]
        columns.append(values)
    composite = columns[0] if len(columns) == 1 else list(zip(*columns))
    if limit is None:
        return sorted(range(n), key=composite.__getitem__)
    return heapq.nsmallest(limit, range(n), key=composite.__getitem__)


def take(vec, indexes):
    """The entries of ``vec`` at ``indexes``, in that order: an ndarray
    stays one, every other shape gathers into a list."""
    np_mod = _numpy_mod
    if np_mod is not None and isinstance(vec, np_mod.ndarray):
        return vec[indexes]
    if np_mod is not None and isinstance(indexes, np_mod.ndarray):
        indexes = indexes.tolist()
    return list(map(to_list(vec).__getitem__, indexes))


def within_bound(vec, bound, descending: bool):
    """Selection mask of the entries that sort no later than ``bound``:
    ``<= bound`` ascending, ``>= bound`` descending (ties selected)."""
    arr = as_ndarray(vec)
    if arr is not None and isinstance(bound, (int, float)):
        if descending:
            return arr >= _exact_bound(arr, bound, up=True)
        return arr <= _exact_bound(arr, bound, up=False)
    values = to_list(vec)
    if descending:
        return [v >= bound for v in values]
    return [v <= bound for v in values]


# ---------------------------------------------------------------------------
# run kernels (grid cell runs, delta reconstruction)
# ---------------------------------------------------------------------------


def zigzag_varints(data, lengths: Sequence[int]):
    """Every value of several zigzag-LEB128 blobs laid back to back in
    ``data`` in one pass: ``(int64 vector, values per blob)``.

    Blob ``i`` is ``lengths[i]`` bytes: a little-endian ``u32`` value count,
    then that many varints. Returns ``None`` — the caller then runs its own
    byte loop, which also owns the error messages — when numpy is off, when
    a varint is longer than 9 bytes (its value may not fit 64 bits), or
    when the blobs are not exactly what they declare: a count that differs
    from the varints found, a varint cut by the end of its blob, lengths
    that do not add up to ``data``.
    """
    if (
        _np is None
        or not len(lengths)
        or min(lengths) < 4
        or sum(lengths) != len(data)
    ):
        return None
    # Each blob's count word, and the varints of all of them as one body.
    blobs = list(zip(accumulate(lengths), lengths))
    declared = [_U32.unpack_from(data, end - size)[0] for end, size in blobs]
    body = _np.frombuffer(
        b"".join([data[end - size + 4 : end] for end, size in blobs]),
        dtype=_np.uint8,
    )
    stop = body < 0x80  # the last byte of each varint
    (stops,) = stop.nonzero()
    body_ends = [end - 4 * i for i, (end, _) in enumerate(blobs, 1)]
    lasts = [end - 1 for end, size in zip(body_ends, lengths) if size > 4]
    if (
        stops.searchsorted(body_ends).tolist() != list(accumulate(declared))
        or not stop[lasts].all()
    ):
        return None
    if not len(stops):
        return _np.empty(0, dtype="<i8"), declared
    first = _np.empty_like(stops)
    first[0] = 0
    first[1:] = stops[:-1] + 1
    widths = stops - first + 1
    if widths.max() > 9:
        return None
    # Each byte's 7 bits, shifted to its place in its varint; a varint is
    # the difference of the running sum at its last byte and at the one
    # before it. Nine 7-bit groups are 63 bits, so each varint fits a
    # signed word, and the running sum's wrap-around (modulo 2**64)
    # cancels in the difference.
    shift = (_np.arange(len(body)) - first.repeat(widths)) * 7
    raw = ((body & 0x7F).astype("<i8") << shift).cumsum()[stops]
    raw[1:] -= raw[:-1].copy()
    return (raw >> 1) ^ -(raw & 1), declared


def prefix_sum(values, counts: Sequence[int] | None = None, carry=None):
    """Running sums of ``values``: the inverse of delta encoding.

    ``counts`` are segment lengths (adding up to ``len(values)``); the sum
    restarts at every segment boundary — grid cells delta-encode on their
    own. ``carry`` seeds the first segment: the last value of the batch
    before this one. Sums are exactly Python's left-to-right ``+``: an
    int64 vector takes one modular ``cumsum`` only when no running sum can
    leave 64 bits, every other shape (floats, whose segmented sums would
    round differently; lists; wider ints) accumulates value by value into
    a list.
    """
    if counts is None:
        counts = (len(values),)
    np_mod = _numpy_mod
    if (
        np_mod is not None
        and isinstance(values, np_mod.ndarray)
        and values.dtype.kind == "i"
        and len(values)
    ):
        reach = max(-values.min().item(), values.max().item(), 0) * max(counts)
        seed = carry or 0
        if isinstance(seed, int) and reach + abs(seed) <= _I64_MAX:
            if len(counts) > 1:
                # running[i] is the sum of the values before position i
                running = np_mod.empty(len(values) + 1, dtype=np_mod.int64)
                running[0] = 0
                sums = values.cumsum(out=running[1:])
                starts = list(accumulate(counts, initial=0))[:-1]
                sums -= running[starts].repeat(counts)
            else:
                sums = values.cumsum()
            if seed:
                sums[: counts[0]] += seed
            return sums
    values = to_list(values)
    out: list = []
    start = 0
    for count in counts:
        segment = values[start : start + count]
        start += count
        if carry is None:
            out.extend(accumulate(segment))
        else:
            out.extend(islice(accumulate(segment, initial=carry), 1, None))
            carry = None
    return out


# ---------------------------------------------------------------------------
# keyed kernel (group-by, hash join)
# ---------------------------------------------------------------------------

#: An int sum (and a composite key code) is computed in int64 only while
#: ``max(|value|) * rows`` stays below this; beyond it, Python ints.
_INT64_SAFE = 2**62


def _may_hold_null(vec) -> bool:
    """Lists and tuples (the columns of a transposed row batch) are the
    only vector shapes that can carry ``None``."""
    return isinstance(vec, (list, tuple))


def _nan_free_ndarray(vec):
    """:func:`as_ndarray`, but ``None`` also for a float vector holding a
    NaN — the one typed value numpy and Python compare differently."""
    arr = as_ndarray(vec)
    if arr is not None and arr.dtype.kind == "f" and _np.isnan(arr).any():
        return None
    return arr


def _distinct_rows(vectors: Sequence):
    """Numpy's half of :class:`KeyTable`: ``(arrays, rows, local)`` — the
    key vectors as ndarrays, the row at which each distinct key of the call
    first appears (in first-seen order), and each row's position in
    ``rows``. ``None`` unless every vector is a typed, NaN-free one.

    One ``np.unique`` over the key column; several columns first become
    one mixed-radix code per row over their per-column ranks.
    """
    arrays = [_nan_free_ndarray(vec) for vec in vectors]
    if any(arr is None for arr in arrays) or not len(arrays[0]):
        return None
    codes = arrays[0]
    if len(arrays) > 1:
        codes, span = 0, 1
        for arr in arrays:
            distinct, rank = _np.unique(arr, return_inverse=True)
            span *= len(distinct)
            if span >= _INT64_SAFE:
                return None
            codes = codes * len(distinct) + rank
    distinct, local = _np.unique(codes, return_inverse=True)
    first = _np.full(len(distinct), len(codes))
    _np.minimum.at(first, local, _np.arange(len(codes)))
    order = first.argsort()
    rank = _np.empty_like(order)
    rank[order] = _np.arange(len(order))
    return arrays, first[order], rank[local]


class KeyTable:
    """Dense ids for the distinct keys of a scan, in first-seen order.

    A key is one row's values across parallel *key vectors*. Two keys are
    the same exactly when Python says so — ``1 == 1.0 == True``, ``-0.0 ==
    0.0``, an int beyond ``2**53`` equals no float beside it, a NaN equals
    only itself as an object — because one ``dict`` is the only judge
    across calls; the first value seen represents the key. ``None`` is a
    legal key to :meth:`ids` (SQL groups nulls together).

    Typed int and NaN-free float vectors are deduplicated by numpy first,
    so the dict sees each distinct key of a call once. Every other shape
    (strings, ``None``, NaN, bools, mixed or beyond-int64 numbers, tuple
    columns, numpy off) is one dict pass over the rows. Either way the
    answer is an id vector: an ``intp`` ndarray while numpy is on, a list
    otherwise. The table lives as long as its scan: ids are stable across
    calls, memory is O(distinct keys).
    """

    def __init__(self) -> None:
        self._ids: dict = defaultdict(count().__next__)
        self._width = 0

    def __len__(self) -> int:
        return len(self._ids)

    def keys(self) -> list[tuple]:
        """The keys in id order, as tuples of native Python values."""
        if self._width == 1:
            return [(key,) for key in self._ids]
        return list(self._ids)

    def ids(self, vectors: Sequence):
        """Each row's id; a key not seen before takes the next one."""
        return self._map(vectors, self._ids.__getitem__)

    def lookup(self, vectors: Sequence):
        """Each row's id, ``-1`` for a key :meth:`ids` never saw and for a
        key with a ``None`` in it (SQL: a null joins nothing)."""
        found = self._map(vectors, self._ids.get, repeat(-1))
        for vec in vectors:
            if _may_hold_null(vec) and None in vec:
                for row, value in enumerate(vec):
                    if value is None:
                        found[row] = -1
        return found

    def _map(self, vectors: Sequence, id_of, *more):
        self._width = len(vectors)
        distinct = _distinct_rows(vectors)
        if distinct is None:
            columns, local = [to_list(vec) for vec in vectors], None
            n = len(vectors[0])
        else:
            arrays, rows, local = distinct
            columns, n = [arr[rows].tolist() for arr in arrays], len(rows)
        keys = columns[0] if len(columns) == 1 else zip(*columns)
        found = map(id_of, keys, *more)
        if _np is None:
            return list(found)
        found = _np.fromiter(found, _np.intp, n)
        return found if local is None else found[local]


def zeros(n: int):
    """The id vector of ``n`` rows that all belong to group 0."""
    return [0] * n if _np is None else _np.zeros(n, dtype=_np.intp)


def count_groups(counts: list, ids, values=None) -> None:
    """``counts[g] +=`` the rows of id ``g`` — of those whose entry in
    ``values`` is not ``None``, when a value vector is given."""
    if values is not None and _may_hold_null(values):
        ids = [g for g, v in zip(to_list(ids), values) if v is not None]
    if _numpy_mod is not None and isinstance(ids, _numpy_mod.ndarray):
        found = enumerate(_numpy_mod.bincount(ids, minlength=len(counts)).tolist())
    else:
        found = Counter(ids).items()
    for g, n in found:
        counts[g] += n


def sum_groups(sums: list, ids, values) -> None:
    """``sums[g] +=`` every non-``None`` value of id ``g``, in row order.

    The result is what Python's own ``+`` gives row by row, however the
    rows were cut into calls: a typed int vector is summed in int64 (below
    the overflow guard) and added to the running Python int; a typed float
    vector is accumulated by ``np.add.at`` — sequential, like the loop —
    *onto* the running sums, never summed apart and added later. Anything
    else is the loop itself.
    """
    arr = as_ndarray(values)
    if arr is not None and len(arr) and isinstance(ids, _np.ndarray):
        n_groups = len(sums)
        present = _np.flatnonzero(_np.bincount(ids, minlength=n_groups))
        seeds = [sums[g] for g in present.tolist()]
        if arr.dtype.kind == "f":
            running = _np.zeros(n_groups)
            running[present] = [float(seed) for seed in seeds]
            with _np.errstate(all="ignore"):  # inf - inf is nan, silently
                _np.add.at(running, ids, arr)
            for g, total in zip(present.tolist(), running[present].tolist()):
                sums[g] = total
            return
        reach = max(-arr.min().item(), arr.max().item()) * len(arr)
        if reach < _INT64_SAFE and all(type(seed) is int for seed in seeds):
            part = _np.zeros(n_groups, dtype=_np.int64)
            _np.add.at(part, ids, arr)
            ids, values = present, part[present]
    for g, value in zip(to_list(ids), to_list(values)):
        if value is not None:
            sums[g] += value


def extreme_groups(best: list, ids, values, largest: bool) -> None:
    """``best[g]`` becomes the smallest (``largest``: the largest)
    non-``None`` value of id ``g`` seen so far; ``None`` means none yet.

    Among values that compare equal (``0.0`` and ``-0.0``, ``1`` and
    ``1.0``) the *first* in row order stays: a later value replaces the
    current one only when Python's own ``<`` / ``>`` says it beats it. A
    typed NaN-free vector is first cut down to that one row per id.
    """
    arr = _nan_free_ndarray(values)
    if arr is not None and len(arr) and isinstance(ids, _np.ndarray):
        reduce = _np.maximum if largest else _np.minimum
        bound = _np.full(len(best), arr.min() if largest else arr.max())
        reduce.at(bound, ids, arr)
        holders = _np.flatnonzero(arr == bound[ids])
        first = _np.full(len(best), len(arr))
        _np.minimum.at(first, ids[holders], holders)
        first = first[first < len(arr)]
        ids, values = ids[first], arr[first]
    beats = operator.gt if largest else operator.lt
    for g, value in zip(to_list(ids), to_list(values)):
        if value is not None and (best[g] is None or beats(value, best[g])):
            best[g] = value


def group_rows(ids, n_groups: int):
    """``(order, offsets)``: the row positions sorted by id — rows of one
    id in row order — and, per id, where its rows start in ``order``
    (``n_groups + 1`` entries, the last one ``len(ids)``)."""
    if _numpy_mod is not None and isinstance(ids, _numpy_mod.ndarray):
        sizes = _numpy_mod.bincount(ids, minlength=n_groups)
        offsets = _numpy_mod.concatenate(([0], sizes.cumsum()))
        return ids.argsort(kind="stable"), offsets
    buckets: list[list[int]] = [[] for _ in range(n_groups)]
    for row, g in enumerate(ids):
        buckets[g].append(row)
    offsets = list(accumulate(map(len, buckets), initial=0))
    return list(chain.from_iterable(buckets)), offsets


def match_rows(found, order, offsets):
    """Pair every probe row with the build rows of its id: two parallel
    index vectors ``(probe_rows, build_rows)``, probe rows ascending, the
    build rows of one probe row in build order. ``found`` is the probe
    side's :meth:`KeyTable.lookup` (``-1``: no partner), ``order`` and
    ``offsets`` the build side's :func:`group_rows`."""
    np_mod = _numpy_mod
    if np_mod is not None and all(
        isinstance(v, np_mod.ndarray) for v in (found, order, offsets)
    ):
        probe = np_mod.flatnonzero(found >= 0)
        starts = offsets[found[probe]]
        sizes = offsets[found[probe] + 1] - starts
        ends = sizes.cumsum()
        total = int(ends[-1]) if len(ends) else 0
        within = np_mod.arange(total) - (ends - sizes).repeat(sizes)
        return probe.repeat(sizes), order[starts.repeat(sizes) + within]
    order, offsets = to_list(order), to_list(offsets)
    probe_rows: list[int] = []
    build_rows: list[int] = []
    for row, g in enumerate(to_list(found)):
        if g >= 0:
            partners = order[offsets[g] : offsets[g + 1]]
            build_rows.extend(partners)
            probe_rows.extend(repeat(row, len(partners)))
    return probe_rows, build_rows


# ---------------------------------------------------------------------------
# column statistics kernel (the cost model's table statistics)
# ---------------------------------------------------------------------------

_NONE_TYPE = type(None)
#: Value types that never bound a histogram and are never NaN or ±inf.
_NO_HISTOGRAM = frozenset((bool, str, bytes))


def column_stats(values, buckets: int, distinct_cap: int) -> tuple:
    """``(present, nulls, distinct, low, high, histogram)`` of one column.

    ``present`` holds the column's non-``None`` values as Python scalars
    (typed vectors are read as their ``tolist``) and ``nulls`` counts the
    ``None``. ``distinct`` is the number of distinct present values as a
    ``set`` judges them (``1 == 1.0 == True``, ``-0.0 == 0.0``, a NaN
    equals only itself as an object), at most ``distinct_cap``. ``low`` /
    ``high`` are the smallest and the largest present value that is not a
    float NaN or ±inf, by Python's ``<`` / ``>``: of equal values the first
    seen stays, with its own type; ``None`` when there is none.
    ``histogram`` counts the finite int and float values (never a bool) in
    ``buckets`` equal-width buckets over ``[float(low), float(high)]``, a
    value ``v`` in bucket ``min(int((v - lo) / width), buckets - 1)``;
    it is ``[]`` when there is no such value, when ``low == high``, or when
    the width rounds to 0 or overflows.

    A column of ints within int64, or of floats, takes numpy's reductions
    and its bucket arithmetic (the same IEEE operations, so the same
    counts), the sign of a zero bound resolved to the first zero seen.
    Every other column, and every column with numpy off, applies the rules
    above value by value, with Python's own ``min`` / ``max``.
    """
    arr = as_ndarray(values)
    values = to_list(values)
    kinds = set(map(type, values))
    nulls = 0
    if _NONE_TYPE in kinds:
        kinds.discard(_NONE_TYPE)
        nulls = values.count(None)
        values = list(compress(values, map(operator.is_not, values, repeat(None))))
    distinct = min(len(set(values)), distinct_cap)
    if _np is not None and (kinds == {int} or kinds == {float}):
        if arr is None:
            arr = from_values(values, "q" if int in kinds else "d")
        if arr is not None:  # (None: an int beyond int64)
            return (values, nulls, distinct, *_typed_stats(arr, buckets))
    if kinds <= _NO_HISTOGRAM:
        finite, numbers = values, ()
    else:
        finite = [
            v for v in values if not (isinstance(v, float) and not math.isfinite(v))
        ]
        numbers = [float(v) for v in finite if _is_number(v)]
    if not finite:
        return values, nulls, distinct, None, None, []
    low, high = min(finite), max(finite)
    return values, nulls, distinct, low, high, _histogram(numbers, low, high, buckets)


def _typed_stats(arr, buckets: int) -> tuple:
    """``(low, high, histogram)`` of an int64 / float64 ndarray."""
    if arr.dtype.kind == "f":
        finite = _np.isfinite(arr)
        if not finite.all():
            arr = arr[finite]
    if not len(arr):
        return None, None, []
    low = _first_seen(arr, arr.min())
    high = _first_seen(arr, arr.max())
    return low, high, _histogram(arr, low, high, buckets)


def _first_seen(arr, extreme):
    """``extreme`` of ``arr`` as a Python scalar. Equal floats are the same
    value except ``0.0`` and ``-0.0``, so a zero is the first zero of
    ``arr``, sign and all."""
    if extreme == 0 and arr.dtype.kind == "f":
        return arr[(arr == 0).argmax()].item()
    return extreme.item()


def _histogram(numbers, low, high, buckets: int) -> list[int]:
    """Per-bucket counts of ``numbers`` (finite, within ``[low, high]``)."""
    if not len(numbers) or low == high:
        return []
    lo, hi = float(low), float(high)
    width = (hi - lo) / buckets
    if not 0.0 < width < _INF:
        return []
    if _np is not None and isinstance(numbers, _np.ndarray):
        ids = _np.minimum((numbers - lo) / width, buckets - 1).astype(_np.intp)
    else:
        ids = [min(int((v - lo) / width), buckets - 1) for v in numbers]
    counts = [0] * buckets
    count_groups(counts, ids)
    return counts


# ---------------------------------------------------------------------------
# render kernels (the write side: record pipeline, grid cells, deltas, zones,
# page encoders)
# ---------------------------------------------------------------------------
#
# Each kernel's fallback is the tuple evaluator's own algorithm, value by
# value; the typed path runs only where it provably gives the same values
# (int64 vectors, and float64 vectors without a NaN), so a design renders
# the same bytes whichever path its columns take.


def typed_column(values, code: str | None):
    """A column of coerced Python scalars as the typed vector of typecode
    ``code`` (``"q"`` / ``"d"``) while numpy is on — what the render
    kernels take their fast path on — else ``values`` itself.

    A float column holding a NaN stays as it is: a NaN equals only itself
    as an object, so grouping and dedup must see the very objects given.
    """
    if _np is None or code is None or not len(values):
        return values
    typed = from_values(values, code)
    if typed is None or (code == "d" and _np.isnan(typed).any()):
        return values
    return typed


def _segment_starts(counts: Sequence[int]) -> list[int]:
    return list(accumulate(counts, initial=0))


def segment_ids(counts: Sequence[int]):
    """Each row's segment number, for segments of ``counts`` rows."""
    if _np is not None:
        return _np.repeat(_np.arange(len(counts), dtype="<i8"), counts)
    return list(chain.from_iterable(repeat(i, n) for i, n in enumerate(counts)))


def segment_order(counts: Sequence[int], order: Sequence[int]):
    """Row positions that lay segments (of ``counts`` rows, back to back)
    out in the segment order ``order``, each segment's rows in place."""
    starts = _segment_starts(counts)
    if _np is not None:
        sizes = _np.asarray([counts[i] for i in order], dtype="<i8")
        firsts = _np.asarray([starts[i] for i in order], dtype="<i8")
        ends = sizes.cumsum()
        return _np.arange(int(ends[-1]) if len(ends) else 0) + (
            firsts - (ends - sizes)
        ).repeat(sizes)
    return [
        row for i in order for row in range(starts[i], starts[i] + counts[i])
    ]


def stable_order(
    keys: Sequence, descending: Sequence[bool], counts: Sequence[int] | None = None
):
    """Row positions that sort parallel ``keys`` vectors (most significant
    first, each descending where ``descending`` says so), rows equal on
    every key in input order — within each segment of ``counts`` rows when
    given, the segments staying in place.

    Typed NaN-free keys take one :func:`sort_indexes` (a segment number as
    leading key). Any other key sorts the positions of each segment as
    the algebra's reference sort (``multisort``) sorts rows: one sort on
    the key tuple when every key ascends, else one stable sort per key,
    least significant first — the same comparisons, so the same order and
    the same errors for values that do not compare.
    """
    n = len(keys[0]) if keys else 0
    if counts is None:
        counts = [n]
    arrays = [_nan_free_ndarray(vec) for vec in keys]
    if n and all(arr is not None for arr in arrays):
        if len(counts) > 1:
            return sort_indexes([segment_ids(counts), *arrays], [False, *descending])
        return sort_indexes(arrays, descending)
    columns = [to_list(vec) for vec in keys]
    if not any(descending):
        composite = columns[0] if len(columns) == 1 else list(zip(*columns))
        passes = [(composite, False)]
    else:
        passes = list(reversed(list(zip(columns, descending))))
    out: list[int] = []
    starts = _segment_starts(counts)
    for start, stop in zip(starts, starts[1:]):
        segment = list(range(start, stop))
        for column, desc in passes:
            segment.sort(key=column.__getitem__, reverse=desc)
        out.extend(segment)
    return out


def first_seen_groups(keys: Sequence):
    """``(order, counts)``: the row positions grouped by their key (a row
    of parallel ``keys`` vectors), groups in first-seen order and rows of
    one group in input order, and the rows per group — keys equal as
    :class:`KeyTable` judges them, which is as a ``dict`` does."""
    table = KeyTable()
    ids = table.ids(keys)
    order, offsets = group_rows(ids, len(table))
    offsets = to_list(offsets)
    return order, [b - a for a, b in zip(offsets, offsets[1:])]


def segment_bounds(values, counts: Sequence[int]) -> tuple[list, list, list]:
    """``(mins, maxs, null counts)``: :func:`min_max_nulls` of each segment
    of ``values`` (segments of ``counts`` rows, back to back).

    An int64 vector, or a float64 one without a NaN, takes one
    ``reduceat`` per bound; of a float segment whose bound is a zero, the
    first zero is kept, as Python's reductions keep it. Every other vector
    is reduced segment by segment through :func:`min_max_nulls`.
    """
    arr = _nan_free_ndarray(values)
    starts = _segment_starts(counts)
    if arr is None or not len(arr):
        if isinstance(values, array):
            values = values.tolist()
        bounds = [min_max_nulls(values[a:b]) for a, b in zip(starts, starts[1:])]
        return (
            [b[0] for b in bounds], [b[1] for b in bounds], [b[2] for b in bounds]
        )
    held = [(a, n) for a, n in zip(starts, counts) if n]
    cuts = [a for a, _ in held]
    lows = _np.minimum.reduceat(arr, cuts).tolist()
    highs = _np.maximum.reduceat(arr, cuts).tolist()
    if arr.dtype.kind == "f" and (0.0 in lows or 0.0 in highs):
        for k, (a, n) in enumerate(held):
            if lows[k] == 0 or highs[k] == 0:
                lows[k], highs[k], _ = min_max_nulls(arr[a : a + n])
    mins, maxs = iter(lows), iter(highs)
    return (
        [next(mins) if n else None for n in counts],
        [next(maxs) if n else None for n in counts],
        [0] * len(counts),
    )


def segment_delta(values, counts: Sequence[int]):
    """The algebra's ``∆`` of ``values`` restarting at every segment (of
    ``counts`` rows, back to back): a segment's first value as it is, then
    each value minus the one before it.

    An int64 vector whose differences all fit 64 bits, or a float64 one,
    takes one vector subtraction (the same IEEE operations); every other
    vector — and ints whose difference needs more bits — is Python's own
    ``-`` value by value, into a list.
    """
    arr = as_ndarray(values)
    starts = _segment_starts(counts)
    if arr is not None and len(arr) and arr.dtype.kind == "i":
        if arr.max().item() - arr.min().item() > _I64_MAX:
            arr = None
    if arr is None or not len(arr):
        values = to_list(values)
        out: list = []
        for a, b in zip(starts, starts[1:]):
            out.extend(values[a : min(a + 1, b)])
            out.extend(map(operator.sub, values[a + 1 : b], values[a : b - 1]))
        return out
    out = arr.copy()
    out[1:] -= arr[:-1]
    firsts = [a for a in starts[1:] if a < len(arr)]
    out[firsts] = arr[firsts]
    return out


def grid_cells(dims: Sequence, strides: Sequence[float]):
    """The ``grid`` transform over dimension vectors: ``(origin, order,
    coords, counts)`` — the minimum of each dimension, the row positions
    cell by cell, the cells' integer coordinates in row-major order and
    their row counts. A row's coordinate along a dimension is
    ``int((value - origin) // stride)``; rows of a cell stay in input
    order.

    Dimensions that are int64 vectors whose span fits 64 bits, or finite
    float64 vectors, with non-zero strides and coordinates inside int64,
    take one ``floor_divide`` (the same operation as Python's) and one
    stable ``lexsort``; anything else is the tuple evaluator's dict of
    cells, value by value.
    """
    strides = tuple(float(s) for s in strides)
    n = len(dims[0]) if dims else 0
    if not n:
        return tuple(0.0 for _ in dims), [], [], []
    arrays = [_nan_free_ndarray(d) for d in dims]
    if _np is not None and all(a is not None for a in arrays) and all(strides):
        origin, ids = [], []
        for arr, stride in zip(arrays, strides):
            low = _first_seen(arr, arr.min())
            if arr.dtype.kind == "i" and arr.max().item() - low > _I64_MAX:
                break
            # (An infinite value makes a quotient that is not finite.)
            quotient = _np.floor_divide(arr - low, stride)
            if not _np.isfinite(quotient).all() or abs(quotient).max() >= 2.0**63:
                break
            origin.append(low)
            ids.append(quotient.astype("<i8"))
        else:
            order = _np.lexsort(ids[::-1])
            grid = _np.stack([i[order] for i in ids], axis=1)
            change = _np.flatnonzero((grid[1:] != grid[:-1]).any(axis=1)) + 1
            firsts = _np.concatenate(([0], change))
            counts = _np.diff(_np.concatenate((firsts, [n]))).tolist()
            return tuple(origin), order, list(map(tuple, grid[firsts].tolist())), counts
    columns = [to_list(d) for d in dims]
    origin = tuple(min(column) for column in columns)
    cells: dict = {}
    for row, point in enumerate(zip(*columns)):
        coord = tuple(int((v - o) // s) for v, o, s in zip(point, origin, strides))
        cells.setdefault(coord, []).append(row)
    coords = sorted(cells)
    order = [row for coord in coords for row in cells[coord]]
    return origin, order, coords, [len(cells[c]) for c in coords]


def zigzag_varint_blobs(values, counts: Sequence[int]) -> list[bytes] | None:
    """The zigzag-LEB128 encoding of each segment of an int64 vector (of
    ``counts`` values, back to back), each blob a little-endian ``u32``
    value count then its varints — the inverse of
    :func:`zigzag_varints`, in one pass over all of them. ``None`` for a
    vector that is not a typed int one (the caller then encodes value by
    value)."""
    arr = as_ndarray(values)
    if arr is None or arr.dtype.kind != "i":
        return None
    signed = arr.astype("<i8", copy=False)
    zigzag = (signed << 1).view("<u8") ^ (signed >> 63).view("<u8")
    widths = _np.ones(len(zigzag), dtype="<i8")
    for k in range(1, 10):
        widths += zigzag >= _np.uint64(1 << (7 * k))
    ends = widths.cumsum()
    body = _np.empty(int(ends[-1]) if len(ends) else 0, dtype=_np.uint8)
    starts = ends - widths
    for k in range(int(widths.max()) if len(widths) else 0):
        held = _np.flatnonzero(widths > k)
        byte = (zigzag[held] >> _np.uint64(7 * k)) & _np.uint64(0x7F)
        byte |= (widths[held] > k + 1).astype("<u8") << _np.uint64(7)
        body[starts[held] + k] = byte
    data = body.tobytes()
    cuts = [0, *ends.tolist()]
    at = _segment_starts(counts)
    return [
        _U32.pack(b - a) + data[cuts[a] : cuts[b]] for a, b in zip(at, at[1:])
    ]


def pack_records(columns: Sequence, codes: str, prefix: int) -> bytes | None:
    """Null-free fixed-width records laid back to back, built straight
    from their columns: per row ``prefix`` zero flag bytes, then one
    little-endian 8-byte word per typecode in ``codes`` — the bytes
    ``struct`` packs from the rows. ``None`` unless numpy is on and every
    column is a typed vector of exactly its field's typecode (the caller
    then packs rows)."""
    if _np is None:
        return None
    words = []
    for vec, code in zip(columns, codes):
        arr = as_ndarray(vec)
        if arr is None or arr.dtype.str != _NP_DTYPES[code]:
            return None
        words.append(_np.ascontiguousarray(arr).view(_np.uint8).reshape(-1, 8))
    n = len(words[0]) if words else 0
    matrix = _np.zeros((n, prefix + 8 * len(codes)), dtype=_np.uint8)
    for j, word in enumerate(words):
        matrix[:, prefix + 8 * j : prefix + 8 * (j + 1)] = word
    return matrix.tobytes()
