"""Columnar set storage: dictionary encoding and sorted-id-array kernels.

The hash-consed value runtime (see :mod:`repro.objects.values`) makes every
element of a large homogeneous set a canonical, structurally-hashed object.
This module takes the natural next step: *dictionary-encode* elements into
dense integer ids and represent a set as a **sorted, duplicate-free
``array`` of ids** — a compact column the bulk kernels below scan at
C-memcpy speed instead of re-hashing object graphs element by element.

Two process-wide dictionaries back the encoding:

* :data:`VALUE_DICTIONARY` — elements of ``SetValue``/``Instance``
  (:class:`~repro.objects.values.ComplexValue` objects);
* :data:`ROW_DICTIONARY` — flat relation rows (plain Python tuples of
  atomic payloads) for :class:`~repro.relational.relation.Relation`.

Both are **equality-keyed and append-only**: the first time a value is
seen it is assigned the next id, and structurally equal values map to the
same id for the lifetime of the process, whether or not they are the same
instance (so id-array equality is *equivalent* to set equality).  The
tables hold strong references — ids must stay decodable while any column
referencing them is alive; this is the same trade a database dictionary
page makes.

The kernels (:func:`union_ids`, :func:`intersect_ids`,
:func:`difference_ids`, :func:`contains_id`, :func:`sorted_unique_ids`)
work on sorted duplicate-free ``array("I")`` columns.  A second family of
kernels (:func:`mask_eq_columns`, :func:`mask_eq_target`, :func:`mask_and`,
:func:`mask_or`, :func:`mask_not`) backs the vectorized selection
predicates (:mod:`repro.algebra.vectorized`): they build and combine
**row-aligned boolean masks** (``bytearray`` of 0/1 flags, one byte per
row) over *unsorted* per-coordinate id columns.  Equality against a
constant scans the column with C-speed ``array.index``; boolean
combination round-trips the byte masks through arbitrary-precision
integers, so and/or/not run as single bulk bitwise operations instead of
per-row Python.  The merge kernels
*gallop*: instead of advancing one element at a time they locate the end
of each copyable run with :func:`bisect.bisect_left` and move whole runs
with array slicing (C ``memcpy``).  Dictionary ids are assigned in
construction order, so real workloads produce long runs and the merges
degenerate to a handful of binary searches plus block copies.

The representation is an optimisation, not a semantic change, and one
size threshold alone selects it: every consumer (set/relation bulk
operations, the engine's set operators over scans, the masked selections
over stored columns of :mod:`repro.algebra.vectorized`, the ``io``
columnar format) asks :func:`columnar_dispatch`, which takes the columns
only for inputs of at least :func:`columnar_threshold` elements — below
that the object path's constant factors win, so the object path is the
runtime fallback every small container takes.  Tests reach either path
through the threshold: 1 forces the kernels on for tiny inputs and
``sys.maxsize`` turns them off, and ``tests/test_columnar.py`` pins equal
answers at both.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from operator import eq

#: Array typecode for id columns (unsigned, 4 bytes on every supported
#: platform; constructing more than 2**32 distinct values would raise
#: ``OverflowError`` rather than silently truncate).
ID_TYPECODE = "I"


class _ColumnarState:
    """The process-wide columnar size threshold and kernel counters."""

    __slots__ = ("threshold", "stats")

    def __init__(self) -> None:
        self.threshold = 32
        self.stats = {
            "kernel_union": 0,
            "kernel_intersection": 0,
            "kernel_difference": 0,
            "kernel_membership": 0,
            "kernel_mask_eq": 0,
            "kernel_mask_combine": 0,
            "engine_set_ops": 0,
            "columns_built": 0,
        }


_COLUMNAR = _ColumnarState()


def columnar_enabled() -> bool:
    """Always ``True``: columnar storage has no switch, the size threshold
    selects it.  Kept only because ``perfbench/program.py`` still imports
    it to check its configuration."""
    return True


def columnar_threshold() -> int:
    """Minimum combined element count before consumers build/use columns."""
    return _COLUMNAR.threshold


def set_columnar_threshold(threshold: int) -> int:
    """Set the dispatch threshold; returns the previous one (tests use 1
    so kernels engage on tiny random workloads)."""
    previous = _COLUMNAR.threshold
    _COLUMNAR.threshold = int(threshold)
    return previous


@contextmanager
def columnar_settings(threshold: int):
    """Temporarily override the dispatch threshold (1 forces the kernels
    on for tiny inputs, ``sys.maxsize`` turns them off)."""
    previous = set_columnar_threshold(threshold)
    try:
        yield
    finally:
        set_columnar_threshold(previous)


def columnar_dispatch(total_size: int) -> bool:
    """The one dispatch policy every consumer applies: the combined
    operand size clears the threshold."""
    return total_size >= _COLUMNAR.threshold


def columnar_stats() -> dict[str, int]:
    """A snapshot of the kernel/dispatch counters (tests assert deltas)."""
    return dict(_COLUMNAR.stats)


def _count(counter: str, amount: int = 1) -> None:
    _COLUMNAR.stats[counter] += amount


# -- dictionary encoding ---------------------------------------------------------

class ValueDictionary:
    """A bijective, append-only encoder from hashable values to dense ids.

    Equality-keyed on purpose: the id is an equivalence-class label, so an
    id column determines its set of values up to equality — exactly the
    invariant the kernels' "equal arrays iff equal sets" fast paths need.

    Thread-safe on the assignment path: the serving layer reads from
    concurrent tasks/threads while a writer encodes new values, and an
    unsynchronized get→assign→append could hand the *same* id to two
    different values (decoding one as the other — silent corruption).
    The hit path stays lock-free: a present entry is immutable, and dict
    reads are atomic under the GIL.
    """

    __slots__ = ("_ids", "_values", "_lock")

    def __init__(self) -> None:
        self._ids: dict[object, int] = {}
        self._values: list[object] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: object) -> int:
        """The id of *value*, assigning the next dense id on first sight."""
        ids = self._ids
        assigned = ids.get(value)
        if assigned is None:
            with self._lock:
                # Double-checked: another thread may have assigned it
                # between the lock-free miss and acquiring the lock.
                assigned = ids.get(value)
                if assigned is None:
                    assigned = len(self._values)
                    self._values.append(value)
                    ids[value] = assigned
        return assigned

    def id_of(self, value: object) -> int | None:
        """The id of *value* if it has ever been encoded, else ``None``."""
        return self._ids.get(value)

    def decode(self, id_: int) -> object:
        """The canonical representative of id *id_*."""
        return self._values[id_]

    def decode_all(self, ids) -> list[object]:
        """Decode a whole id column into its representative values."""
        values = self._values
        return [values[i] for i in ids]

    def encode_sorted(self, values) -> array:
        """Encode already-distinct *values* into a sorted id column.

        Callers pass *values* in their deterministic (structural) order:
        ids are assigned first-seen, so the first container to encode a
        range of values lays them out as one contiguous ascending run, and
        later containers sharing a sorted block of it inherit the run —
        the structure the kernels' run-galloping turns into block copies.
        """
        _count("columns_built")
        return array(ID_TYPECODE, sorted(map(self.encode, values)))


#: Dictionary for complex-object set/instance elements.
VALUE_DICTIONARY = ValueDictionary()

#: Dictionary for flat relation rows (plain tuples).
ROW_DICTIONARY = ValueDictionary()


# -- sorted-id-array kernels -----------------------------------------------------

def sorted_unique_ids(ids) -> array:
    """Duplicate-free merge of an arbitrary iterable of ids into a sorted
    column (the construction kernel for columns built from raw streams)."""
    return array(ID_TYPECODE, sorted(set(ids)))


def _shared_run_length(a: array, i: int, b: array, j: int, la: int, lb: int) -> int:
    """The length of the shared *contiguous* run starting at ``a[i] == b[j]``.

    Both columns are strictly increasing, so ``a[i + d] == a[i] + d``
    forces ``a[i:i + d + 1]`` to be exactly the consecutive ids
    ``a[i] .. a[i] + d`` (d + 1 strictly increasing integers spanning a
    range of d + 1) — and likewise for ``b``.  The predicate is monotone
    (once an array skips an id it stays ahead), so an exponential-doubling
    probe plus a binary search finds the longest d with a handful of
    element reads, and the caller moves the whole run with one slice copy
    instead of one loop iteration per element.
    """
    x = a[i]
    limit = min(la - i, lb - j) - 1
    if limit <= 0 or a[i + 1] != x + 1 or b[j + 1] != x + 1:
        return 1
    step = 1
    while step < limit:
        probe = min(step << 1, limit)
        if a[i + probe] == x + probe and b[j + probe] == x + probe:
            step = probe
        else:
            break
    low, high = step, min(step << 1, limit)
    while low < high:
        mid = (low + high + 1) >> 1
        if a[i + mid] == x + mid and b[j + mid] == x + mid:
            low = mid
        else:
            high = mid - 1
    return low + 1


def union_ids(a: array, b: array) -> array:
    """Union of two sorted duplicate-free id columns (duplicate-free merge)."""
    _count("kernel_union")
    if not len(a):
        return array(ID_TYPECODE, b)
    if not len(b):
        return array(ID_TYPECODE, a)
    # Disjoint-range fast paths: one concatenation, no per-element work.
    if a[-1] < b[0]:
        return a + b
    if b[-1] < a[0]:
        return b + a
    out = array(ID_TYPECODE)
    i, j, la, lb = 0, 0, len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            run = _shared_run_length(a, i, b, j, la, lb)
            out += a[i:i + run]
            i += run
            j += run
        elif x < y:
            # Copy the whole run of a strictly below y in one block.
            k = bisect_left(a, y, i, la)
            out += a[i:k]
            i = k
        else:
            k = bisect_left(b, x, j, lb)
            out += b[j:k]
            j = k
    if i < la:
        out += a[i:la]
    if j < lb:
        out += b[j:lb]
    return out


def intersect_ids(a: array, b: array) -> array:
    """Intersection of two sorted duplicate-free id columns."""
    _count("kernel_intersection")
    out = array(ID_TYPECODE)
    la, lb = len(a), len(b)
    if not la or not lb or a[-1] < b[0] or b[-1] < a[0]:
        return out
    i = j = 0
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            run = _shared_run_length(a, i, b, j, la, lb)
            out += a[i:i + run]
            i += run
            j += run
        elif x < y:
            i = bisect_left(a, y, i + 1, la)
        else:
            j = bisect_left(b, x, j + 1, lb)
    return out


def difference_ids(a: array, b: array) -> array:
    """Difference ``a - b`` of two sorted duplicate-free id columns."""
    _count("kernel_difference")
    la, lb = len(a), len(b)
    if not la:
        return array(ID_TYPECODE)
    if not lb or a[-1] < b[0] or b[-1] < a[0]:
        return array(ID_TYPECODE, a)
    out = array(ID_TYPECODE)
    i = j = 0
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            run = _shared_run_length(a, i, b, j, la, lb)
            i += run
            j += run
        elif x < y:
            k = bisect_left(a, y, i, la)
            out += a[i:k]
            i = k
        else:
            j = bisect_left(b, x, j + 1, lb)
    if i < la:
        out += a[i:la]
    return out


def contains_id(ids: array, id_: int) -> bool:
    """Membership of one id in a sorted duplicate-free column (binary search)."""
    _count("kernel_membership")
    position = bisect_left(ids, id_)
    return position < len(ids) and ids[position] == id_


# -- row-aligned boolean-mask kernels ---------------------------------------------
#
# Unlike the sorted-set kernels above, these operate on *row-order*
# per-coordinate id columns (one id per row, duplicates allowed) and
# produce masks: ``bytearray`` bitsets with one 0/1 byte per row.  The
# vectorized selection compiler (:mod:`repro.algebra.vectorized`) builds
# one mask per atomic condition and combines them here.

def mask_eq_columns(a, b) -> bytearray:
    """Row-aligned equality mask of two id columns: ``out[i] = a[i] == b[i]``.

    Ids label equality classes, so id equality is value equality; the per-row
    work is one C-level integer comparison via ``map``.
    """
    _count("kernel_mask_eq")
    return bytearray(map(eq, a, b))


def mask_eq_target(column: array, target: int) -> bytearray:
    """Equality-against-one-id mask: ``out[i] = column[i] == target``.

    Scans with ``array.index`` (a C loop) from hit to hit, so the Python-level
    work is one iteration per *matching* row, not per row — the selective
    predicates that dominate scan workloads touch almost nothing.
    """
    _count("kernel_mask_eq")
    mask = bytearray(len(column))
    find = column.index
    position = 0
    try:
        while True:
            position = find(target, position)
            mask[position] = 1
            position += 1
    except ValueError:
        return mask


def mask_fill(count: int, flag: bool) -> bytearray:
    """A constant all-``flag`` mask over *count* rows."""
    return bytearray(b"\x01" * count) if flag else bytearray(count)


def _mask_to_int(mask: bytearray) -> int:
    return int.from_bytes(mask, "little")


def mask_and(a: bytearray, b: bytearray) -> bytearray:
    """Bulk conjunction of two row-aligned 0/1 masks.

    The byte masks round-trip through arbitrary-precision integers, so the
    combine is three O(n) C operations with no per-row Python.
    """
    _count("kernel_mask_combine")
    return bytearray((_mask_to_int(a) & _mask_to_int(b)).to_bytes(len(a), "little"))


def mask_or(a: bytearray, b: bytearray) -> bytearray:
    """Bulk disjunction of two row-aligned 0/1 masks."""
    _count("kernel_mask_combine")
    return bytearray((_mask_to_int(a) | _mask_to_int(b)).to_bytes(len(a), "little"))


def mask_not(a: bytearray) -> bytearray:
    """Bulk negation of a row-aligned 0/1 mask (XOR against all-ones)."""
    _count("kernel_mask_combine")
    ones = _mask_to_int(b"\x01" * len(a))
    return bytearray((_mask_to_int(a) ^ ones).to_bytes(len(a), "little"))
