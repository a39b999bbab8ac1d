"""The shared hash-join core.

One join implementation serves three layers: the physical :class:`HashJoin`
operator of the complex-object engine, the flat relational algebra
(:func:`repro.relational.algebra.join`), and Datalog rule-body evaluation
(:func:`repro.datalog.evaluation`).  Rows are arbitrary values; the caller
supplies key functions, so the core is agnostic to whether a "row" is a
Python tuple, a flattened component list of complex values, or a variable
binding.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator


def build_index(
    rows: Iterable[object], key: Callable[[object], Hashable]
) -> dict[Hashable, list[object]]:
    """Group *rows* by their key: the build side of a hash join."""
    index: dict[Hashable, list[object]] = {}
    for row in rows:
        index.setdefault(key(row), []).append(row)
    return index


def probe(
    rows: Iterable[object],
    index: dict[Hashable, list[object]],
    key: Callable[[object], Hashable],
) -> Iterator[tuple[object, object]]:
    """Probe *index* with each row, yielding ``(probe_row, build_row)`` pairs."""
    for row in rows:
        for match in index.get(key(row), ()):
            yield row, match


def build_index_with_keys(
    rows: Iterable[object], keys: Iterable[Hashable]
) -> dict[Hashable, list[object]]:
    """Build side over a precomputed key column.

    A caller holding a dictionary-encoded key column (see
    :mod:`repro.objects.columnar`) hands it in here, so the build loop
    buckets on small integers instead of re-deriving and re-hashing a key
    per row.
    """
    index: dict[Hashable, list[object]] = {}
    for key, row in zip(keys, rows):
        index.setdefault(key, []).append(row)
    return index


def probe_with_keys(
    rows: Iterable[object],
    keys: Iterable[Hashable],
    index: dict[Hashable, list[object]],
) -> Iterator[tuple[object, object]]:
    """Probe *index* with a precomputed key column (columnar counterpart of
    :func:`probe`), yielding ``(probe_row, build_row)`` pairs."""
    get = index.get
    for key, row in zip(keys, rows):
        for match in get(key, ()):
            yield row, match


class IncrementalIndex:
    """A persistent hash index over a growing row set.

    Built once, then maintained incrementally as rows arrive — the
    semi-naive Datalog loop (:mod:`repro.datalog.evaluation`) keeps one per
    ``(relation, key positions)`` pair across fixpoint rounds instead of
    rebuilding indexes from scratch every iteration.  Row hashing benefits
    from the value runtime's cached structural hashes when rows contain
    :class:`~repro.objects.values.ComplexValue` keys.
    """

    __slots__ = ("key", "buckets")

    def __init__(self, rows: Iterable[object], key: Callable[[object], Hashable]) -> None:
        self.key = key
        self.buckets: dict[Hashable, list[object]] = build_index(rows, key)

    def add(self, row: object) -> None:
        """Insert one row (the caller guarantees it is new to the index)."""
        self.buckets.setdefault(self.key(row), []).append(row)

    def remove(self, row: object) -> None:
        """Delete one row (the caller guarantees it is present).

        The deletion half of the index lifetime contract: materialized-view
        maintenance (:mod:`repro.views.maintain`) keeps a join's build and
        probe indexes alive across update batches, so deletions must shrink
        the buckets in place instead of forcing a rebuild.
        """
        key = self.key(row)
        bucket = self.buckets.get(key)
        if bucket is None:
            raise KeyError(f"row {row!r} is not in the index")
        bucket.remove(row)
        if not bucket:
            del self.buckets[key]

    def get(self, key: Hashable) -> list[object]:
        """The rows whose key equals *key* (empty list when none)."""
        return self.buckets.get(key, _NO_ROWS)

    def apply_batch(self, added: Iterable[object], removed: Iterable[object]):
        """Roll the index forward by one delta batch; returns an undo
        closure that restores it exactly.

        The caller guarantees the delta invariant (*added* rows absent,
        *removed* rows present), which makes the inverse batch exact.
        View maintenance records the returned closure in its
        :class:`~repro.reliability.staging.UndoJournal`, so a failure
        later in the same batch can rewind this index without a rebuild.
        """
        added = list(added)
        removed = list(removed)
        for row in removed:
            self.remove(row)
        for row in added:
            self.add(row)

        def undo() -> None:
            for row in added:
                self.remove(row)
            for row in removed:
                self.add(row)

        return undo


_NO_ROWS: list[object] = []


def hash_join(
    left_rows: Iterable[object],
    right_rows: Iterable[object],
    left_key: Callable[[object], Hashable],
    right_key: Callable[[object], Hashable],
    residual: Callable[[object, object], bool] | None = None,
) -> Iterator[tuple[object, object]]:
    """Equi-join two row streams on their key functions.

    Builds on the right side, probes with the left, and yields the matching
    ``(left_row, right_row)`` pairs; *residual* filters pairs that agree on
    the hash key but must satisfy further conditions.  The left stream is
    consumed lazily, so the join pipelines with upstream operators.

    Both inputs are always fully consumed, even when one is empty: the
    engine's strict-equivalence contract requires the probe side's effects
    (e.g. a powerset-budget error) to surface exactly as they would under
    naive evaluation.
    """
    index = build_index(right_rows, right_key)
    for left_row, right_row in probe(left_rows, index, left_key):
        if residual is None or residual(left_row, right_row):
            yield left_row, right_row
