"""Complex object values: atoms, tuples and finite sets.

Values are immutable, hashable and totally ordered (the order is an
implementation artefact used only to make enumeration deterministic; the
paper's model has no order on ``U``, and no query may observe the order).

Conversion helpers map between plain Python data (strings/ints, tuples,
frozensets) and the explicit value classes; the explicit classes exist so
that a tuple of values and a set of values can never be confused, and so
that every value knows how to render itself in the paper's notation.

Hash-consing
------------

Values are *interned*: constructing a value that is structurally equal to a
live one returns the existing canonical instance (a weak-value table keyed
by structural identity, so unused values are still garbage collected).
Canonical instances lazily cache their ``__hash__``, :meth:`sort_key`,
:meth:`atoms` and (for sets) sorted-elements results, and equality gets an
identity fast path — so the hot loops of the engine, the calculus evaluator
and the Datalog layer stop recomputing structural keys over and over.

Interning is always on and purely an optimisation: equality, hashing,
ordering and rendering are structural, so two equal values that are not
the same instance (one built before :func:`clear_intern_tables`, one
after) mix freely — equality falls back to the structural comparison
whenever identity fails.

Columnar set storage
--------------------

On top of interning, a :class:`SetValue` can be backed by a **sorted
id-array column** instead of a frozenset of element objects
(:mod:`repro.objects.columnar` holds the dictionary encoder and the bulk
kernels).  The two representations are lazily inter-convertible: a
frozenset-backed set builds its id column on first :meth:`SetValue.ids`
call, and a column-backed set (produced by the bulk kernels via
:meth:`SetValue._from_ids`) decodes its elements only when a consumer
actually asks for them.  The bulk operations :meth:`SetValue.union`,
:meth:`SetValue.intersection` and :meth:`SetValue.difference` dispatch to
the O(n) merge kernels when columnar storage is enabled and the operands
clear the size threshold; ``set_columnar(False)`` ablates the whole path,
and equality/hashing/ordering are identical either way.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator
from functools import total_ordering
from operator import methodcaller

from repro.errors import ObjectModelError
from repro.objects.columnar import (
    VALUE_DICTIONARY,
    columnar_dispatch,
    contains_id,
    difference_ids,
    intersect_ids,
    union_ids,
)

#: Sort-key extractor for ``sorted(values, key=structural_sort_key)``.
structural_sort_key = methodcaller("sort_key")


class _InterningState:
    """The process-wide intern tables.

    ``columnar_sets`` interns column-backed sets by their id-array bytes
    (ids are equality-canonical, so the byte string is a perfect structural
    key).  ``stats`` counts set-table traffic — in particular
    ``set_frozenset_allocations``, which regression tests pin so the
    ``SetValue.__new__`` hit path never silently re-normalises an input
    that is already a frozenset.

    Deliberately lock-free under threads: interning is a *cache*, not an
    identity requirement — equality and hashing are structural, so if two
    threads race the get-then-set and two canonical objects for the same
    value briefly coexist, every downstream structure (sets, dicts, the
    columnar dictionaries) still treats them as the same value.  The
    tables are weak, so the loser is simply collected.  Nothing in the
    codebase may compare complex values with ``is``; that is the enforced
    single invariant this relies on.
    """

    __slots__ = ("atoms", "tuples", "sets", "columnar_sets", "stats")

    def __init__(self) -> None:
        self.atoms: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.tuples: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.sets: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.columnar_sets: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.stats = {
            "set_hits": 0,
            "set_misses": 0,
            "set_frozenset_allocations": 0,
        }


_INTERN = _InterningState()


def interning_enabled() -> bool:
    """Always ``True``: interning has no off mode.  Kept only because
    ``perfbench/program.py`` still imports it to check its configuration."""
    return True


def clear_intern_tables() -> None:
    """Drop all intern-table entries (live values stay valid, new
    constructions re-populate the tables).  Used by benchmarks to isolate
    measurements."""
    _INTERN.atoms.clear()
    _INTERN.tuples.clear()
    _INTERN.sets.clear()
    _INTERN.columnar_sets.clear()


def intern_table_sizes() -> dict[str, int]:
    """Current number of canonical instances per table (for tests/stats)."""
    return {
        "atoms": len(_INTERN.atoms),
        "tuples": len(_INTERN.tuples),
        "sets": len(_INTERN.sets),
        "columnar_sets": len(_INTERN.columnar_sets),
    }


def intern_stats() -> dict[str, int]:
    """A snapshot of the set-interning traffic counters (tests diff them)."""
    return dict(_INTERN.stats)


def _validate_tuple_components(normalised: tuple) -> None:
    if not normalised:
        raise ObjectModelError("a tuple value requires at least one component")
    for component in normalised:
        if not isinstance(component, ComplexValue):
            raise ObjectModelError(
                f"tuple components must be ComplexValue, got {type(component).__name__}; "
                "use value_from_python() to convert plain Python data"
            )


def _validate_set_elements(normalised: frozenset) -> None:
    for element in normalised:
        if not isinstance(element, ComplexValue):
            raise ObjectModelError(
                f"set elements must be ComplexValue, got {type(element).__name__}; "
                "use value_from_python() to convert plain Python data"
            )


class ComplexValue:
    """Abstract base class of all complex-object values."""

    __slots__ = ("__weakref__",)

    def atoms(self) -> frozenset[object]:
        """The active domain of this value (set of atomic constants in it)."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """A key giving a deterministic total order across all values."""
        raise NotImplementedError

    def __lt__(self, other: object) -> bool:
        if self is other:
            return False
        if not isinstance(other, ComplexValue):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ComplexValue):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: object) -> bool:
        if self is other:
            return False
        if not isinstance(other, ComplexValue):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ComplexValue):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


@total_ordering
class Atom(ComplexValue):
    """An atomic value: an element of the universal domain ``U``.

    The payload may be any hashable Python object; strings and integers are
    typical.  Two atoms are equal iff their payloads are equal.
    """

    __slots__ = ("value", "_hash", "_sort_key")

    def __new__(cls, value: object) -> "Atom":
        if isinstance(value, ComplexValue):
            raise ObjectModelError(
                "an Atom payload must be a plain Python value, not a ComplexValue"
            )
        try:
            hash(value)
        except TypeError:
            raise ObjectModelError(
                f"an Atom payload must be hashable, got {type(value).__name__}"
            ) from None
        # The payload class is part of the key: Atom(1) == Atom(True)
        # (payload equality), but they must stay distinct instances so that
        # type-sensitive observables (sort_key, repr) are unchanged by
        # interning.  For payload classes where equal values can still
        # render differently (-0.0 vs 0.0, Decimal('1.0') vs
        # Decimal('1.00')), the repr joins the key — sort_key/repr observe
        # it; str and int never need this (equality implies identical repr
        # within the class).
        payload_class = value.__class__
        if payload_class is str or payload_class is int:
            key = (cls, payload_class, value)
        else:
            key = (cls, payload_class, value, repr(value))
        cached = _INTERN.atoms.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        _INTERN.atoms[key] = self
        return self

    def __init__(self, value: object) -> None:
        # Construction and validation happen in __new__ so that interned
        # hits skip both; nothing to (re)initialise here.
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    def atoms(self) -> frozenset[object]:
        return frozenset({self.value})

    def sort_key(self) -> tuple:
        try:
            return self._sort_key
        except AttributeError:
            key = (0, type(self.value).__name__, repr(self.value))
            object.__setattr__(self, "_sort_key", key)
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Atom) and self.value == other.value

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = hash(("atom", self.value))
            object.__setattr__(self, "_hash", result)
            return result

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Atom({self.value!r})"


class TupleValue(ComplexValue):
    """A tuple value ``[x1, ..., xn]`` over n >= 1 component values."""

    __slots__ = ("components", "_hash", "_sort_key", "_atoms", "_belongs")

    def __new__(cls, components: Iterable[ComplexValue]) -> "TupleValue":
        normalised = tuple(components)
        # Keyed by component *identity*, not equality: components are
        # themselves canonical, so identical structure means identical
        # components — while payload-equal but type-distinct values
        # (Atom(1) vs Atom(True)) must not be collapsed, because
        # sort_key/repr observe the payload type.  Component ids stay valid
        # for exactly the entry's lifetime (the interned value keeps its
        # components alive; the weak table drops the entry when the value
        # dies).  A hit needs no validation: only validated tuples are ever
        # stored, and a live non-ComplexValue can never share an id with an
        # entry's live components.
        key = (cls, tuple(map(id, normalised)))
        cached = _INTERN.tuples.get(key)
        if cached is not None:
            return cached
        _validate_tuple_components(normalised)
        self = object.__new__(cls)
        object.__setattr__(self, "components", normalised)
        _INTERN.tuples[key] = self
        return self

    def __init__(self, components: Iterable[ComplexValue]) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TupleValue is immutable")

    @property
    def arity(self) -> int:
        return len(self.components)

    def coordinate(self, index: int) -> ComplexValue:
        """The 1-based coordinate ``x.index`` (paper-style term ``x.i``)."""
        if not 1 <= index <= self.arity:
            raise ObjectModelError(
                f"coordinate {index} out of range for tuple of arity {self.arity}"
            )
        return self.components[index - 1]

    def atoms(self) -> frozenset[object]:
        try:
            return self._atoms
        except AttributeError:
            result: set[object] = set()
            for component in self.components:
                result |= component.atoms()
            frozen = frozenset(result)
            object.__setattr__(self, "_atoms", frozen)
            return frozen

    def sort_key(self) -> tuple:
        try:
            return self._sort_key
        except AttributeError:
            key = (1, len(self.components), tuple(c.sort_key() for c in self.components))
            object.__setattr__(self, "_sort_key", key)
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, TupleValue) and self.components == other.components

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = hash(("tuple", self.components))
            object.__setattr__(self, "_hash", result)
            return result

    def __iter__(self) -> Iterator[ComplexValue]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.components) + "]"

    def __repr__(self) -> str:
        return f"TupleValue({list(self.components)!r})"


class SetValue(ComplexValue):
    """A finite set value ``{x1, ..., xm}`` (possibly empty).

    A set is backed by a frozenset of element objects, by a sorted id-array
    column (see the module docstring and :mod:`repro.objects.columnar`), or
    by both — each representation is built lazily from the other on first
    demand, so the bulk kernels never pay for element objects they do not
    touch and the object path never pays for columns it does not use.
    """

    __slots__ = ("_elements", "_ids", "_hash", "_sort_key", "_atoms", "_sorted", "_belongs")

    def __new__(cls, elements: Iterable[ComplexValue] = ()) -> "SetValue":
        stats = _INTERN.stats
        # Element-*identity* key, for the same reason as TupleValue:
        # equality-keying would collapse sets whose elements are
        # payload-equal but type-distinct (Atom(1) vs Atom(True)).  Hits
        # skip validation — only validated sets are ever stored.  The key
        # needs a deduplicated view, but an input that already is a
        # frozenset (Instance.as_set_value, set operations over
        # ``.elements``) is reused as-is: the hit path then allocates
        # nothing beyond the key itself, and a miss never normalises the
        # elements twice.
        if type(elements) is frozenset:
            normalised = elements
        else:
            normalised = frozenset(elements)
            stats["set_frozenset_allocations"] += 1
        key = (cls, frozenset(map(id, normalised)))
        cached = _INTERN.sets.get(key)
        if cached is not None:
            stats["set_hits"] += 1
            return cached
        stats["set_misses"] += 1
        _validate_set_elements(normalised)
        self = object.__new__(cls)
        object.__setattr__(self, "_elements", normalised)
        _INTERN.sets[key] = self
        return self

    def __init__(self, elements: Iterable[ComplexValue] = ()) -> None:
        pass

    @classmethod
    def _from_ids(cls, ids) -> "SetValue":
        """A set backed by a sorted duplicate-free id column.

        Internal to the columnar kernels: *ids* must come from
        ``VALUE_DICTIONARY`` encodes of validated values, so no
        re-validation happens here.  Column-backed sets intern by the
        column's bytes (ids label equality classes, making the byte string
        a perfect structural key).
        """
        key = ids.tobytes()
        cached = _INTERN.columnar_sets.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "_ids", ids)
        _INTERN.columnar_sets[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SetValue is immutable")

    @property
    def elements(self) -> frozenset:
        """The element frozenset (decoded from the id column on first
        access when this set is column-backed)."""
        try:
            return self._elements
        except AttributeError:
            decoded = frozenset(VALUE_DICTIONARY.decode_all(self._ids))
            object.__setattr__(self, "_elements", decoded)
            return decoded

    def ids(self):
        """This set's sorted duplicate-free id column, built and cached on
        first use (the consumers gate on :func:`columnar_enabled` and the
        size threshold; the column itself is mode-independent).  Elements
        encode in their structural order, so sorted blocks shared between
        sets become contiguous id runs the kernels move with block copies.
        """
        try:
            return self._ids
        except AttributeError:
            ids = VALUE_DICTIONARY.encode_sorted(self._sorted_elements())
            object.__setattr__(self, "_ids", ids)
            return ids

    @property
    def cardinality(self) -> int:
        try:
            return len(self._elements)
        except AttributeError:
            return len(self._ids)

    # -- bulk set operations --------------------------------------------------
    def union(self, other: "SetValue") -> "SetValue":
        """Set union, via the sorted-id-array merge kernel when columnar
        storage is enabled and the operands clear the size threshold."""
        other = _require_set_operand(other, "union")
        if self is other:
            return self
        if _columnar_dispatch(self, other):
            return SetValue._from_ids(union_ids(self.ids(), other.ids()))
        return SetValue(self.elements | other.elements)

    def intersection(self, other: "SetValue") -> "SetValue":
        """Set intersection (columnar kernel when profitable)."""
        other = _require_set_operand(other, "intersection")
        if self is other:
            return self
        if _columnar_dispatch(self, other):
            return SetValue._from_ids(intersect_ids(self.ids(), other.ids()))
        return SetValue(self.elements & other.elements)

    def difference(self, other: "SetValue") -> "SetValue":
        """Set difference (columnar kernel when profitable)."""
        other = _require_set_operand(other, "difference")
        if _columnar_dispatch(self, other):
            return SetValue._from_ids(difference_ids(self.ids(), other.ids()))
        return SetValue(self.elements - other.elements)

    def atoms(self) -> frozenset[object]:
        try:
            return self._atoms
        except AttributeError:
            result: set[object] = set()
            for element in self.elements:
                result |= element.atoms()
            frozen = frozenset(result)
            object.__setattr__(self, "_atoms", frozen)
            return frozen

    def _sorted_elements(self) -> tuple[ComplexValue, ...]:
        try:
            return self._sorted
        except AttributeError:
            result = tuple(sorted(self.elements, key=structural_sort_key))
            object.__setattr__(self, "_sorted", result)
            return result

    def sorted_elements(self) -> list[ComplexValue]:
        """Elements in the deterministic enumeration order."""
        return list(self._sorted_elements())

    def sort_key(self) -> tuple:
        try:
            return self._sort_key
        except AttributeError:
            key = (
                2,
                len(self.elements),
                tuple(e.sort_key() for e in self._sorted_elements()),
            )
            object.__setattr__(self, "_sort_key", key)
            return key

    def contains(self, value: ComplexValue) -> bool:
        return self.__contains__(value)

    def __contains__(self, value: object) -> bool:
        try:
            elements = self._elements
        except AttributeError:
            # Column-backed: membership is a dictionary probe plus a binary
            # search, with no element materialisation.
            encoded = VALUE_DICTIONARY.id_of(value)
            return encoded is not None and contains_id(self._ids, encoded)
        return value in elements

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SetValue):
            return False
        try:
            # Ids label equality classes, so equal columns <=> equal sets
            # (both are sorted and duplicate-free) — no elements needed.
            return self._ids == other._ids
        except AttributeError:
            return self.elements == other.elements

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = hash(("set", self.elements))
            object.__setattr__(self, "_hash", result)
            return result

    def __iter__(self) -> Iterator[ComplexValue]:
        return iter(self._sorted_elements())

    def __len__(self) -> int:
        return self.cardinality

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self._sorted_elements()) + "}"

    def __repr__(self) -> str:
        return f"SetValue({self.sorted_elements()!r})"


def _require_set_operand(value: object, operation: str) -> "SetValue":
    if not isinstance(value, SetValue):
        raise ObjectModelError(
            f"SetValue.{operation} requires a SetValue operand, got {type(value).__name__}"
        )
    return value


def _columnar_dispatch(left: SetValue, right: SetValue) -> bool:
    """Whether a bulk operation on these operands should take the kernels."""
    return columnar_dispatch(len(left) + len(right))


def atom(value: object) -> Atom:
    """Construct an atomic value."""
    return Atom(value)


def make_tuple(*components: ComplexValue | object) -> TupleValue:
    """Construct a tuple value, converting plain Python components with
    :func:`value_from_python`."""
    return TupleValue([_coerce(component) for component in components])


def make_set(elements: Iterable[ComplexValue | object] = ()) -> SetValue:
    """Construct a set value, converting plain Python elements with
    :func:`value_from_python`."""
    return SetValue([_coerce(element) for element in elements])


def _coerce(value: ComplexValue | object) -> ComplexValue:
    if isinstance(value, ComplexValue):
        return value
    return value_from_python(value)


def value_from_python(data: object) -> ComplexValue:
    """Convert nested Python data into a :class:`ComplexValue`.

    * lists and tuples become :class:`TupleValue`,
    * sets and frozensets become :class:`SetValue`,
    * everything else becomes an :class:`Atom`.

    ``value_from_python(("Tom", "Mary"))`` is the object ``[Tom, Mary]`` of
    Example 2.2.
    """
    if isinstance(data, ComplexValue):
        return data
    if isinstance(data, (list, tuple)):
        return TupleValue([value_from_python(item) for item in data])
    if isinstance(data, (set, frozenset)):
        return SetValue([value_from_python(item) for item in data])
    return Atom(data)


def value_to_python(value: ComplexValue) -> object:
    """Convert a :class:`ComplexValue` back into nested Python data.

    Tuples become Python tuples, sets become frozensets of converted
    elements, atoms become their payload.
    """
    if isinstance(value, Atom):
        return value.value
    if isinstance(value, TupleValue):
        return tuple(value_to_python(component) for component in value.components)
    if isinstance(value, SetValue):
        return frozenset(value_to_python(element) for element in value.elements)
    raise ObjectModelError(f"unknown value class {type(value).__name__}")
