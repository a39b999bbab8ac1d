"""Instances of types and database instances (Section 2).

An instance of a type ``T`` is a finite subset of ``dom(T)``; a database
instance of a schema ``D = (P1: T1, ..., Pn: Tn)`` assigns an instance of
``Ti`` to each predicate ``Pi``.  Note the paper's observation that each
instance of ``T`` is itself an object of type ``{T}``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.objects.active_domain import active_domain_of_instance
from repro.objects.columnar import ID_TYPECODE, VALUE_DICTIONARY
from repro.objects.domain import belongs_to
from repro.objects.values import ComplexValue, SetValue, structural_sort_key, value_from_python
from repro.types.schema import DatabaseSchema
from repro.types.type_system import ComplexType


class Instance:
    """A finite set of objects of a single type."""

    def __init__(self, type_: ComplexType, values: Iterable[ComplexValue | object] = ()) -> None:
        self._type = type_
        normalised: set[ComplexValue] = set()
        for value in values:
            converted = value if isinstance(value, ComplexValue) else value_from_python(value)
            if not belongs_to(converted, type_):
                raise SchemaError(
                    f"value {converted} does not belong to dom({type_}) and cannot be part of "
                    "an instance of that type"
                )
            normalised.add(converted)
        self._values = frozenset(normalised)
        self._sorted: tuple[ComplexValue, ...] | None = None
        self._ids = None
        self._coordinate_ids: dict[int, object] = {}

    @classmethod
    def _from_trusted(cls, type_: ComplexType, values: frozenset) -> "Instance":
        """An instance over already-validated canonical values.

        The read path of the mutable database / materialized-view layer
        (:mod:`repro.views`): every value was validated with ``belongs_to``
        when it first entered the system, so re-validating the whole set
        would add O(instance) checks to every read of a changed relation.
        Those callers keep a live set that each commit updates in place,
        and build a *new* object from a frozen copy of it on the first
        read after a commit, never on the commit itself — the sorted
        view, the ``ids`` column and the per-coordinate id columns are
        per-object caches, built on first use, so reconstruction is what
        invalidates them.  *values* must not be mutated afterwards.
        """
        self = cls.__new__(cls)
        self._type = type_
        self._values = values
        self._sorted = None
        self._ids = None
        self._coordinate_ids = {}
        return self

    @property
    def type(self) -> ComplexType:
        return self._type

    @property
    def values(self) -> frozenset[ComplexValue]:
        return self._values

    def ids(self):
        """The instance's sorted duplicate-free id column (see
        :mod:`repro.objects.columnar`), built once on first use — the
        engine's columnar set operators and the benchmarks consume it in
        place of per-element hashing."""
        ids = self._ids
        if ids is None:
            ids = VALUE_DICTIONARY.encode_sorted(self._sorted_values())
            self._ids = ids
        return ids

    def coordinate_ids(self, coordinate: int):
        """A row-aligned id column for one tuple coordinate, cached per
        coordinate: entry ``i`` is the dictionary id of ``coordinate`` of
        the ``i``-th value in this instance's (sorted) iteration order.
        The vectorized selection path (:mod:`repro.algebra.vectorized`)
        masks these columns directly, so steady-state scans never re-encode
        — and never decode rows the predicate rejects."""
        column = self._coordinate_ids.get(coordinate)
        if column is None:
            encode = VALUE_DICTIONARY.encode
            column = array(
                ID_TYPECODE,
                [encode(value.coordinate(coordinate)) for value in self._sorted_values()],
            )
            self._coordinate_ids[coordinate] = column
        return column

    def active_domain(self) -> frozenset[object]:
        return active_domain_of_instance(self._values)

    def as_set_value(self) -> SetValue:
        """This instance viewed as an object of type ``{T}``."""
        return SetValue(self._values)

    def _sorted_values(self) -> tuple[ComplexValue, ...]:
        # Computed once: iteration used to re-sort the frozenset on every
        # call, recomputing structural sort keys each time.
        cached = self._sorted
        if cached is None:
            cached = tuple(sorted(self._values, key=structural_sort_key))
            self._sorted = cached
        return cached

    def sorted_values(self) -> list[ComplexValue]:
        return list(self._sorted_values())

    def __contains__(self, value: object) -> bool:
        return value in self._values

    def __iter__(self) -> Iterator[ComplexValue]:
        return iter(self._sorted_values())

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self._type == other._type
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._type, self._values))

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.sorted_values()) + "}"

    def __repr__(self) -> str:
        return f"Instance({self._type}, {self.sorted_values()!r})"


class DatabaseInstance:
    """An instance of a database schema: one :class:`Instance` per predicate."""

    def __init__(
        self,
        schema: DatabaseSchema,
        assignments: Mapping[str, Instance | Iterable[ComplexValue | object]],
    ) -> None:
        self._schema = schema
        instances: dict[str, Instance] = {}
        for declaration in schema:
            if declaration.name not in assignments:
                raise SchemaError(
                    f"database instance is missing an assignment for predicate {declaration.name!r}"
                )
            assigned = assignments[declaration.name]
            if isinstance(assigned, Instance):
                if assigned.type != declaration.type:
                    raise SchemaError(
                        f"predicate {declaration.name!r} is declared with type {declaration.type} "
                        f"but the assigned instance has type {assigned.type}"
                    )
                instances[declaration.name] = assigned
            else:
                instances[declaration.name] = Instance(declaration.type, assigned)
        extra = set(assignments) - set(schema.predicate_names)
        if extra:
            raise SchemaError(
                f"assignments mention predicates not in the schema: {sorted(extra)}"
            )
        self._instances = instances

    @classmethod
    def build(cls, schema: DatabaseSchema, **assignments: Iterable[object]) -> "DatabaseInstance":
        """Convenience constructor with keyword-per-predicate syntax."""
        return cls(schema, assignments)

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def instance(self, predicate_name: str) -> Instance:
        try:
            return self._instances[predicate_name]
        except KeyError:
            raise SchemaError(
                f"predicate {predicate_name!r} is not part of this database instance"
            ) from None

    def __getitem__(self, predicate_name: str) -> Instance:
        return self.instance(predicate_name)

    def active_domain(self) -> frozenset[object]:
        """``adom(d)``: the union of the active domains of all instances."""
        result: set[object] = set()
        for instance in self._instances.values():
            result |= instance.active_domain()
        return frozenset(result)

    def total_size(self) -> int:
        """Total number of objects across all predicate instances."""
        return sum(len(instance) for instance in self._instances.values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseInstance)
            and self._schema == other._schema
            and self._instances == other._instances
        )

    def __hash__(self) -> int:
        return hash((self._schema, tuple(sorted(self._instances.items(), key=lambda kv: kv[0]))))

    def __str__(self) -> str:
        parts = [f"{name}: {instance}" for name, instance in sorted(self._instances.items())]
        return "(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:
        return f"DatabaseInstance({str(self)})"
