"""Membership of values in the domain of a type (``dom(T)``, Section 2)."""

from __future__ import annotations

from repro.errors import ObjectModelError
from repro.objects.values import Atom, ComplexValue, SetValue, TupleValue
from repro.types.type_system import AtomicType, ComplexType, SetType, TupleType


def belongs_to(value: ComplexValue, type_: ComplexType) -> bool:
    """True iff *value* is an element of ``dom(type_)``.

    * an atom belongs to ``dom(U)``;
    * a set value belongs to ``dom({T})`` iff all its elements belong to
      ``dom(T)`` (the empty set belongs to every set type);
    * a tuple value belongs to ``dom([T1,...,Tn])`` iff it has arity ``n``
      and each coordinate belongs to the corresponding component domain.

    Verdicts for composite values are memoized in the value's ``_belongs``
    slot (membership is a pure function of structure, so the memo is never
    stale, and it dies with the value).  The memo pays off because values
    are interned: one canonical instance per structure.
    """
    if isinstance(type_, AtomicType):
        return isinstance(value, Atom)
    if isinstance(value, Atom):
        return _belongs_to_uncached(value, type_)
    try:
        per_value = value._belongs
    except AttributeError:
        per_value = {}
        try:
            object.__setattr__(value, "_belongs", per_value)
        except AttributeError:  # a ComplexValue subclass without the slot
            return _belongs_to_uncached(value, type_)
    cached = per_value.get(type_)
    if cached is None:
        cached = _belongs_to_uncached(value, type_)
        per_value[type_] = cached
    return cached


def _belongs_to_uncached(value: ComplexValue, type_: ComplexType) -> bool:
    if isinstance(type_, AtomicType):
        return isinstance(value, Atom)
    if isinstance(type_, SetType):
        if not isinstance(value, SetValue):
            return False
        return all(belongs_to(element, type_.element_type) for element in value.elements)
    if isinstance(type_, TupleType):
        if not isinstance(value, TupleValue):
            return False
        if value.arity != type_.arity:
            return False
        return all(
            belongs_to(component, component_type)
            for component, component_type in zip(value.components, type_.component_types)
        )
    raise ObjectModelError(f"unknown type node {type(type_).__name__}")


def check_belongs(value: ComplexValue, type_: ComplexType, context: str = "value") -> None:
    """Raise :class:`ObjectModelError` unless ``value in dom(type_)``."""
    if not belongs_to(value, type_):
        raise ObjectModelError(
            f"{context} {value} does not belong to dom({type_})"
        )


def infer_types(value: ComplexValue) -> ComplexType:
    """Infer the *shallowest* type a value belongs to.

    Atoms infer ``U``; tuples infer the tuple type of their component
    inferences.  Sets are the subtle case: an empty set belongs to every set
    type, so its element shape is unconstrained (it resolves to ``{U}`` when
    nothing else constrains it); a non-empty set infers the set type over
    the join of its element shapes, and raises :class:`ObjectModelError` if
    the elements have structurally incompatible shapes (such a set belongs
    to no type).
    """
    return _resolve_shape(_shape_of(value))


# Internal shape representation: ("U",), ("tuple", (shape, ...)), ("set", shape | None)
# where None marks "unconstrained" (coming from an empty set).
def _shape_of(value: ComplexValue):
    if isinstance(value, Atom):
        return ("U",)
    if isinstance(value, TupleValue):
        return ("tuple", tuple(_shape_of(component) for component in value.components))
    if isinstance(value, SetValue):
        if not value.elements:
            return ("set", None)
        shapes = [_shape_of(element) for element in value.elements]
        joined = shapes[0]
        for candidate in shapes[1:]:
            joined = _join_shapes(joined, candidate)
        return ("set", joined)
    raise ObjectModelError(f"unknown value class {type(value).__name__}")


def _join_shapes(left, right):
    if left is None:
        return right
    if right is None:
        return left
    if left == right:
        return left
    if left[0] == "set" and right[0] == "set":
        return ("set", _join_shapes(left[1], right[1]))
    if (
        left[0] == "tuple"
        and right[0] == "tuple"
        and len(left[1]) == len(right[1])
    ):
        return ("tuple", tuple(_join_shapes(a, b) for a, b in zip(left[1], right[1])))
    raise ObjectModelError(
        f"set elements have incompatible shapes: {_resolve_shape(left)} vs {_resolve_shape(right)}"
    )


def _resolve_shape(shape) -> ComplexType:
    from repro.types.type_system import U

    if shape is None or shape[0] == "U":
        return U
    if shape[0] == "set":
        return SetType(_resolve_shape(shape[1]))
    if shape[0] == "tuple":
        return TupleType([_resolve_shape(s) for s in shape[1]], strict=False)
    raise ObjectModelError(f"unknown shape tag {shape[0]!r}")
