"""The constructive domain ``cons_Y(T)`` (Section 2) and its size.

``cons_Y(T)`` is the set of all objects of type ``T`` whose active domain is
contained in ``Y``.  Its cardinality is the engine behind the paper's
complexity results: for a tuple type of set-height ``i`` and maximum tuple
width ``w`` over an active domain of size ``a``,
``|cons_A(T)| <= hyp(w, a, i)`` (Example 3.5 / Theorem 4.4), a hyper-
exponential bound.  The enumerator is therefore lazy and budgeted.

Enumerations are *memoized*: ``cons_Y(T)`` for one ``(T, Y)`` pair is
generated at most once per process, into a shared lazily-grown buffer that
every consumer replays (:class:`_SharedEnumeration`).  A consumer that
enumerates one domain many times — a quantifier, once per binding of the
enclosing variables — pays the hyper-exponential generation cost once, and
every later pass is a replay.  Laziness is preserved: a consumer that
short-circuits only forces the prefix it actually consumed.  Once the
enumeration has run to its end, a replay is a plain list iterator over the
buffer; a partly built one replays through a generator that extends the
buffer on demand.  The cache is keyed by content, so entries are never
stale.

**Positions.**  Each value of ``cons_Y(T)`` also has a *position*, an int,
which :class:`Positions` encodes and decodes for one atom set ``Y``:

* an atom is its index among the sorted atoms of ``Y``, looked up by
  payload, so ``Atom(True)`` finds the position of ``1`` as value equality
  does;
* a tuple is the mixed-radix number of its components' positions, the
  first coordinate most significant, each with radix ``|cons_Y(Ti)|``;
* a set is the int bitset of its elements' positions.

The positions of ``cons_Y(T)`` are exactly ``range(|cons_Y(T)|)``, and
equal values have equal positions, so an evaluator can run on positions:
``=`` is int equality, ``e ∈ c`` is ``c >> e & 1`` and ``x.i`` is
``x // stride % radix``.  :func:`position_domain` enumerates the positions
in the order :func:`iter_constructive_domain` yields the values.  They
depend only on ``|Y|``, not on which atoms ``Y`` holds.  A set-free type
enumerates as a ``range``, because the mixed-radix order is the value
order; any other type is a shared enumeration in the same cache, keyed by
the type and the atom count.  A set type's bitsets come from
:func:`subset_bitsets`, which the second-order evaluator also uses for its
candidate relations.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain, combinations

from repro.errors import ObjectModelError
from repro.objects.values import Atom, ComplexValue, SetValue, TupleValue
from repro.types.type_system import AtomicType, ComplexType, SetType, TupleType
from repro.utils.iteration import bounded


class _SharedEnumeration:
    """A lazily-materialised view of one enumeration — of values or of
    positions — shared by replaying consumers: the underlying generator is
    advanced only when a consumer runs past the common buffer."""

    __slots__ = ("_iterator", "_buffer", "_exhausted", "_error", "broken", "oversized")

    def __init__(self, iterator: Iterator) -> None:
        self._iterator = iterator
        self._buffer: list = []
        self._exhausted = False
        self._error: Exception | None = None
        #: True after a non-Exception BaseException (KeyboardInterrupt,
        #: GeneratorExit, ...) killed the underlying generator: the entry
        #: must be regenerated, not replayed.
        self.broken = False
        #: True once the buffer outgrew the cache bound: the cache drops
        #: the entry on its next probe for this key, so the buffer lives
        #: only as long as its in-flight consumers (whose consumption the
        #: callers' enumeration/binding budgets bound) instead of pinning
        #: a huge domain for the process lifetime.
        self.oversized = False

    def __iter__(self) -> Iterator:
        if self._exhausted:
            return iter(self._buffer)
        return self._replay()

    def _replay(self) -> Iterator:
        index = 0
        while True:
            if index < len(self._buffer):
                yield self._buffer[index]
                index += 1
                continue
            if self._error is not None:
                # Deterministic generation failure: regenerating would
                # raise at exactly this point too, so replay the failure
                # instead of silently truncating the domain.  The
                # traceback is reset so replays do not accumulate (and
                # pin) frames from every earlier consumer.
                raise self._error.with_traceback(None)
            if self.broken:
                # A transient interrupt killed the generator mid-stream; a
                # replacement enumeration exists in the cache — fail loudly
                # rather than pass off the prefix as the whole domain.
                raise RuntimeError(
                    "shared constructive-domain enumeration was interrupted; re-enumerate"
                )
            if self._exhausted:
                return
            try:
                value = next(self._iterator)
            except StopIteration:
                self._exhausted = True
                return
            except Exception as exc:
                self._error = exc
                raise
            except BaseException:
                self.broken = True
                raise
            self._buffer.append(value)
            if len(self._buffer) > _DOMAIN_CACHE_MAX_BUFFERED_ELEMENTS:
                self.oversized = True
            yield value
            index += 1


#: ``(type, sorted-atom-tuple) -> shared enumeration`` of ``cons_Y(T)``, and
#: ``(type, atom count) -> shared enumeration`` of its positions.
_DOMAIN_CACHE: dict[tuple[ComplexType, tuple | int], _SharedEnumeration] = {}

#: Size caps: domain buffers can be large, so the cache is cleared
#: wholesale when it would exceed these bounds — by entry count and by
#: total buffered elements (the actual byte driver) — keeping memory
#: bounded in long-running processes.  Consumers holding an evicted
#: enumeration keep working; they just stop sharing with future consumers.
#: Both caps are only checked on insertion (a cache miss), so the hit path
#: stays a single dict lookup.
_DOMAIN_CACHE_MAX_ENTRIES = 128
_DOMAIN_CACHE_MAX_BUFFERED_ELEMENTS = 500_000


def clear_constructive_domain_cache() -> None:
    """Drop all memoized enumerations (used by benchmarks between runs)."""
    _DOMAIN_CACHE.clear()


def iter_constructive_domain(
    type_: ComplexType, atoms: Sequence[object] | frozenset[object]
) -> Iterator[ComplexValue]:
    """Lazily enumerate ``cons_Y(type_)`` for ``Y = atoms``.

    The enumeration order is deterministic (sorted atoms; subsets by
    increasing size).  The caller is responsible for bounding consumption —
    the number of objects is ``hyper-exponential`` in the set-height of the
    type — typically via :func:`constructive_domain` with a budget, or by
    wrapping in :func:`repro.utils.iteration.bounded`.
    """
    return iter(_domain_view(type_, _sorted_atoms(atoms)))


def constructive_domain(
    type_: ComplexType,
    atoms: Sequence[object] | frozenset[object],
    budget: int | None = 1_000_000,
) -> list[ComplexValue]:
    """Materialise ``cons_Y(type_)``, guarded by an enumeration *budget*.

    Raises :class:`repro.errors.BudgetExceededError` if the constructive
    domain has more than *budget* elements (pass ``budget=None`` to disable
    the guard — only sensible for very small types and atom sets).
    """
    iterator = iter_constructive_domain(type_, atoms)
    return list(bounded(iterator, budget, what=f"cons({type_})"))


def position_domain(type_: ComplexType, atom_count: int) -> Iterable[int]:
    """A re-iterable enumeration of the positions of ``cons_Y(type_)`` for
    ``|Y| = atom_count``, in the order :func:`iter_constructive_domain`
    yields the values: a ``range`` for a set-free type, otherwise the
    shared memoized enumeration."""
    if _set_free(type_):
        return range(constructive_domain_size(type_, atom_count))
    return _shared((type_, atom_count), partial(_enumerate_positions, type_, atom_count))


def constructive_positions(
    type_: ComplexType, atom_count: int, budget: int | None = 1_000_000
) -> list[int]:
    """Materialise the positions of ``cons_Y(type_)`` for ``|Y| =
    atom_count``, guarded by an enumeration *budget* as
    :func:`constructive_domain` is."""
    iterator = iter(position_domain(type_, atom_count))
    return list(bounded(iterator, budget, what=f"cons({type_})"))


def subset_bitsets(positions: Sequence[int]) -> Iterator[int]:
    """Every subset of *positions* as an int bitset (bit ``p`` is position
    ``p``), by increasing size, then in ``combinations`` order — the order in
    which :func:`iter_constructive_domain` yields a set type's values.  Lazy,
    and generated at C level."""
    weights = [1 << position for position in positions]
    return chain.from_iterable(
        map(sum, combinations(weights, size)) for size in range(len(weights) + 1)
    )


class Positions:
    """The positions of the values of ``cons_Y(T)`` for one atom set ``Y``,
    for every type ``T`` (see the module docstring)."""

    __slots__ = ("atoms", "index")

    def __init__(self, atoms: Sequence[object] | frozenset[object]) -> None:
        #: The atoms of ``Y`` in enumeration order.
        self.atoms = _sorted_atoms(atoms)
        #: Payload -> position of an atom.
        self.index = {atom: position for position, atom in enumerate(self.atoms)}

    def size(self, type_: ComplexType) -> int:
        """``|cons_Y(type_)|``: the radix of a tuple component of that type."""
        return constructive_domain_size(type_, len(self.atoms))

    def stride(self, type_: TupleType, index: int) -> int:
        """The place value of coordinate *index* (from 1) in a position of
        the tuple type *type_*."""
        return _strides(type_, len(self.atoms))[index - 1]

    def encode(self, value: ComplexValue, type_: ComplexType) -> int:
        """The position of *value* in ``cons_Y(type_)``; ``KeyError`` when
        *value* holds an atom outside ``Y``."""
        if isinstance(type_, SetType):
            return self.bitset(value.elements, type_.element_type)
        if isinstance(type_, TupleType):
            position = 0
            for component, component_type in zip(value.components, type_.component_types):
                position = position * self.size(component_type) + self.encode(
                    component, component_type
                )
            return position
        return self.index[value.value]

    def bitset(self, elements: Iterable[ComplexValue], type_: ComplexType) -> int:
        """The position in ``cons_Y({type_})`` of the set of *elements*."""
        bits = 0
        for element in elements:
            bits |= 1 << self.encode(element, type_)
        return bits

    def decode(self, position: int, type_: ComplexType) -> ComplexValue:
        """The value at *position* in ``cons_Y(type_)``."""
        if isinstance(type_, SetType):
            elements = []
            element = 0
            while position:
                if position & 1:
                    elements.append(self.decode(element, type_.element_type))
                position >>= 1
                element += 1
            return SetValue(elements)
        if isinstance(type_, TupleType):
            components = []
            for component_type in reversed(type_.component_types):
                position, component = divmod(position, self.size(component_type))
                components.append(self.decode(component, component_type))
            return TupleValue(reversed(components))
        return Atom(self.atoms[position])


def constructive_domain_size(type_: ComplexType, atom_count: int) -> int:
    """Exact cardinality of ``cons_Y(T)`` when ``|Y| = atom_count``.

    Computed arithmetically (no enumeration):

    * ``|cons(U)| = atom_count``,
    * ``|cons({T})| = 2 ** |cons(T)|``,
    * ``|cons([T1,...,Tn])| = prod |cons(Ti)|``.

    The result can be astronomically large for nested set types; Python
    integers handle that, but callers should treat large values as a signal
    not to enumerate.
    """
    if atom_count < 0:
        raise ObjectModelError(f"atom_count must be non-negative, got {atom_count}")
    if isinstance(type_, AtomicType):
        return atom_count
    if isinstance(type_, SetType):
        return 2 ** constructive_domain_size(type_.element_type, atom_count)
    if isinstance(type_, TupleType):
        result = 1
        for component in type_.component_types:
            result *= constructive_domain_size(component, atom_count)
        return result
    raise ObjectModelError(f"unknown type node {type(type_).__name__}")


def _sorted_atoms(atoms: Sequence[object] | frozenset[object]) -> tuple[object, ...]:
    """The distinct *atoms* in enumeration order: by type name, then
    ``repr``.  Not memoized: equal atom sets may hold payload-equal atoms of
    different types (``{True, 0} == {0, 1}``), and each keeps its own atoms
    and their order."""
    return tuple(sorted(set(atoms), key=lambda a: (type(a).__name__, repr(a))))


def _domain_view(type_: ComplexType, atoms: tuple[object, ...]) -> _SharedEnumeration:
    """The memoized enumeration of ``cons_atoms(type_)``."""
    return _shared((type_, atoms), partial(_enumerate, type_, atoms))


def _shared(key: tuple, generate: Callable[[], Iterator]) -> _SharedEnumeration:
    """The cached enumeration under *key*, started with *generate* when
    there is none to replay."""
    shared = _DOMAIN_CACHE.get(key)
    if shared is None or shared.broken or shared.oversized:
        shared = _SharedEnumeration(generate())
        if len(_DOMAIN_CACHE) >= _DOMAIN_CACHE_MAX_ENTRIES or (
            sum(len(entry._buffer) for entry in _DOMAIN_CACHE.values())
            >= _DOMAIN_CACHE_MAX_BUFFERED_ELEMENTS
        ):
            _DOMAIN_CACHE.clear()
        _DOMAIN_CACHE[key] = shared
    return shared


def _enumerate(type_: ComplexType, atoms: tuple[object, ...]) -> Iterator[ComplexValue]:
    if isinstance(type_, AtomicType):
        # Atom() returns the canonical interned instance, so repeated
        # enumerations stop re-allocating.
        for value in atoms:
            yield Atom(value)
        return
    if isinstance(type_, TupleType):
        yield from _enumerate_tuples(type_.component_types, atoms)
        return
    if isinstance(type_, SetType):
        # Enumerate all subsets of the element domain by increasing
        # cardinality.  This is exponential in the element-domain size by
        # necessity; callers bound it.  The element domain goes through the
        # shared cache, so nested set types reuse their element
        # enumerations.
        element_domain = list(_domain_view(type_.element_type, atoms))
        yield from _enumerate_subsets(element_domain)
        return
    raise ObjectModelError(f"unknown type node {type(type_).__name__}")


def _enumerate_tuples(
    component_types: tuple[ComplexType, ...], atoms: tuple[object, ...]
) -> Iterator[TupleValue]:
    # Each component domain is a (memoized) shared view: the inner
    # components are replayed once per prefix, but generated only once.
    def recurse(index: int, prefix: list[ComplexValue]) -> Iterator[TupleValue]:
        if index == len(component_types):
            yield TupleValue(prefix)
            return
        for component in _domain_view(component_types[index], atoms):
            yield from recurse(index + 1, prefix + [component])

    yield from recurse(0, [])


def _enumerate_subsets(element_domain: list[ComplexValue]) -> Iterator[SetValue]:
    for size in range(len(element_domain) + 1):
        for combo in combinations(element_domain, size):
            yield SetValue(combo)


def _set_free(type_: ComplexType) -> bool:
    if isinstance(type_, TupleType):
        return all(map(_set_free, type_.component_types))
    return not isinstance(type_, SetType)


def _strides(type_: TupleType, atom_count: int) -> list[int]:
    strides = [1]
    for component in reversed(type_.component_types[1:]):
        strides.append(strides[-1] * constructive_domain_size(component, atom_count))
    return strides[::-1]


def _enumerate_positions(type_: ComplexType, atom_count: int) -> Iterator[int]:
    """The positions of a type with a set in it, in enumeration order."""
    if isinstance(type_, SetType):
        yield from subset_bitsets(list(position_domain(type_.element_type, atom_count)))
        return
    components = type_.component_types
    strides = _strides(type_, atom_count)

    def recurse(index: int, prefix: int) -> Iterator[int]:
        domain = position_domain(components[index], atom_count)
        if index == len(components) - 1:
            yield from map(prefix.__add__, domain)
            return
        for position in domain:
            yield from recurse(index + 1, prefix + position * strides[index])

    yield from recurse(0, 0)
