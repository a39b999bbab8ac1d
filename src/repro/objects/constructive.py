"""The constructive domain ``cons_Y(T)`` (Section 2) and its size.

``cons_Y(T)`` is the set of all objects of type ``T`` whose active domain is
contained in ``Y``.  Its cardinality is the engine behind the paper's
complexity results: for a tuple type of set-height ``i`` and maximum tuple
width ``w`` over an active domain of size ``a``,
``|cons_A(T)| <= hyp(w, a, i)`` (Example 3.5 / Theorem 4.4), a hyper-
exponential bound.  The enumerator is therefore lazy and budgeted.

Enumerations are *memoized*: ``cons_Y(T)`` for one ``(T, Y)`` pair is
generated at most once per process, into a shared lazily-grown buffer that
every consumer replays (:class:`_SharedEnumeration`).  Quantifier evaluation
in :mod:`repro.calculus.evaluation` re-enumerates the same domain once per
binding of the enclosing variables; with the shared buffer the
hyper-exponential generation cost — and the value allocations, which the
interner collapses to canonical instances — is paid once, and every later
pass is a replay.  Laziness is preserved: a consumer that short-circuits
only forces the prefix it actually consumed.  Once the enumeration has run
to its end, a replay is a plain list iterator over the buffer; a partly
built one replays through a generator that extends the buffer on demand.

:func:`constructive_domain_view` hands out the re-iterable view itself, so
a caller that enumerates one domain many times (a compiled quantifier)
resolves it once and iterates it per decision.  The cache is keyed by
content (type and atom set), so entries are never stale.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import ObjectModelError
from repro.objects.values import Atom, ComplexValue, SetValue, TupleValue
from repro.types.type_system import AtomicType, ComplexType, SetType, TupleType
from repro.utils.iteration import bounded


class _SharedEnumeration:
    """A lazily-materialised view of one enumeration, shared by replaying
    consumers: the underlying generator is advanced only when a consumer
    runs past the common buffer."""

    __slots__ = ("_iterator", "_buffer", "_exhausted", "_error", "broken", "oversized")

    def __init__(self, iterator: Iterator[ComplexValue]) -> None:
        self._iterator = iterator
        self._buffer: list[ComplexValue] = []
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

    def __iter__(self) -> Iterator[ComplexValue]:
        if self._exhausted:
            return iter(self._buffer)
        return self._replay()

    def _replay(self) -> Iterator[ComplexValue]:
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


#: ``(type, sorted-atom-tuple) -> shared enumeration`` of ``cons_Y(T)``.
_DOMAIN_CACHE: dict[tuple[ComplexType, tuple], _SharedEnumeration] = {}

#: ``frozenset(atoms) -> sorted atom tuple`` (sorting was recomputed on
#: every ``iter_constructive_domain`` call before).
_SORTED_ATOMS_CACHE: dict[frozenset, tuple] = {}

#: Size caps: domain buffers can be large, so the caches are cleared
#: wholesale when they would exceed these bounds — by entry count and by
#: total buffered elements (the actual byte driver) — keeping memory
#: bounded in long-running processes.  Consumers holding an evicted
#: enumeration keep working; they just stop sharing with future consumers.
#: Both caps are only checked on insertion (a cache miss), so the hit path
#: stays a single dict lookup.
_DOMAIN_CACHE_MAX_ENTRIES = 128
_DOMAIN_CACHE_MAX_BUFFERED_ELEMENTS = 500_000
_SORTED_ATOMS_CACHE_MAX_ENTRIES = 1024


def clear_constructive_domain_cache() -> None:
    """Drop all memoized enumerations (used by benchmarks between runs)."""
    _DOMAIN_CACHE.clear()
    _SORTED_ATOMS_CACHE.clear()


def constructive_domain_view(
    type_: ComplexType, atoms: Sequence[object] | frozenset[object]
) -> Iterable[ComplexValue]:
    """A re-iterable view of ``cons_Y(type_)`` for ``Y = atoms``.

    Each iteration yields the domain in the order of
    :func:`iter_constructive_domain`; the view is the shared memoized
    enumeration.
    """
    return _domain_view(type_, _sorted_atoms(atoms))


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
    return iter(constructive_domain_view(type_, atoms))


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
    key = atoms if isinstance(atoms, frozenset) else frozenset(atoms)
    cached = _SORTED_ATOMS_CACHE.get(key)
    if cached is None:
        cached = tuple(sorted(key, key=lambda a: (type(a).__name__, repr(a))))
        if len(_SORTED_ATOMS_CACHE) >= _SORTED_ATOMS_CACHE_MAX_ENTRIES:
            _SORTED_ATOMS_CACHE.clear()
        _SORTED_ATOMS_CACHE[key] = cached
    return cached


def _domain_view(type_: ComplexType, atoms: tuple[object, ...]) -> _SharedEnumeration:
    """The memoized enumeration of ``cons_atoms(type_)``."""
    key = (type_, atoms)
    shared = _DOMAIN_CACHE.get(key)
    if shared is None or shared.broken or shared.oversized:
        shared = _SharedEnumeration(_enumerate(type_, atoms))
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
    from itertools import combinations

    for size in range(len(element_domain) + 1):
        for combo in combinations(element_domain, size):
            yield SetValue(combo)
