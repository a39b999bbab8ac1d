"""Property-based tests for the hash-consed value runtime.

The interner is purely an optimisation: values are compared by structure,
never by identity.  So for every value, ``==``, ``hash``, ``sort_key``,
``atoms``, ``str``/``repr`` and the total order must be *identical* for
two equal values that are not the same instance, and such values must mix
freely.  The sweeps below build the same random nested data twice — the
second time after :func:`clear_intern_tables`, while the first corpus is
still alive — and compare every observable pairwise.
"""

from __future__ import annotations

import random

import pytest

from repro.objects.values import (
    Atom,
    SetValue,
    TupleValue,
    clear_intern_tables,
    value_from_python,
    value_to_python,
)


def random_python_data(rng: random.Random, depth: int = 3) -> object:
    """Random nested Python data: atoms, tuples, frozensets."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(("a", "b", "v0", "v1", 0, 1, 2, True, None, 2.5))
    if rng.random() < 0.5:
        width = rng.randint(1, 3)
        return tuple(random_python_data(rng, depth - 1) for _ in range(width))
    width = rng.randint(0, 3)
    return frozenset(random_python_data(rng, depth - 1) for _ in range(width))


def build_corpus(seed: int, count: int = 25) -> list:
    rng = random.Random(seed)
    return [value_from_python(random_python_data(rng)) for _ in range(count)]


def two_generations(seed: int, count: int = 25) -> tuple[list, list]:
    """The same corpus built twice, the second time from cleared intern
    tables: each pair is equal but never the same instance."""
    first = build_corpus(seed, count)
    clear_intern_tables()
    second = build_corpus(seed, count)
    assert all(a is not b for a, b in zip(first, second))
    return first, second


@pytest.fixture
def fresh_tables():
    clear_intern_tables()
    yield
    clear_intern_tables()


class TestInterningSemantics:
    @pytest.mark.parametrize("seed", range(12))
    def test_observables_identical_across_modes(self, seed, fresh_tables):
        first, second = two_generations(seed)
        for a, b in zip(first, second):
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert a.sort_key() == b.sort_key()
            assert a.atoms() == b.atoms()
            assert str(a) == str(b)
            assert repr(a) == repr(b)
            assert value_to_python(a) == value_to_python(b)

    @pytest.mark.parametrize("seed", range(12))
    def test_total_order_identical_across_modes(self, seed, fresh_tables):
        first, second = two_generations(seed)
        for a1, b1 in zip(first, second):
            for a2, b2 in zip(first, second):
                assert (a1 < a2) == (b1 < b2)
                assert (a1 <= a2) == (b1 <= b2)
                assert (a1 > a2) == (b1 > b2)
                assert (a1 >= a2) == (b1 >= b2)
                assert (a1 == a2) == (b1 == b2)

    @pytest.mark.parametrize("seed", range(6))
    def test_modes_mix_freely(self, seed, fresh_tables):
        """A set populated with one generation behaves identically when
        probed with values from the other."""
        first, second = two_generations(seed)
        pool = set(first)
        for value in second:
            assert value in pool
        pool = set(second)
        for value in first:
            assert value in pool

    def test_sorted_order_matches_across_modes(self, fresh_tables):
        first, second = two_generations(3, count=40)
        assert [str(v) for v in sorted(first)] == [str(v) for v in sorted(second)]


class TestInterningIdentity:
    def test_equal_constructions_are_identical(self, fresh_tables):
        assert Atom("x") is Atom("x")
        assert TupleValue([Atom("x"), Atom("y")]) is TupleValue([Atom("x"), Atom("y")])
        assert SetValue([Atom("x")]) is SetValue([Atom("x")])
        assert value_from_python(("a", frozenset({"b"}))) is value_from_python(
            ("a", frozenset({"b"}))
        )

    def test_payload_type_distinguishes_interned_atoms(self, fresh_tables):
        """Atom(1) == Atom(True) (payload equality), but interning must not
        collapse them: sort_key and repr observe the payload type."""
        one, true = Atom(1), Atom(True)
        assert one == true and hash(one) == hash(true)
        assert one is not true
        assert one.sort_key() != true.sort_key()
        assert repr(one) != repr(true)

    def test_payload_repr_distinguishes_interned_atoms(self, fresh_tables):
        """Equal same-class payloads with different reprs (-0.0 vs 0.0) must
        not be collapsed either: sort_key/repr observe the payload repr."""
        positive, negative = Atom(0.0), Atom(-0.0)
        assert positive == negative and hash(positive) == hash(negative)
        assert positive is not negative
        assert positive.sort_key() != negative.sort_key()
        assert repr(positive) != repr(negative)
        clear_intern_tables()
        other_positive, other_negative = Atom(0.0), Atom(-0.0)
        assert other_positive is not positive and other_negative is not negative
        assert positive.sort_key() == other_positive.sort_key()
        assert negative.sort_key() == other_negative.sort_key()
        # Composites over them stay distinct too (identity-keyed tables).
        assert TupleValue([positive]) is not TupleValue([negative])
        assert str(SetValue([negative])) == str(SetValue([other_negative]))

    def test_tables_are_weak(self, fresh_tables):
        import gc

        from repro.objects.values import intern_table_sizes

        before = intern_table_sizes()["tuples"]
        value = TupleValue([Atom("ephemeral-payload")])
        assert intern_table_sizes()["tuples"] == before + 1
        del value
        gc.collect()
        assert intern_table_sizes()["tuples"] == before


class TestInterningValidation:
    def test_atom_rejects_complex_payload_in_both_modes(self, fresh_tables):
        from repro.errors import ObjectModelError

        with pytest.raises(ObjectModelError):
            Atom(Atom("x"))
        with pytest.raises(ObjectModelError):
            Atom(["unhashable"])
        with pytest.raises(ObjectModelError):
            TupleValue([])
        with pytest.raises(ObjectModelError):
            TupleValue(["raw"])
        with pytest.raises(ObjectModelError):
            SetValue(["raw"])


class TestSetInterningAllocationStats:
    """Regression tests for the ``SetValue.__new__`` hit path: an input
    that is already a frozenset must be reused as-is (no fresh frozenset
    per construction), pinned via the ``_INTERN`` traffic counters."""

    def test_frozenset_input_allocates_nothing_on_hits(self, fresh_tables):
        from repro.objects.values import intern_stats, make_set

        canonical = make_set(["a", "b", "c"])
        elements = canonical.elements
        before = intern_stats()
        for _ in range(10):
            assert SetValue(elements) is canonical
        after = intern_stats()
        assert after["set_hits"] == before["set_hits"] + 10
        assert after["set_misses"] == before["set_misses"]
        # The hit path normalised nothing: every call reused the caller's
        # frozenset for the identity key.
        assert (
            after["set_frozenset_allocations"] == before["set_frozenset_allocations"]
        )

    def test_iterable_input_normalises_exactly_once_per_call(self, fresh_tables):
        from repro.objects.values import intern_stats

        elements = [Atom("x"), Atom("y")]
        keep = SetValue(elements)  # miss: one normalisation + insert
        before = intern_stats()
        assert SetValue(elements) is keep  # hit (input is a list)
        after = intern_stats()
        assert after["set_hits"] == before["set_hits"] + 1
        assert (
            after["set_frozenset_allocations"]
            == before["set_frozenset_allocations"] + 1
        )

    def test_instance_as_set_value_hits_without_allocating(self, fresh_tables):
        from repro.objects.instance import Instance
        from repro.objects.values import intern_stats
        from repro.types.type_system import U

        instance = Instance(U, ["p0", "p1", "p2"])
        first = instance.as_set_value()
        before = intern_stats()
        assert instance.as_set_value() is first
        after = intern_stats()
        assert after["set_frozenset_allocations"] == before["set_frozenset_allocations"]
