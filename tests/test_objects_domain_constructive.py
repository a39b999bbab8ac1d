"""Tests for dom(T) membership, active domains, and constructive domains."""

import pytest

from repro.errors import BudgetExceededError, ObjectModelError
from repro.objects.active_domain import active_domain, active_domain_of_instance
from repro.objects import constructive
from repro.objects.constructive import (
    Positions,
    clear_constructive_domain_cache,
    constructive_domain,
    constructive_domain_size,
    constructive_positions,
    iter_constructive_domain,
    position_domain,
)
from repro.objects.domain import belongs_to, check_belongs, infer_types
from repro.objects.values import Atom, make_set, make_tuple, value_from_python
from repro.types.parser import parse_type
from repro.types.type_system import SetType, TupleType, U


class TestBelongsTo:
    def test_atom_in_u(self):
        assert belongs_to(value_from_python("a"), U)
        assert not belongs_to(make_tuple("a"), U)

    def test_tuple_typing(self):
        pair = parse_type("[U, U]")
        assert belongs_to(make_tuple("a", "b"), pair)
        assert not belongs_to(make_tuple("a"), pair)
        assert not belongs_to(make_set(["a"]), pair)

    def test_set_typing(self):
        set_of_pairs = parse_type("{[U, U]}")
        assert belongs_to(make_set([("a", "b"), ("c", "d")]), set_of_pairs)
        assert not belongs_to(make_set(["a"]), set_of_pairs)

    def test_empty_set_belongs_to_every_set_type(self):
        assert belongs_to(make_set(), parse_type("{U}"))
        assert belongs_to(make_set(), parse_type("{{[U, U]}}"))

    def test_example_2_2(self):
        """An instance of T1 = [U,U] is an object of T2 = {[U,U]}."""
        instance_value = make_set([("Tom", "Mary"), ("Mary", "Sue")])
        assert belongs_to(instance_value, parse_type("{[U, U]}"))

    def test_check_belongs_raises(self):
        with pytest.raises(ObjectModelError):
            check_belongs(make_tuple("a"), U)

    def test_nested_mixed(self):
        t = parse_type("[{[U, U]}, U]")
        good = value_from_python((frozenset({("a", "b")}), "c"))
        bad = value_from_python((frozenset({"a"}), "c"))
        assert belongs_to(good, t)
        assert not belongs_to(bad, t)


class TestInferTypes:
    def test_atom(self):
        assert infer_types(value_from_python("a")) == U

    def test_pair(self):
        assert infer_types(make_tuple("a", "b")) == TupleType([U, U])

    def test_set_of_pairs(self):
        assert infer_types(make_set([("a", "b")])) == SetType(TupleType([U, U]))

    def test_empty_set_infers_set_of_u(self):
        assert infer_types(make_set()) == SetType(U)

    def test_incompatible_set_elements_raise(self):
        mixed = make_set([("a", "b"), "c"])
        with pytest.raises(ObjectModelError):
            infer_types(mixed)


class TestActiveDomain:
    def test_single_value(self):
        assert active_domain(make_tuple("a", "b")) == frozenset({"a", "b"})

    def test_multiple_values(self):
        assert active_domain(make_tuple("a", "b"), make_set(["c"])) == frozenset({"a", "b", "c"})

    def test_instance_active_domain(self):
        values = [make_tuple("a", "b"), make_tuple("b", "c")]
        assert active_domain_of_instance(values) == frozenset({"a", "b", "c"})


class TestConstructiveDomain:
    def test_atomic_size(self):
        assert constructive_domain_size(U, 3) == 3
        assert len(constructive_domain(U, ["a", "b", "c"])) == 3

    def test_pair_size(self):
        pair = parse_type("[U, U]")
        assert constructive_domain_size(pair, 3) == 9
        assert len(constructive_domain(pair, ["a", "b", "c"])) == 9

    def test_set_of_u_size(self):
        set_u = parse_type("{U}")
        assert constructive_domain_size(set_u, 3) == 8
        assert len(constructive_domain(set_u, ["a", "b", "c"])) == 8

    def test_set_of_pairs_size(self):
        t = parse_type("{[U, U]}")
        assert constructive_domain_size(t, 2) == 2**4
        assert len(constructive_domain(t, ["a", "b"])) == 16

    def test_height_two_size(self):
        t = parse_type("{{U}}")
        assert constructive_domain_size(t, 2) == 2 ** (2**2)

    def test_enumeration_matches_size_counts(self):
        t = parse_type("[{U}, U]")
        atoms = ["a", "b"]
        assert len(constructive_domain(t, atoms)) == constructive_domain_size(t, 2)

    def test_every_enumerated_object_belongs(self):
        t = parse_type("{[U, U]}")
        for value in constructive_domain(t, ["a", "b"]):
            assert belongs_to(value, t)

    def test_enumeration_is_deterministic(self):
        t = parse_type("{U}")
        first = [str(v) for v in iter_constructive_domain(t, ["b", "a"])]
        second = [str(v) for v in iter_constructive_domain(t, ["a", "b"])]
        assert first == second

    def test_budget_guard(self):
        t = parse_type("{[U, U]}")
        with pytest.raises(BudgetExceededError):
            constructive_domain(t, ["a", "b", "c"], budget=10)

    def test_zero_atoms(self):
        assert constructive_domain(U, []) == []
        # The empty set is still constructible over no atoms.
        assert len(constructive_domain(parse_type("{U}"), [])) == 1

    def test_negative_atom_count_rejected(self):
        with pytest.raises(ObjectModelError):
            constructive_domain_size(U, -1)


POSITION_TYPES = ["U", "[U, U]", "{U}", "{[U, U]}", "[U, {U}]", "{{U}}", "[{U}, U]"]


class TestPositions:
    """Positions in ``cons_Y(T)``: the enumeration of positions mirrors the
    enumeration of values, and encoding and decoding are inverse."""

    @pytest.mark.parametrize("text", POSITION_TYPES)
    @pytest.mark.parametrize("atom_count", [0, 1, 2, 3])
    def test_decoding_the_positions_gives_the_value_enumeration(self, text, atom_count):
        type_ = parse_type(text)
        atoms = ["b", 1, "a"][:atom_count]
        positions = Positions(atoms)
        values = list(iter_constructive_domain(type_, atoms))
        enumerated = list(position_domain(type_, atom_count))
        assert [positions.decode(position, type_) for position in enumerated] == values
        assert [positions.encode(value, type_) for value in values] == enumerated
        assert sorted(enumerated) == list(range(constructive_domain_size(type_, atom_count)))

    def test_an_atom_is_found_by_payload(self):
        positions = Positions([1, "a"])
        assert positions.encode(Atom(True), U) == positions.encode(Atom(1), U) == 0
        set_of_atoms = parse_type("{U}")
        assert positions.decode(positions.encode(make_set([True]), set_of_atoms), set_of_atoms) == (
            make_set([1])
        )

    def test_tuples_are_mixed_radix_and_sets_are_bitsets(self):
        positions = Positions(["a", "b", "c"])
        assert positions.encode(make_tuple("b", "c"), parse_type("[U, U]")) == 1 * 3 + 2
        assert positions.encode(make_set(["a", "c"]), parse_type("{U}")) == 0b101
        mixed = parse_type("[U, {U}]")
        assert (positions.stride(mixed, 1), positions.stride(mixed, 2)) == (8, 1)
        assert positions.encode(make_tuple("c", frozenset({"b"})), mixed) == 2 * 8 + 0b010

    def test_set_free_types_enumerate_as_ranges(self):
        assert position_domain(parse_type("[U, U]"), 3) == range(9)
        assert position_domain(U, 0) == range(0)

    def test_a_partly_consumed_set_domain_has_generated_only_its_prefix(self, monkeypatch):
        type_ = parse_type("{[U, U]}")
        generated = []
        enumerate_ = constructive._enumerate_positions

        def counting(enumerated_type, atom_count):
            for position in enumerate_(enumerated_type, atom_count):
                if enumerated_type == type_:
                    generated.append(position)
                yield position

        monkeypatch.setattr(constructive, "_enumerate_positions", counting)
        clear_constructive_domain_cache()
        view = position_domain(type_, 2)
        first, second = iter(view), iter(view)
        pulled = [next(first) for _ in range(3)] + [next(second) for _ in range(5)]
        assert pulled[:3] == pulled[3:6] == generated[:3]
        assert generated == [0, 1, 2, 4, 8]
        assert list(view) == [0, 1, 2, 4, 8, 3, 5, 9, 6, 10, 12, 7, 11, 13, 14, 15] == generated
        assert position_domain(type_, 2) is view

    def test_materialised_positions_keep_the_domain_budget_message(self):
        message = r"cons\(\{\[U, U\]\}\) exceeded budget of 10"
        with pytest.raises(BudgetExceededError, match=message):
            constructive_positions(parse_type("{[U, U]}"), 3, budget=10)
        assert constructive_positions(parse_type("{U}"), 2) == [0, 1, 2, 3]
