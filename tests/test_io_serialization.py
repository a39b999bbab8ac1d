"""Tests for JSON serialisation (repro.io)."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculus.builders import PARENT_SCHEMA
from repro.io import (
    SerializationError,
    database_from_data,
    database_to_data,
    dumps,
    instance_from_data,
    instance_to_data,
    loads,
    schema_from_data,
    schema_to_data,
    type_from_data,
    type_to_data,
    value_from_data,
    value_to_data,
)
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import value_from_python
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.types.type_system import SetType, TupleType, U


class TestTypeSerialization:
    @pytest.mark.parametrize("text", ["U", "[U, U]", "{[U, U]}", "{{[U, U]}}", "[{U}, U]"])
    def test_round_trip(self, text):
        type_ = parse_type(text)
        assert type_from_data(type_to_data(type_)) == type_

    def test_type_to_data_rejects_non_types(self):
        with pytest.raises(SerializationError):
            type_to_data("[U, U]")  # already a string, not a ComplexType

    def test_type_from_data_rejects_non_strings(self):
        with pytest.raises(SerializationError):
            type_from_data(42)


class TestValueSerialization:
    @pytest.mark.parametrize(
        "python_value",
        [
            "tom",
            42,
            ("tom", "mary"),
            frozenset({"a", "b"}),
            (frozenset({("a", "b"), ("b", "c")}), "x"),
            frozenset({frozenset({("a", "a")}), frozenset()}),
        ],
    )
    def test_round_trip(self, python_value):
        value = value_from_python(python_value)
        assert value_from_data(value_to_data(value)) == value

    def test_atom_with_unserialisable_payload_rejected(self):
        value = value_from_python((1, 2))
        bad = value_from_python(object()) if False else None
        with pytest.raises(SerializationError):
            value_to_data(value_from_python(frozenset({(object(),)})))
        assert bad is None and value is not None

    def test_missing_kind_rejected(self):
        with pytest.raises(SerializationError):
            value_from_data({"value": "x"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            value_from_data({"kind": "bag", "items": []})

    def test_empty_tuple_rejected(self):
        with pytest.raises(SerializationError):
            value_from_data({"kind": "tuple", "items": []})

    def test_empty_set_round_trips(self):
        value = value_from_python(frozenset())
        assert value_from_data(value_to_data(value)) == value


class TestSchemaAndDatabaseSerialization:
    def test_schema_round_trip(self):
        schema = DatabaseSchema([("PAR", TupleType([U, U])), ("GROUPS", SetType(U))])
        assert schema_from_data(schema_to_data(schema)) == schema

    def test_schema_order_is_preserved(self):
        schema = DatabaseSchema([("B", U), ("A", U)])
        assert schema_from_data(schema_to_data(schema)).predicate_names == ("B", "A")

    def test_schema_entry_validation(self):
        with pytest.raises(SerializationError):
            schema_from_data([{"name": "P"}])

    def test_instance_round_trip(self):
        instance = Instance(TupleType([U, U]), [("a", "b"), ("b", "c")])
        assert instance_from_data(instance_to_data(instance)) == instance

    def test_database_round_trip(self):
        database = DatabaseInstance.build(
            PARENT_SCHEMA, PAR=[("tom", "mary"), ("mary", "sue")]
        )
        assert database_from_data(database_to_data(database)) == database

    def test_database_missing_predicate_rejected(self):
        database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b")])
        data = database_to_data(database)
        del data["instances"]["PAR"]
        with pytest.raises(SerializationError):
            database_from_data(data)


class TestJsonWrappers:
    def test_dumps_loads_value(self):
        value = value_from_python((frozenset({"a"}), "b"))
        assert loads(dumps(value)) == value

    def test_dumps_loads_type(self):
        type_ = parse_type("{[U, U]}")
        assert loads(dumps(type_)) == type_

    def test_dumps_loads_schema(self):
        assert loads(dumps(PARENT_SCHEMA)) == PARENT_SCHEMA

    def test_dumps_loads_database(self):
        database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b")])
        assert loads(dumps(database)) == database

    def test_dumps_loads_instance(self):
        instance = Instance(U, ["a", "b"])
        assert loads(dumps(instance)) == instance

    def test_dumps_is_deterministic(self):
        database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b"), ("b", "c")])
        assert dumps(database) == dumps(database)

    def test_dumps_rejects_unknown_objects(self):
        with pytest.raises(SerializationError):
            dumps(42)  # type: ignore[arg-type]

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{not json")

    def test_loads_rejects_unknown_payload(self):
        with pytest.raises(SerializationError):
            loads('{"what": "mystery", "data": 1}')


_types = st.recursive(
    st.just(U),
    lambda children: st.one_of(
        children.map(SetType),
        st.lists(
            children.filter(lambda t: not isinstance(t, TupleType)), min_size=1, max_size=3
        ).map(TupleType),
    ),
    max_leaves=4,
)


def _values_of(type_):
    if isinstance(type_, TupleType):
        return st.tuples(*[_values_of(c) for c in type_.component_types]).map(value_from_python)
    if isinstance(type_, SetType):
        return st.frozensets(_values_of(type_.element_type), max_size=3).map(
            lambda s: value_from_python(frozenset(s))
        )
    return st.sampled_from(["a", "b", 1, 2]).map(value_from_python)


class TestPropertySerializationRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_value_round_trip(self, data):
        type_ = data.draw(_types)
        value = data.draw(_values_of(type_))
        assert value_from_data(value_to_data(value)) == value
        assert loads(dumps(value)) == value

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_type_round_trip(self, data):
        type_ = data.draw(_types)
        assert type_from_data(type_to_data(type_)) == type_


class TestColumnarSerialization:
    """Round trips of the dictionary-encoded columnar instance format,
    cross-read against the element-by-element tree format."""

    def _flat_instance(self):
        rows = [("a", i) for i in range(6)] + [("b", i) for i in range(4)]
        # A payload-type collision on purpose: 1 (int), "1" (str) and True
        # (bool, payload-equal to 1) must stay distinct dictionary entries.
        rows += [(1, "1"), (True, "x")]
        return Instance(parse_type("[U, U]"), [value_from_python(row) for row in rows])

    def test_columnar_round_trip_flat_tuples(self):
        instance = self._flat_instance()
        data = instance_to_data(instance, columnar=True)
        assert "columnar" in data and "values" not in data
        assert instance_from_data(data) == instance

    def test_columnar_round_trip_atomic_instance(self):
        instance = Instance(parse_type("U"), [f"p{i}" for i in range(8)])
        data = instance_to_data(instance, columnar=True)
        assert data["columnar"]["arity"] == 0
        assert instance_from_data(data) == instance

    def test_columnar_written_equals_tree_written(self):
        """Columnar-written -> read and tree-written -> read meet in the
        middle: equal instances, equal canonical values."""
        instance = self._flat_instance()
        from_columnar = instance_from_data(instance_to_data(instance, columnar=True))
        from_tree = instance_from_data(instance_to_data(instance, columnar=False))
        assert from_columnar == from_tree == instance
        assert from_columnar.values == from_tree.values

    def test_tree_reader_still_reads_object_written_data(self):
        instance = self._flat_instance()
        data = instance_to_data(instance, columnar=False)
        assert "values" in data and "columnar" not in data
        assert instance_from_data(data) == instance

    def test_columnar_dictionaries_deduplicate(self):
        instance = self._flat_instance()
        data = instance_to_data(instance, columnar=True)
        first_dictionary = data["columnar"]["dictionaries"][0]
        assert len(first_dictionary) == len(set(map(repr, first_dictionary)))
        assert len(first_dictionary) < len(instance)

    def test_nested_types_fall_back_to_the_tree_format(self):
        instance = Instance(
            parse_type("{U}"), [value_from_python(frozenset({"a"}))]
        )
        data = instance_to_data(instance, columnar=True)
        assert "values" in data and "columnar" not in data
        assert instance_from_data(data) == instance

    def test_automatic_selection_follows_the_columnar_switch(self):
        from repro.objects.columnar import columnar_settings

        instance = self._flat_instance()
        with columnar_settings(threshold=1):
            assert "columnar" in instance_to_data(instance)
        with columnar_settings(threshold=10_000):
            assert "values" in instance_to_data(instance)

    def test_database_round_trip_through_json_with_columnar_instances(self):
        from repro.objects.columnar import columnar_settings

        database = DatabaseInstance.build(
            PARENT_SCHEMA, PAR=[(f"v{i}", f"v{i+1}") for i in range(12)]
        )
        with columnar_settings(threshold=1):
            text = dumps(database)
            assert '"columnar"' in text
            assert loads(text) == database
        # A columnar-written database reads back identically with the
        # threshold out of reach (the reader is format-driven, not
        # threshold-driven).
        with columnar_settings(threshold=sys.maxsize):
            assert loads(text) == database

    def test_malformed_columnar_data_is_rejected(self):
        with pytest.raises(SerializationError):
            instance_from_data({"type": "[U, U]", "columnar": {"arity": 2}})
        with pytest.raises(SerializationError):
            instance_from_data(
                {
                    "type": "[U, U]",
                    "columnar": {
                        "arity": 2,
                        "dictionaries": [["a"]],
                        "columns": [[0], [0]],
                    },
                }
            )
        with pytest.raises(SerializationError):
            instance_from_data(
                {
                    "type": "[U, U]",
                    "columnar": {
                        "arity": 2,
                        "dictionaries": [["a"], ["b"]],
                        "columns": [[0, 0], [0]],
                    },
                }
            )
        with pytest.raises(SerializationError):
            instance_from_data(
                {
                    "type": "[U, U]",
                    "columnar": {
                        "arity": 2,
                        "dictionaries": [["a"], ["b"]],
                        "columns": [[0], [7]],
                    },
                }
            )
        # Negative indices must not wrap, and booleans are payloads, not
        # indices.
        for bad_index in (-1, True, "0"):
            with pytest.raises(SerializationError):
                instance_from_data(
                    {
                        "type": "[U, U]",
                        "columnar": {
                            "arity": 2,
                            "dictionaries": [["a", "b"], ["x"]],
                            "columns": [[bad_index], [0]],
                        },
                    }
                )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", 1, 2, True]),
                st.sampled_from(["x", "y", 3]),
            ),
            max_size=12,
        )
    )
    def test_property_columnar_round_trip(self, rows):
        instance = Instance(
            parse_type("[U, U]"), [value_from_python(row) for row in rows]
        )
        assert instance_from_data(instance_to_data(instance, columnar=True)) == instance
