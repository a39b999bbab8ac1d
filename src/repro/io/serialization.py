"""JSON-compatible serialisation of types, values, instances and schemas.

A library for complex objects needs a way to get data in and out of the
process: benchmarks persist generated workloads, examples ship sample
databases, and regression tests pin down expected answers.  The format is
deliberately explicit (every node is tagged with its kind) so that a set of
tuples and a tuple of sets can never be confused, and it is stable across
Python versions because dictionaries are emitted with sorted, deterministic
structure.

The functions come in pairs: ``X_to_data`` produces plain JSON-compatible
Python data (dicts/lists/strings/numbers) and ``X_from_data`` inverts it.
``dumps``/``loads`` wrap the pairs with :mod:`json` for convenience.

Flat instances (type ``U`` or ``[U, ..., U]``) additionally support a
**columnar** format: instead of one tagged tree per element, the instance
is written as per-coordinate dictionary-encoded columns — a sorted
dictionary of distinct atom payloads plus an index column per coordinate,
mirroring the in-memory columnar set storage of
:mod:`repro.objects.columnar`.  Writers pick it automatically for flat
instances that clear the columnar size threshold (or on request via
``instance_to_data(..., columnar=True)``); readers accept both formats
interchangeably, and the two round-trip to equal instances.
"""

from __future__ import annotations

import json
from hashlib import sha256

from repro.errors import ReproError
from repro.objects.columnar import columnar_dispatch
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import Atom, ComplexValue, SetValue, TupleValue
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema, PredicateDeclaration
from repro.types.type_system import ComplexType, TupleType, U


class SerializationError(ReproError):
    """Data could not be serialised or deserialised."""


# -- types -------------------------------------------------------------------

def type_to_data(type_: ComplexType) -> str:
    """Serialise a type as its textual form (``"{[U, U]}"``)."""
    if not isinstance(type_, ComplexType):
        raise SerializationError(f"expected a ComplexType, got {type(type_).__name__}")
    return str(type_)


def type_from_data(data: object) -> ComplexType:
    """Parse a type serialised by :func:`type_to_data`."""
    if not isinstance(data, str):
        raise SerializationError(f"a serialised type must be a string, got {type(data).__name__}")
    return parse_type(data)


# -- values -------------------------------------------------------------------

def value_to_data(value: ComplexValue) -> dict:
    """Serialise a complex value as tagged JSON data."""
    if isinstance(value, Atom):
        payload = value.value
        if not isinstance(payload, (str, int, float, bool)) and payload is not None:
            raise SerializationError(
                f"atom payload {payload!r} of type {type(payload).__name__} is not JSON-compatible"
            )
        return {"kind": "atom", "value": payload}
    if isinstance(value, TupleValue):
        return {"kind": "tuple", "items": [value_to_data(c) for c in value.components]}
    if isinstance(value, SetValue):
        return {"kind": "set", "items": [value_to_data(e) for e in value.sorted_elements()]}
    raise SerializationError(f"unknown value class {type(value).__name__}")


def value_from_data(data: object) -> ComplexValue:
    """Invert :func:`value_to_data`."""
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializationError(f"a serialised value must be a tagged dict, got {data!r}")
    kind = data["kind"]
    if kind == "atom":
        if "value" not in data:
            raise SerializationError("atom serialisation is missing its 'value' field")
        return Atom(data["value"])
    if kind == "tuple":
        items = data.get("items")
        if not isinstance(items, list) or not items:
            raise SerializationError("tuple serialisation needs a non-empty 'items' list")
        return TupleValue([value_from_data(item) for item in items])
    if kind == "set":
        items = data.get("items", [])
        if not isinstance(items, list):
            raise SerializationError("set serialisation needs an 'items' list")
        return SetValue([value_from_data(item) for item in items])
    raise SerializationError(f"unknown value kind {kind!r}")


# -- schemas -------------------------------------------------------------------

def schema_to_data(schema: DatabaseSchema) -> list[dict]:
    """Serialise a database schema as an ordered list of declarations."""
    return [{"name": d.name, "type": type_to_data(d.type)} for d in schema.declarations]


def schema_from_data(data: object) -> DatabaseSchema:
    """Invert :func:`schema_to_data`."""
    if not isinstance(data, list):
        raise SerializationError(f"a serialised schema must be a list, got {type(data).__name__}")
    declarations = []
    for entry in data:
        if not isinstance(entry, dict) or "name" not in entry or "type" not in entry:
            raise SerializationError(f"schema entry {entry!r} needs 'name' and 'type' fields")
        declarations.append(PredicateDeclaration(entry["name"], type_from_data(entry["type"])))
    return DatabaseSchema(declarations)


# -- instances -------------------------------------------------------------------

def _flat_shape(type_: ComplexType) -> int | None:
    """The flat-tuple arity of *type_* (0 for the atomic type ``U``), or
    ``None`` when the type is nested and only the tree format applies."""
    if type_ == U:
        return 0
    if isinstance(type_, TupleType) and all(c == U for c in type_.component_types):
        return type_.arity
    return None


def _payload_key(payload: object) -> tuple[str, str]:
    """Deterministic sort/dedup key for mixed-type atom payloads (mirrors
    ``Atom.sort_key``: ``1`` and ``True`` are payload-equal but must stay
    distinct dictionary entries, and mixed types cannot be sorted raw)."""
    return (type(payload).__name__, repr(payload))


def _atom_payload(value: ComplexValue) -> object:
    if not isinstance(value, Atom):
        raise SerializationError(f"expected an atomic coordinate, got {value!r}")
    payload = value.value
    if not isinstance(payload, (str, int, float, bool)) and payload is not None:
        raise SerializationError(
            f"atom payload {payload!r} of type {type(payload).__name__} is not JSON-compatible"
        )
    return payload


def _encode_column(payloads: list) -> tuple[list, list[int]]:
    """Dictionary-encode one coordinate: (sorted distinct payloads, index column)."""
    by_key = {}
    for payload in payloads:
        by_key.setdefault(_payload_key(payload), payload)
    ordered = sorted(by_key)
    dictionary = [by_key[key] for key in ordered]
    position = {key: index for index, key in enumerate(ordered)}
    return dictionary, [position[_payload_key(payload)] for payload in payloads]


def _columns_to_data(instance: Instance, arity: int) -> dict:
    rows = instance.sorted_values()
    if arity == 0:
        coordinate_payloads = [[_atom_payload(value) for value in rows]]
    else:
        coordinate_payloads = [
            [_atom_payload(row.coordinate(coordinate)) for row in rows]
            for coordinate in range(1, arity + 1)
        ]
    dictionaries = []
    columns = []
    for payloads in coordinate_payloads:
        dictionary, column = _encode_column(payloads)
        dictionaries.append(dictionary)
        columns.append(column)
    return {"arity": arity, "dictionaries": dictionaries, "columns": columns}


def _columns_from_data(payload: object) -> list[ComplexValue]:
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("arity"), int)
        or not isinstance(payload.get("dictionaries"), list)
        or not isinstance(payload.get("columns"), list)
    ):
        raise SerializationError(
            f"columnar instance data needs 'arity', 'dictionaries' and 'columns', got {payload!r}"
        )
    arity = payload["arity"]
    dictionaries = payload["dictionaries"]
    columns = payload["columns"]
    width = max(arity, 1)
    if len(dictionaries) != width or len(columns) != width:
        raise SerializationError(
            f"columnar instance data of arity {arity} needs {width} dictionaries/columns"
        )
    if len({len(column) for column in columns}) > 1:
        raise SerializationError("columnar instance columns have inconsistent lengths")
    for coordinate, (dictionary, column) in enumerate(zip(dictionaries, columns)):
        if not isinstance(dictionary, list):
            raise SerializationError(
                f"columnar dictionary for coordinate {coordinate} must be a list"
            )
        for index in column:
            # type() rather than isinstance: True/False are ints but are
            # payloads, not indices — and negative indices would silently
            # wrap to the wrong dictionary entry.
            if type(index) is not int or not 0 <= index < len(dictionary):
                raise SerializationError(
                    f"columnar index {index!r} out of range for the "
                    f"{len(dictionary)}-entry dictionary of coordinate {coordinate}"
                )
    try:
        if arity == 0:
            return [Atom(dictionaries[0][index]) for index in columns[0]]
        return [
            TupleValue(
                [Atom(dictionaries[coordinate][columns[coordinate][row]])
                 for coordinate in range(arity)]
            )
            for row in range(len(columns[0]))
        ]
    except (IndexError, TypeError) as exc:
        raise SerializationError(f"malformed columnar instance data: {exc}") from exc


def instance_to_data(instance: Instance, columnar: bool | None = None) -> dict:
    """Serialise an instance (type plus its objects, in deterministic order).

    *columnar* selects the dictionary-encoded column format for flat
    instances; the default (``None``) picks it automatically when the
    instance clears the columnar size threshold.  Nested types always use
    the tree format.
    """
    shape = _flat_shape(instance.type)
    if columnar is None:
        columnar = columnar_dispatch(len(instance))
    if columnar and shape is not None:
        return {
            "type": type_to_data(instance.type),
            "columnar": _columns_to_data(instance, shape),
        }
    return {
        "type": type_to_data(instance.type),
        "values": [value_to_data(value) for value in instance.sorted_values()],
    }


def instance_from_data(data: object) -> Instance:
    """Invert :func:`instance_to_data` (either format)."""
    if not isinstance(data, dict) or "type" not in data:
        raise SerializationError(f"a serialised instance needs a 'type' field, got {data!r}")
    type_ = type_from_data(data["type"])
    if "columnar" in data:
        return Instance(type_, _columns_from_data(data["columnar"]))
    values = [value_from_data(item) for item in data.get("values", [])]
    return Instance(type_, values)


def database_to_data(database: DatabaseInstance) -> dict:
    """Serialise a database instance (schema plus one instance per predicate)."""
    return {
        "schema": schema_to_data(database.schema),
        "instances": {
            name: instance_to_data(database.instance(name))
            for name in database.schema.predicate_names
        },
    }


def database_from_data(data: object) -> DatabaseInstance:
    """Invert :func:`database_to_data`."""
    if not isinstance(data, dict) or "schema" not in data or "instances" not in data:
        raise SerializationError(
            f"a serialised database needs 'schema' and 'instances' fields, got {data!r}"
        )
    schema = schema_from_data(data["schema"])
    assignments = {}
    for name in schema.predicate_names:
        if name not in data["instances"]:
            raise SerializationError(f"serialised database is missing predicate {name!r}")
        assignments[name] = instance_from_data(data["instances"][name])
    return DatabaseInstance(schema, assignments)


# -- sealed payloads ---------------------------------------------------------------

def payload_checksum(payload: dict) -> str:
    """The SHA-256 of a payload's canonical JSON form, ``checksum`` field
    excluded — deterministic across Python versions because the canonical
    form is key-sorted and separator-fixed."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def seal_payload(payload: dict) -> dict:
    """Return *payload* with a ``checksum`` field covering every other
    field.  Durable artifacts (database snapshots, WAL checkpoints) are
    sealed on the way out so truncation or bit rot is *detected* on the
    way back in rather than decoded into garbage."""
    sealed = dict(payload)
    sealed["checksum"] = payload_checksum(sealed)
    return sealed


def verify_sealed(payload: object, error_class: type[Exception] = SerializationError) -> dict:
    """Check a sealed payload's checksum; returns the payload.

    Raises *error_class* (default :class:`SerializationError`; snapshot
    codecs pass :class:`repro.errors.CorruptSnapshotError`) when the
    payload is not a dict, carries no checksum, or the checksum does not
    match the content.
    """
    if not isinstance(payload, dict):
        raise error_class(f"sealed payload must be a dict, got {type(payload).__name__}")
    recorded = payload.get("checksum")
    if not isinstance(recorded, str):
        raise error_class("sealed payload is missing its 'checksum' field")
    actual = payload_checksum(payload)
    if recorded != actual:
        raise error_class(
            f"checksum mismatch: recorded {recorded[:12]}..., content hashes to "
            f"{actual[:12]}... — the payload is truncated or corrupt"
        )
    return payload


# -- JSON wrappers ----------------------------------------------------------------

def dumps(obj: ComplexValue | Instance | DatabaseInstance | DatabaseSchema | ComplexType) -> str:
    """Serialise any supported object to a JSON string."""
    if isinstance(obj, ComplexType):
        payload = {"what": "type", "data": type_to_data(obj)}
    elif isinstance(obj, ComplexValue):
        payload = {"what": "value", "data": value_to_data(obj)}
    elif isinstance(obj, Instance):
        payload = {"what": "instance", "data": instance_to_data(obj)}
    elif isinstance(obj, DatabaseInstance):
        payload = {"what": "database", "data": database_to_data(obj)}
    elif isinstance(obj, DatabaseSchema):
        payload = {"what": "schema", "data": schema_to_data(obj)}
    else:
        raise SerializationError(f"cannot serialise objects of type {type(obj).__name__}")
    return json.dumps(payload, sort_keys=True)


def loads(text: str):
    """Invert :func:`dumps`, reconstructing whichever object was serialised."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "what" not in payload or "data" not in payload:
        raise SerializationError("serialised payload needs 'what' and 'data' fields")
    what = payload["what"]
    data = payload["data"]
    if what == "type":
        return type_from_data(data)
    if what == "value":
        return value_from_data(data)
    if what == "instance":
        return instance_from_data(data)
    if what == "database":
        return database_from_data(data)
    if what == "schema":
        return schema_from_data(data)
    raise SerializationError(f"unknown payload kind {what!r}")
