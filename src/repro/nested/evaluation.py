"""Evaluation of ALG⁻ expressions over database instances.

The semantics mirrors the full algebra's, restricted to the powerset-free
operator set, plus ``nest`` and ``unnest`` as primitive (not derived)
operators.  Because no operator can create a set that was not already
present (nest only ever groups *existing* tuples), intermediate instances
are polynomial in the input — the engine behind the [PvG88] collapse
result exercised by experiment X16.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.algebra.evaluation import condition_holds
from repro.nested.expressions import (
    Nest,
    NestedDifference,
    NestedExpression,
    NestedIntersection,
    NestedPredicate,
    NestedProduct,
    NestedProjection,
    NestedSelection,
    NestedUnion,
    Unnest,
)
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import ComplexValue, SetValue, TupleValue
from repro.types.schema import DatabaseSchema
from repro.types.type_system import TupleType


def evaluate_nested(
    expression: NestedExpression, database: DatabaseInstance
) -> Instance:
    """Evaluate *expression* on *database*, returning an :class:`Instance`."""
    schema = database.schema
    output_type = expression.output_type(schema)
    values = _evaluate(expression, database, schema)
    return Instance(output_type, values)


def _evaluate(
    expression: NestedExpression, database: DatabaseInstance, schema: DatabaseSchema
) -> set[ComplexValue]:
    if isinstance(expression, NestedPredicate):
        return set(database.instance(expression.predicate_name).values)

    if isinstance(expression, NestedUnion):
        return _evaluate(expression.left, database, schema) | _evaluate(
            expression.right, database, schema
        )

    if isinstance(expression, NestedIntersection):
        return _evaluate(expression.left, database, schema) & _evaluate(
            expression.right, database, schema
        )

    if isinstance(expression, NestedDifference):
        return _evaluate(expression.left, database, schema) - _evaluate(
            expression.right, database, schema
        )

    if isinstance(expression, NestedProjection):
        operand = _evaluate(expression.operand, database, schema)
        return {
            TupleValue([value.coordinate(c) for c in expression.coordinates])
            for value in _as_tuples(operand)
        }

    if isinstance(expression, NestedSelection):
        operand = _as_tuples(_evaluate(expression.operand, database, schema))
        condition = expression.condition
        return {value for value in operand if condition_holds(condition, value)}

    if isinstance(expression, NestedProduct):
        left = _evaluate(expression.left, database, schema)
        right = _evaluate(expression.right, database, schema)
        result: set[ComplexValue] = set()
        for left_value in left:
            for right_value in right:
                result.add(
                    TupleValue(_components_of(left_value) + _components_of(right_value))
                )
        return result

    if isinstance(expression, Nest):
        operand_type = expression.operand.output_type(schema)
        if not isinstance(operand_type, TupleType):
            raise EvaluationError(f"nest requires a tuple-typed operand, got {operand_type}")
        grouping = expression.grouping_coordinates(schema)
        operand = _evaluate(expression.operand, database, schema)
        groups: dict[tuple, set[ComplexValue]] = {}
        for value in _as_tuples(operand):
            key = tuple(value.coordinate(c) for c in grouping)
            groups.setdefault(key, set()).add(
                TupleValue([value.coordinate(c) for c in expression.nested_coordinates])
            )
        return {
            TupleValue(list(key) + [SetValue(members)]) for key, members in groups.items()
        }

    if isinstance(expression, Unnest):
        operand = _evaluate(expression.operand, database, schema)
        result = set()
        for value in _as_tuples(operand):
            column = value.coordinate(expression.set_coordinate)
            if not isinstance(column, SetValue):
                raise EvaluationError(
                    f"unnest found the non-set value {column} in coordinate "
                    f"{expression.set_coordinate}"
                )
            for element in column:
                components: list[ComplexValue] = []
                for index, component in enumerate(value.components, start=1):
                    if index == expression.set_coordinate:
                        if isinstance(element, TupleValue):
                            components.extend(element.components)
                        else:
                            components.append(element)
                    else:
                        components.append(component)
                result.add(TupleValue(components))
        return result

    raise EvaluationError(f"unknown nested expression class {type(expression).__name__}")


def _as_tuples(values: set[ComplexValue]) -> set[TupleValue]:
    for value in values:
        if not isinstance(value, TupleValue):
            raise EvaluationError(f"expected tuple values, found {value}")
    return values  # type: ignore[return-value]


def _components_of(value: ComplexValue) -> list[ComplexValue]:
    if isinstance(value, TupleValue):
        return list(value.components)
    return [value]


# Condition evaluation is shared with the full algebra: NestedSelection
# uses the canonical ``repro.algebra.evaluation.condition_holds``, so the
# two dialects cannot drift.
