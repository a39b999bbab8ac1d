"""Evaluation of algebra expressions over a database instance (Section 2).

Two evaluation paths coexist here:

* the **engine path** (default): the expression is compiled by
  :mod:`repro.engine` into a pipelined, hash-join-aware physical plan DAG
  and executed there;
* the **legacy path**: the original naive tree-walking interpreter,
  retained verbatim (plus a per-evaluation output-type cache) as the
  equivalence oracle the engine is tested against.

``AlgebraEvaluationSettings.use_engine`` selects between them;
:func:`evaluate_expression_legacy` always takes the legacy path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.errors import EvaluationError, ObjectModelError
from repro.algebra.expressions import (
    AlgebraExpression,
    Collapse,
    ConstantOperand,
    ConstantSingleton,
    Difference,
    Intersection,
    Powerset,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
    Union,
    Untuple,
)
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import Atom, ComplexValue, SetValue, TupleValue, structural_sort_key
from repro.types.schema import DatabaseSchema
from repro.types.type_system import ComplexType, TupleType


@dataclass(frozen=True)
class AlgebraEvaluationSettings:
    """Knobs controlling algebra evaluation.

    ``powerset_budget`` bounds the size of the operand instance a powerset
    may be applied to (the result has ``2**n`` members); exceeding it raises
    rather than exhausting memory.

    ``use_engine`` routes evaluation through the physical-plan engine
    (:mod:`repro.engine`); when it is off, the legacy tree-walking
    interpreter runs instead.  The ``engine_*`` flags ablate individual
    engine capabilities: the logical rule-optimizer pass, lowering of
    equality selections over products to hash joins,
    common-subexpression elimination, and cost-based join reordering
    (which also needs the process-wide
    :func:`repro.engine.joinorder.set_join_ordering` switch on).  Note
    that the logical pass can *remove* a powerset (``𝒞(𝒫(E)) → E``), so
    an expression that exceeds the powerset budget under the legacy
    interpreter may legitimately succeed under the engine.
    """

    powerset_budget: int = 22
    use_engine: bool = True
    engine_logical_optimize: bool = True
    engine_hash_join: bool = True
    engine_cse: bool = True
    engine_join_ordering: bool = True


def evaluate_expression(
    expression: AlgebraExpression,
    database: DatabaseInstance,
    settings: AlgebraEvaluationSettings | None = None,
) -> Instance:
    """Evaluate *expression* on *database*, returning an :class:`Instance`."""
    settings = settings or AlgebraEvaluationSettings()
    if settings.use_engine:
        # Imported lazily: the engine depends on this module's helpers.
        from repro.engine import run_expression
        from repro.engine.compile import CompileOptions

        return run_expression(
            expression,
            database,
            powerset_budget=settings.powerset_budget,
            options=CompileOptions(
                logical_optimize=settings.engine_logical_optimize,
                hash_join=settings.engine_hash_join,
                common_subexpressions=settings.engine_cse,
                join_ordering=settings.engine_join_ordering,
            ),
        )
    return evaluate_expression_legacy(expression, database, settings)


def evaluate_expression_legacy(
    expression: AlgebraExpression,
    database: DatabaseInstance,
    settings: AlgebraEvaluationSettings | None = None,
) -> Instance:
    """Evaluate with the naive tree-walking interpreter (the oracle path)."""
    settings = settings or AlgebraEvaluationSettings()
    schema = database.schema
    types: dict[int, ComplexType] = {}
    output_type = _node_type(expression, schema, types)
    values = _evaluate(expression, database, schema, settings, types)
    return Instance(output_type, values)


def _node_type(
    expression: AlgebraExpression,
    schema: DatabaseSchema,
    types: dict[int, ComplexType],
) -> ComplexType:
    """The output type of *expression*, computed once per node per evaluation.

    The *types* dict memoizes the whole inference recursion (it is threaded
    through ``output_type``): the ``Product``/``Selection`` branches of
    :func:`_evaluate` used to re-run full subtree type inference on their
    operands at every visit, which is quadratic on selection chains and
    repeats work whenever one node object appears several times in a tree.
    """
    return expression.output_type(schema, types)


def _evaluate(
    expression: AlgebraExpression,
    database: DatabaseInstance,
    schema: DatabaseSchema,
    settings: AlgebraEvaluationSettings,
    types: dict[int, ComplexType],
) -> set[ComplexValue]:
    if isinstance(expression, PredicateExpression):
        return set(database.instance(expression.predicate_name).values)

    if isinstance(expression, ConstantSingleton):
        return {Atom(expression.value)}

    if isinstance(expression, Union):
        return _evaluate(expression.left, database, schema, settings, types) | _evaluate(
            expression.right, database, schema, settings, types
        )

    if isinstance(expression, Intersection):
        return _evaluate(expression.left, database, schema, settings, types) & _evaluate(
            expression.right, database, schema, settings, types
        )

    if isinstance(expression, Difference):
        return _evaluate(expression.left, database, schema, settings, types) - _evaluate(
            expression.right, database, schema, settings, types
        )

    if isinstance(expression, Projection):
        operand = _evaluate(expression.operand, database, schema, settings, types)
        result: set[ComplexValue] = set()
        for value in operand:
            if not isinstance(value, TupleValue):
                raise EvaluationError(f"projection applied to the non-tuple value {value}")
            result.add(TupleValue([value.coordinate(c) for c in expression.coordinates]))
        return result

    if isinstance(expression, Selection):
        operand_type = _node_type(expression.operand, schema, types)
        if not isinstance(operand_type, TupleType):
            raise EvaluationError(f"selection requires a tuple-typed operand, got {operand_type}")
        expression.condition.validate(operand_type)
        operand = _evaluate(expression.operand, database, schema, settings, types)
        condition = expression.condition
        return {value for value in operand if condition_holds(condition, value)}

    if isinstance(expression, Product):
        left_type = _node_type(expression.left, schema, types)
        right_type = _node_type(expression.right, schema, types)
        left_values = _evaluate(expression.left, database, schema, settings, types)
        right_values = _evaluate(expression.right, database, schema, settings, types)
        result = set()
        for left_value in left_values:
            left_components = flatten_value(left_value, left_type)
            for right_value in right_values:
                right_components = flatten_value(right_value, right_type)
                result.add(TupleValue(left_components + right_components))
        return result

    if isinstance(expression, Untuple):
        operand = _evaluate(expression.operand, database, schema, settings, types)
        result = set()
        for value in operand:
            if not isinstance(value, TupleValue) or value.arity != 1:
                raise EvaluationError(f"untuple applied to the non-[T] value {value}")
            result.add(value.coordinate(1))
        return result

    if isinstance(expression, Collapse):
        operand = _evaluate(expression.operand, database, schema, settings, types)
        result = set()
        for value in operand:
            if not isinstance(value, SetValue):
                raise EvaluationError(f"collapse applied to the non-set value {value}")
            result |= set(value.elements)
        return result

    if isinstance(expression, Powerset):
        operand = sorted(
            _evaluate(expression.operand, database, schema, settings, types),
            key=structural_sort_key,
        )
        if len(operand) > settings.powerset_budget:
            raise EvaluationError(
                f"powerset applied to an instance of {len(operand)} objects exceeds the "
                f"powerset budget of {settings.powerset_budget} (the result would have "
                f"2**{len(operand)} members)"
            )
        result = set()
        for size in range(len(operand) + 1):
            for combo in combinations(operand, size):
                result.add(SetValue(combo))
        return result

    raise EvaluationError(f"unknown algebra expression {type(expression).__name__}")


def flatten_value(value: ComplexValue, value_type) -> tuple[ComplexValue, ...]:
    """Component tuple of *value* for the product's concatenation semantics.

    For tuple-typed values this is the value's own (immutable) components
    tuple — no per-row copy, which matters in the hash-join inner loops.
    """
    if isinstance(value_type, TupleType):
        if not isinstance(value, TupleValue):
            raise EvaluationError(f"expected a tuple value of type {value_type}, got {value}")
        return value.components
    return (value,)


def condition_holds(condition: SelectionCondition, value: TupleValue) -> bool:
    """Whether the selection *condition* holds on the tuple *value*.

    Shared with the engine's ``Filter`` operator, the nested algebra and
    view maintenance so every evaluation path agrees on condition
    semantics by construction: it is :func:`components_hold` on the
    tuple's components.
    """
    return components_hold(condition, value.components)


def components_hold(condition: SelectionCondition, components: tuple) -> bool:
    """Whether *condition* holds on the tuple whose components are
    *components* — the one implementation of the condition semantics.  The
    engine's hash join checks its residual here on each combined component
    row, so it builds a ``TupleValue`` only for the pairs that pass.
    """
    kind = condition.kind
    if kind == "eq":
        return _operand_value(condition.operands[0], components) == _operand_value(
            condition.operands[1], components
        )
    if kind == "in":
        container = _operand_value(condition.operands[1], components)
        if not isinstance(container, SetValue):
            raise EvaluationError(
                f"selection membership evaluated against the non-set value {container}"
            )
        return container.contains(_operand_value(condition.operands[0], components))
    if kind == "not":
        return not components_hold(condition.operands[0], components)
    if kind == "and":
        return components_hold(condition.operands[0], components) and components_hold(
            condition.operands[1], components
        )
    if kind == "or":
        return components_hold(condition.operands[0], components) or components_hold(
            condition.operands[1], components
        )
    raise EvaluationError(f"unknown selection condition kind {kind!r}")


def _operand_value(operand, components: tuple) -> ComplexValue:
    if isinstance(operand, ConstantOperand):
        return Atom(operand.value)
    if isinstance(operand, int):
        if not 1 <= operand <= len(components):
            raise ObjectModelError(
                f"coordinate {operand} out of range for tuple of arity {len(components)}"
            )
        return components[operand - 1]
    raise EvaluationError(f"unknown selection operand {operand!r}")
