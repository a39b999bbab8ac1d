"""The classical relational algebra over :class:`~repro.relational.relation.Relation`.

These operators implement the flat baseline (``CALC_{0,0}``-equivalent
machinery) against which the complex-object calculus is compared.  They are
ordinary set-at-a-time operations with no complex-object overhead, so they
also serve as the fast reference implementation in the benchmarks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import compress
from typing import TYPE_CHECKING

from repro.errors import EvaluationError
from repro.engine.join import hash_join
from repro.objects.columnar import (
    columnar_dispatch,
    difference_ids,
    intersect_ids,
    union_ids,
)
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.algebra.expressions import SelectionCondition


def _columnar_operands(left: Relation, right: Relation):
    """The two row-id columns when the columnar kernels should run, else
    ``None`` (the inputs are below the threshold)."""
    if not columnar_dispatch(len(left) + len(right)):
        return None
    return left.ids(), right.ids()


def union(left: Relation, right: Relation) -> Relation:
    """Set union of two relations of the same arity."""
    _require_same_arity(left, right, "union")
    ids = _columnar_operands(left, right)
    if ids is not None:
        return Relation._from_ids(left.arity, union_ids(*ids))
    return Relation(left.arity, left.tuples | right.tuples)


def intersection(left: Relation, right: Relation) -> Relation:
    """Set intersection of two relations of the same arity."""
    _require_same_arity(left, right, "intersection")
    ids = _columnar_operands(left, right)
    if ids is not None:
        return Relation._from_ids(left.arity, intersect_ids(*ids))
    return Relation(left.arity, left.tuples & right.tuples)


def difference(left: Relation, right: Relation) -> Relation:
    """Set difference of two relations of the same arity."""
    _require_same_arity(left, right, "difference")
    ids = _columnar_operands(left, right)
    if ids is not None:
        return Relation._from_ids(left.arity, difference_ids(*ids))
    return Relation(left.arity, left.tuples - right.tuples)


def project(relation: Relation, columns: Sequence[int]) -> Relation:
    """Projection onto 1-based *columns* (duplicates allowed, order preserved)."""
    if not columns:
        raise EvaluationError("projection requires at least one column")
    for column in columns:
        if not 1 <= column <= relation.arity:
            raise EvaluationError(
                f"projection column {column} out of range for arity {relation.arity}"
            )
    return Relation(
        len(columns),
        {tuple(row[column - 1] for column in columns) for row in relation.tuples},
    )


def select(relation: Relation, predicate: Callable[[tuple], bool]) -> Relation:
    """Selection by an arbitrary per-tuple Python predicate."""
    return Relation(relation.arity, {row for row in relation.tuples if predicate(row)})


def select_where(relation: Relation, condition: "SelectionCondition") -> Relation:
    """Selection by an algebra :class:`SelectionCondition` over a flat relation.

    Takes the vectorized column-at-a-time path of
    :mod:`repro.algebra.vectorized` when it applies (masking the relation's
    cached per-coordinate id columns directly), and otherwise evaluates the
    canonical per-tuple ``condition_holds`` over atom-wrapped rows — one
    condition semantics for every layer.
    """
    from repro.algebra.evaluation import condition_holds
    from repro.algebra.vectorized import compile_condition
    from repro.objects.values import Atom, TupleValue
    from repro.types.type_system import TupleType, U

    row_type = TupleType([U] * relation.arity)
    condition.validate(row_type)
    if columnar_dispatch(len(relation)):
        compiled = compile_condition(condition, row_type)
        if compiled is not None:
            rows = tuple(relation)
            columns = {
                coordinate: relation.coordinate_ids(coordinate)
                for coordinate in compiled.coordinates
            }
            mask = compiled.mask(columns, len(rows))
            return Relation(relation.arity, compress(rows, mask))
    return Relation(
        relation.arity,
        (
            row
            for row in relation.tuples
            if condition_holds(condition, TupleValue([Atom(value) for value in row]))
        ),
    )


def join(left: Relation, right: Relation, equalities: Iterable[tuple[int, int]]) -> Relation:
    """Theta-join on 1-based coordinate equalities ``(left column, right column)``.

    The result concatenates the left and right tuples (no column elimination),
    matching the convention of Example 2.4's ``PAR ⋈_{2=3} PAR``.
    """
    pairs = list(equalities)
    for left_column, right_column in pairs:
        if not 1 <= left_column <= left.arity:
            raise EvaluationError(f"join column {left_column} out of range for arity {left.arity}")
        if not 1 <= right_column <= right.arity:
            raise EvaluationError(f"join column {right_column} out of range for arity {right.arity}")
    # Hash join on all equalities at once via the engine's shared join core;
    # nested loops only for a keyless cross product.
    if pairs:
        left_columns = tuple(lc - 1 for lc, _ in pairs)
        right_columns = tuple(rc - 1 for _, rc in pairs)
        result = {
            left_row + right_row
            for left_row, right_row in hash_join(
                left.tuples,
                right.tuples,
                left_key=lambda row: tuple(row[c] for c in left_columns),
                right_key=lambda row: tuple(row[c] for c in right_columns),
            )
        }
    else:
        result = {
            left_row + right_row for left_row in left.tuples for right_row in right.tuples
        }
    return Relation(left.arity + right.arity, result)


def rename_columns(relation: Relation, order: Sequence[int]) -> Relation:
    """Reorder columns of a relation (a permutation of ``1..arity``)."""
    if sorted(order) != list(range(1, relation.arity + 1)):
        raise EvaluationError(
            f"rename order {order!r} is not a permutation of 1..{relation.arity}"
        )
    return project(relation, order)


def cartesian_product(left: Relation, right: Relation) -> Relation:
    """Plain cartesian product (a join with no equalities)."""
    return join(left, right, [])


def _require_same_arity(left: Relation, right: Relation, operation: str) -> None:
    if left.arity != right.arity:
        raise EvaluationError(
            f"{operation} requires equal arities, got {left.arity} and {right.arity}"
        )
