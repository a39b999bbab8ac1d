"""Typed calculus queries ``Q = {t/T | phi}`` (Section 2)."""

from __future__ import annotations

from repro.errors import TypingError
from repro.calculus.formulas import Formula
from repro.calculus.typing import TypingReport, check_query_formula
from repro.types.schema import DatabaseSchema
from repro.types.type_system import ComplexType


class CalculusQuery:
    """A typed calculus query from a database schema to an output type.

    Construction validates the t-wff rules: the formula's only free variable
    must be the target variable, every predicate used must be declared in
    the schema, and every atomic formula must obey the typing constraints.

    The query object is purely syntactic; evaluation lives in
    :mod:`repro.calculus.evaluation` (limited interpretation) and
    :mod:`repro.invention.semantics` (invented-value semantics).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        target_variable: str,
        target_type: ComplexType,
        formula: Formula,
        name: str | None = None,
    ) -> None:
        if not isinstance(schema, DatabaseSchema):
            raise TypingError(
                f"schema must be a DatabaseSchema, got {type(schema).__name__}"
            )
        if not isinstance(target_type, ComplexType):
            raise TypingError(
                f"target type must be a ComplexType, got {type(target_type).__name__}"
            )
        self._schema = schema
        self._target_variable = target_variable
        self._target_type = target_type
        self._formula = formula
        self._name = name
        self._typing: TypingReport = check_query_formula(
            formula, schema, target_variable, target_type
        )
        self._constants = formula.constants()

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    @property
    def target_variable(self) -> str:
        return self._target_variable

    @property
    def target_type(self) -> ComplexType:
        return self._target_type

    @property
    def formula(self) -> Formula:
        return self._formula

    @property
    def name(self) -> str | None:
        return self._name

    @property
    def typing(self) -> TypingReport:
        """The typing report produced when the query was validated."""
        return self._typing

    def constants(self) -> frozenset[object]:
        """``adom(Q)``: the atomic constants occurring in the query."""
        return self._constants

    def variable_types(self) -> frozenset[ComplexType]:
        """All types carried by variables of the query (target included)."""
        return self._typing.variable_types

    def evaluate(self, database, settings=None):
        """Evaluate under the limited interpretation.

        Thin convenience wrapper around
        :func:`repro.calculus.evaluation.evaluate_query`.
        """
        from repro.calculus.evaluation import evaluate_query

        return evaluate_query(self, database, settings=settings)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CalculusQuery)
            and self._schema == other._schema
            and self._target_variable == other._target_variable
            and self._target_type == other._target_type
            and self._formula == other._formula
        )

    def __hash__(self) -> int:
        return hash((self._schema, self._target_variable, self._target_type, self._formula))

    def __str__(self) -> str:
        label = f"{self._name}: " if self._name else ""
        return f"{label}{{{self._target_variable}/{self._target_type} | {self._formula}}}"

    def __repr__(self) -> str:
        return f"CalculusQuery({str(self)})"
