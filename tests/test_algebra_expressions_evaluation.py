"""Tests for algebra expression typing and evaluation (Section 2 rules 1-9)."""

import pytest

from repro.errors import EvaluationError, TypingError
from repro.algebra.evaluation import AlgebraEvaluationSettings, evaluate_expression
from repro.algebra.expressions import (
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
    flatten_for_product,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.objects.instance import DatabaseInstance
from repro.objects.values import Atom, make_set, make_tuple
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.types.type_system import SetType, TupleType, U

PAIR = parse_type("[U, U]")
PAR = PredicateExpression("PAR")


@pytest.fixture
def nested_db():
    schema = DatabaseSchema([("REL", parse_type("{[U, U]}")), ("NAME", U)])
    return DatabaseInstance.build(
        schema,
        REL=[frozenset({("a", "b")}), frozenset({("a", "b"), ("b", "c")})],
        NAME=["a"],
    )


class TestTypeInference:
    def test_predicate_type(self):
        assert PAR.output_type(PARENT_SCHEMA) == PAIR

    def test_constant_singleton_type(self):
        assert ConstantSingleton("a").output_type(PARENT_SCHEMA) is U

    def test_set_operations_require_equal_types(self):
        assert Union(PAR, PAR).output_type(PARENT_SCHEMA) == PAIR
        with pytest.raises(TypingError):
            Union(PAR, ConstantSingleton("a")).output_type(PARENT_SCHEMA)

    def test_projection_type(self):
        assert Projection(PAR, [2]).output_type(PARENT_SCHEMA) == TupleType([U])
        assert Projection(PAR, [2, 1]).output_type(PARENT_SCHEMA) == PAIR
        with pytest.raises(TypingError):
            Projection(PAR, [3]).output_type(PARENT_SCHEMA)
        with pytest.raises(TypingError):
            Projection(ConstantSingleton("a"), [1]).output_type(PARENT_SCHEMA)

    def test_selection_typing(self):
        good = Selection(PAR, SelectionCondition.eq(1, 2))
        assert good.output_type(PARENT_SCHEMA) == PAIR
        constant = Selection(PAR, SelectionCondition.eq(1, ConstantOperand("a")))
        assert constant.output_type(PARENT_SCHEMA) == PAIR
        bad = Selection(PAR, SelectionCondition.member(1, 2))
        with pytest.raises(TypingError):
            bad.output_type(PARENT_SCHEMA)

    def test_product_flattens_components(self):
        assert Product(PAR, PAR).output_type(PARENT_SCHEMA) == TupleType([U, U, U, U])
        assert Product(ConstantSingleton("a"), PAR).output_type(PARENT_SCHEMA) == TupleType(
            [U, U, U]
        )
        assert flatten_for_product(U) == (U,)
        assert flatten_for_product(PAIR) == (U, U)
        assert flatten_for_product(SetType(U)) == (SetType(U),)

    def test_untuple_type(self):
        single = Projection(PAR, [1])
        assert Untuple(single).output_type(PARENT_SCHEMA) is U
        with pytest.raises(TypingError):
            Untuple(PAR).output_type(PARENT_SCHEMA)

    def test_collapse_type(self):
        assert Collapse(Powerset(PAR)).output_type(PARENT_SCHEMA) == PAIR
        with pytest.raises(TypingError):
            Collapse(PAR).output_type(PARENT_SCHEMA)

    def test_powerset_type(self):
        assert Powerset(PAR).output_type(PARENT_SCHEMA) == SetType(PAIR)

    def test_predicates_and_constants_collection(self):
        e = Selection(
            Product(PAR, ConstantSingleton("c")), SelectionCondition.eq(1, ConstantOperand("a"))
        )
        assert e.predicates() == frozenset({"PAR"})
        assert e.constants() == frozenset({"c", "a"})


class TestEvaluation:
    def test_predicate_and_constant(self, parent_db):
        assert set(evaluate_expression(PAR, parent_db).values) == set(parent_db["PAR"].values)
        assert set(evaluate_expression(ConstantSingleton("x"), parent_db).values) == {Atom("x")}

    def test_union_intersection_difference(self, parent_db):
        grand = Projection(
            Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)), [1, 4]
        )
        assert len(evaluate_expression(Union(PAR, grand), parent_db)) == 3
        assert len(evaluate_expression(Intersection(PAR, grand), parent_db)) == 0
        assert set(evaluate_expression(Difference(PAR, PAR), parent_db).values) == set()

    def test_projection_values(self, parent_db):
        children = evaluate_expression(Projection(PAR, [2]), parent_db)
        assert {str(v) for v in children} == {"[mary]", "[sue]"}

    def test_selection_with_constant(self, parent_db):
        only_tom = evaluate_expression(
            Selection(PAR, SelectionCondition.eq(1, ConstantOperand("tom"))), parent_db
        )
        assert {str(v) for v in only_tom} == {"[tom, mary]"}

    def test_selection_boolean_conditions(self, parent_db):
        condition = SelectionCondition.conjunction(
            SelectionCondition.negation(SelectionCondition.eq(1, ConstantOperand("tom"))),
            SelectionCondition.eq(1, 1),
        )
        result = evaluate_expression(Selection(PAR, condition), parent_db)
        assert {str(v) for v in result} == {"[mary, sue]"}

    def test_product_values(self, parent_db):
        product = evaluate_expression(Product(PAR, PAR), parent_db)
        assert len(product) == 4
        assert make_tuple("tom", "mary", "mary", "sue") in product

    def test_untuple(self, parent_db):
        firsts = evaluate_expression(Untuple(Projection(PAR, [1])), parent_db)
        assert {str(v) for v in firsts} == {"tom", "mary"}

    def test_powerset_and_collapse(self, parent_db):
        power = evaluate_expression(Powerset(PAR), parent_db)
        assert len(power) == 4  # subsets of a 2-element instance
        assert make_set() in power
        collapsed = evaluate_expression(Collapse(Powerset(PAR)), parent_db)
        assert set(collapsed.values) == set(parent_db["PAR"].values)

    def test_powerset_budget(self, parent_db):
        big = Product(Product(PAR, PAR), Product(PAR, PAR))
        with pytest.raises(EvaluationError):
            evaluate_expression(
                Powerset(big), parent_db, AlgebraEvaluationSettings(powerset_budget=3)
            )

    def test_membership_selection_on_nested_schema(self, nested_db):
        rel = PredicateExpression("REL")
        name = PredicateExpression("NAME")
        # [relation, atom] pairs — no flattening because {[U,U]} is not a tuple type.
        paired = Product(rel, name)
        assert paired.output_type(nested_db.schema) == TupleType([parse_type("{[U, U]}"), U])
        result = evaluate_expression(paired, nested_db)
        assert len(result) == 2

    def test_grandparent_pipeline(self, parent_db):
        grand = Projection(
            Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)), [1, 4]
        )
        assert {str(v) for v in evaluate_expression(grand, parent_db)} == {"[tom, sue]"}

    def test_condition_semantics_errors_on_values_and_components(self):
        # condition_holds is components_hold on the tuple's components: both
        # raise ObjectModelError for a coordinate outside the tuple (0 too,
        # which must not wrap to the last component) and EvaluationError for
        # membership in a non-set.
        from repro.algebra.evaluation import components_hold, condition_holds
        from repro.errors import ObjectModelError

        row = make_tuple("a", "b")
        for coordinate in (0, 3):
            condition = SelectionCondition.eq(coordinate, ConstantOperand("b"))
            with pytest.raises(ObjectModelError):
                condition_holds(condition, row)
            with pytest.raises(ObjectModelError):
                components_hold(condition, row.components)
        not_a_set = SelectionCondition.member(1, 2)
        with pytest.raises(EvaluationError):
            condition_holds(not_a_set, row)
        with pytest.raises(EvaluationError):
            components_hold(not_a_set, row.components)
        member = SelectionCondition.member(1, 2)
        assert condition_holds(member, make_tuple("a", frozenset({"a"})))
        assert components_hold(SelectionCondition.eq(2, ConstantOperand("b")), row.components)
