"""Tests for algebra→calculus translation (Theorem 3.8) and derived operators."""

import pytest

from repro.algebra.classification import alg_classification, in_alg, intermediate_types
from repro.algebra.derived import join, nest, unnest
from repro.algebra.evaluation import evaluate_expression, evaluate_expression_legacy
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
)
from repro.algebra.translate import algebra_to_calculus
from repro.calculus.builders import PARENT_SCHEMA
from repro.calculus.classification import calc_classification
from repro.calculus.evaluation import EvaluationSettings, evaluate_query
from repro.errors import BudgetExceededError
from repro.objects.instance import DatabaseInstance
from repro.types.parser import parse_type
from repro.types.type_system import SetType, TupleType, U
from repro.workloads import random_algebra_expression

PAR = PredicateExpression("PAR")
SETTINGS = EvaluationSettings(binding_budget=None)


def assert_translation_agrees(expression, database, settings=None):
    """The calculus translation must produce exactly the algebra's answer."""
    algebra_answer = evaluate_expression(expression, database)
    query = algebra_to_calculus(expression, database.schema)
    calculus_answer = evaluate_query(query, database, settings or EvaluationSettings())
    assert set(calculus_answer.values) == set(algebra_answer.values)


class TestTranslationAgreement:
    """Theorem 3.8, executable direction: ALG ⊆ CALC with identical answers."""

    def test_predicate(self, parent_db):
        assert_translation_agrees(PAR, parent_db)

    def test_constant_singleton(self, parent_db):
        assert_translation_agrees(ConstantSingleton("tom"), parent_db)

    def test_union_intersection_difference(self, parent_db):
        swapped = Projection(PAR, [2, 1])
        assert_translation_agrees(Union(PAR, swapped), parent_db)
        assert_translation_agrees(Intersection(PAR, swapped), parent_db)
        assert_translation_agrees(Difference(PAR, swapped), parent_db)

    def test_projection(self, parent_db):
        assert_translation_agrees(Projection(PAR, [2]), parent_db)
        assert_translation_agrees(Projection(PAR, [2, 1]), parent_db)

    def test_selection(self, parent_db):
        assert_translation_agrees(
            Selection(PAR, SelectionCondition.eq(1, ConstantOperand("tom"))), parent_db
        )
        condition = SelectionCondition.disjunction(
            SelectionCondition.eq(1, ConstantOperand("mary")),
            SelectionCondition.negation(SelectionCondition.eq(2, ConstantOperand("sue"))),
        )
        assert_translation_agrees(Selection(PAR, condition), parent_db)

    def test_product(self, parent_db):
        assert_translation_agrees(Product(PAR, ConstantSingleton("z")), parent_db)

    def test_grandparent_pipeline(self, parent_db):
        grand = Projection(
            Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)), [1, 4]
        )
        assert_translation_agrees(grand, parent_db)

    def test_untuple(self, parent_db):
        assert_translation_agrees(Untuple(Projection(PAR, [1])), parent_db)

    def test_powerset_and_collapse(self, chain_db):
        assert_translation_agrees(Powerset(PAR), chain_db, SETTINGS)
        assert_translation_agrees(Collapse(Powerset(PAR)), chain_db, SETTINGS)

    def test_translated_query_classification_matches(self, parent_db):
        power = Powerset(PAR)
        query = algebra_to_calculus(power, PARENT_SCHEMA)
        alg = alg_classification(power, PARENT_SCHEMA)
        calc = calc_classification(query)
        assert (alg.k, alg.i) == (calc.k, calc.i)


def test_random_expressions_translate_to_the_same_answer():
    """Theorem 3.8 as a randomized oracle: a random algebra expression, its
    calculus translation, the engine and the legacy interpreter agree on a
    small parent relation with an int atom.  Translations whose search space
    passes the binding budget are counted, and enough must evaluate for the
    sweep to mean something."""
    database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b"), ("b", "c"), ("c", 2)])
    settings = EvaluationSettings(binding_budget=50_000)
    counts = {"agreed": 0, "over binding budget": 0}
    for seed in range(60):
        expression = random_algebra_expression(PARENT_SCHEMA, seed=seed, size=4)
        engine = set(evaluate_expression(expression, database).values)
        assert set(evaluate_expression_legacy(expression, database).values) == engine, seed
        query = algebra_to_calculus(expression, PARENT_SCHEMA)
        try:
            answer = evaluate_query(query, database, settings)
        except BudgetExceededError:
            counts["over binding budget"] += 1
            continue
        assert set(answer.values) == engine, (seed, str(expression))
        counts["agreed"] += 1
    assert counts["agreed"] >= 50, counts


class TestAlgClassification:
    def test_flat_pipeline_is_alg00(self):
        grand = Projection(
            Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)), [1, 4]
        )
        assert in_alg(grand, PARENT_SCHEMA, 0, 0)

    def test_powerset_raises_output_height(self):
        classification = alg_classification(Powerset(PAR), PARENT_SCHEMA)
        assert classification.k == 1
        assert classification.i == 0

    def test_powerset_as_intermediate(self):
        # Collapse(Powerset(PAR)) maps [U,U] -> [U,U] but passes through {[U,U]}.
        e = Collapse(Powerset(PAR))
        classification = alg_classification(e, PARENT_SCHEMA)
        assert classification.k == 0
        assert classification.i == 1
        assert SetType(TupleType([U, U])) in intermediate_types(e, PARENT_SCHEMA)

    def test_negative_indices_rejected(self):
        with pytest.raises(Exception):
            in_alg(PAR, PARENT_SCHEMA, -1, 0)


class TestDerivedOperators:
    def test_join_matches_example_2_4(self, parent_db):
        joined = join(PAR, PAR, parent_db, [(2, 1)])
        assert {str(v) for v in joined} == {"[tom, mary, mary, sue]"}

    def test_join_coordinate_validation(self, parent_db):
        with pytest.raises(Exception):
            join(PAR, PAR, parent_db, [(3, 1)])

    def test_nest_groups_children(self):
        db = DatabaseInstance.build(
            PARENT_SCHEMA, PAR=[("tom", "mary"), ("tom", "bob"), ("mary", "sue")]
        )
        nested = nest(PAR, db, [2])
        assert nested.type == parse_type("[U, {[U]}]")
        by_parent = {str(v.coordinate(1)): v.coordinate(2) for v in nested}
        assert len(by_parent["tom"]) == 2
        assert len(by_parent["mary"]) == 1

    def test_unnest_inverts_nest(self):
        db = DatabaseInstance.build(
            PARENT_SCHEMA, PAR=[("tom", "mary"), ("tom", "bob"), ("mary", "sue")]
        )
        nested = nest(PAR, db, [2])
        # Build a schema/instance around the nested relation to unnest it back.
        from repro.types.schema import DatabaseSchema

        nested_schema = DatabaseSchema([("N", nested.type)])
        nested_db = DatabaseInstance(nested_schema, {"N": nested})
        flattened = unnest(PredicateExpression("N"), nested_db, 2)
        pairs = {(str(v.coordinate(1)), str(v.coordinate(2))) for v in flattened}
        assert pairs == {("tom", "mary"), ("tom", "bob"), ("mary", "sue")}

    def test_nest_validation(self, parent_db):
        with pytest.raises(Exception):
            nest(PAR, parent_db, [])
        with pytest.raises(Exception):
            nest(PAR, parent_db, [1, 2])  # nothing left to group by
        with pytest.raises(Exception):
            nest(PAR, parent_db, [5])

    def test_unnest_requires_set_column(self, parent_db):
        with pytest.raises(Exception):
            unnest(PAR, parent_db, 1)
