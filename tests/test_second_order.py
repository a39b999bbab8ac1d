"""Tests for the second-order logic substrate (Proposition 3.9 / Theorem 4.3)."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, TypingError
from repro.calculus.classification import calc_classification, in_calc
from repro.calculus.evaluation import EvaluationSettings, evaluate_query as evaluate_calculus
from repro.objects.instance import DatabaseInstance
from repro.relational.fixpoint import transitive_closure
from repro.relational.relation import Relation
from repro.second_order import (
    GRAPH_SCHEMA,
    PERSON_SCHEMA,
    SOAnd,
    SOConstant,
    SOEquals,
    SOExists,
    SOExistsRelation,
    SOForall,
    SOForallRelation,
    SONot,
    SORelationAtom,
    connectivity_sentence,
    evaluate_query,
    evaluate_sentence,
    even_cardinality_sentence,
    is_existential,
    reachability_query,
    so_conjunction,
    so_query_to_calculus,
    so_sentence_to_calculus,
    three_colorability_sentence,
)
from repro.second_order.evaluation import SOEvaluationSettings, SOEvaluationStatistics


def person_db(n: int) -> DatabaseInstance:
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=[f"p{i}" for i in range(n)])


def graph_db(vertices, edges) -> DatabaseInstance:
    return DatabaseInstance.build(GRAPH_SCHEMA, V=list(vertices), E=list(edges))


class TestFormulaBasics:
    def test_free_variables_of_atom(self):
        atom = SORelationAtom("E", ("x", "y"))
        assert atom.free_first_order_variables() == {"x", "y"}
        assert atom.free_relation_variables() == {"E"}

    def test_quantifier_binds_first_order_variable(self):
        formula = SOExists("x", SORelationAtom("P", ("x",)))
        assert formula.free_first_order_variables() == frozenset()

    def test_relation_quantifier_binds_relation_variable(self):
        formula = SOExistsRelation("X", 1, SORelationAtom("X", ("x",)))
        assert formula.free_relation_variables() == frozenset()
        assert formula.free_first_order_variables() == {"x"}

    def test_relation_symbols_reports_arity(self):
        formula = SORelationAtom("E", ("x", "y")) & SORelationAtom("P", ("x",))
        assert formula.relation_symbols() == {("E", 2), ("P", 1)}

    def test_atom_requires_terms(self):
        with pytest.raises(TypingError):
            SORelationAtom("E", ())

    def test_relation_quantifier_requires_positive_arity(self):
        with pytest.raises(TypingError):
            SOExistsRelation("X", 0, SOEquals("x", "x"))

    def test_is_existential_accepts_existential_prefix(self):
        assert is_existential(three_colorability_sentence())
        assert is_existential(even_cardinality_sentence())

    def test_is_existential_rejects_universal_relation_quantifier(self):
        assert not is_existential(connectivity_sentence())
        _, reach = reachability_query()
        assert not is_existential(reach)

    def test_negated_universal_is_existential(self):
        formula = SONot(SOForallRelation("X", 1, SORelationAtom("X", ("x",))))
        assert is_existential(formula)


class TestSentenceEvaluation:
    @pytest.mark.parametrize("n,expected", [(0, True), (1, False), (2, True), (3, False), (4, True)])
    def test_even_cardinality(self, n, expected):
        assert evaluate_sentence(even_cardinality_sentence(), person_db(n)) is expected

    def test_three_colorability_of_triangle(self):
        db = graph_db("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert evaluate_sentence(three_colorability_sentence(), db) is True

    def test_three_colorability_of_k4_fails(self):
        vertices = "abcd"
        edges = [(x, y) for x in vertices for y in vertices if x < y]
        db = graph_db(vertices, edges)
        assert evaluate_sentence(three_colorability_sentence(), db) is False

    def test_connectivity_of_path(self):
        db = graph_db("abc", [("a", "b"), ("b", "c")])
        assert evaluate_sentence(connectivity_sentence(), db) is True

    def test_connectivity_of_disconnected_graph_fails(self):
        db = graph_db("abcd", [("a", "b"), ("c", "d")])
        assert evaluate_sentence(connectivity_sentence(), db) is False

    def test_sentence_with_free_variable_is_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_sentence(SORelationAtom("PERSON", ("x",)), person_db(2))

    def test_sentence_with_unknown_relation_is_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_sentence(
                SOExists("x", SORelationAtom("NOPE", ("x",))), person_db(2)
            )

    def test_relation_budget_is_enforced(self):
        settings_obj = SOEvaluationSettings(relation_budget=3)
        with pytest.raises(EvaluationError):
            evaluate_sentence(even_cardinality_sentence(), person_db(4), settings_obj)


class TestQueryEvaluation:
    def test_reachability_matches_transitive_closure(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        db = graph_db("abcd", edges)
        head, formula = reachability_query()
        answer = evaluate_query(head, formula, db)
        expected = transitive_closure(Relation(2, edges))
        assert answer == expected

    def test_query_head_variable_required(self):
        with pytest.raises(EvaluationError):
            evaluate_query([], SOEquals("x", "x"), person_db(1))

    def test_query_stray_free_variable_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_query(["x"], SOEquals("x", "y"), person_db(1))

    def test_identity_query(self):
        db = person_db(3)
        answer = evaluate_query(["x"], SORelationAtom("PERSON", ("x",)), db)
        assert answer == Relation(1, [("p0",), ("p1",), ("p2",)])

    def test_query_with_constant(self):
        db = person_db(3)
        answer = evaluate_query(
            ["x"],
            so_conjunction([SORelationAtom("PERSON", ("x",)), SOEquals("x", SOVariableOrConst("p1"))]),
            db,
        )
        assert answer == Relation(1, [("p1",)])


class TestScopingAndErrors:
    """Lexical scoping of the compiled form, and the errors it raises."""

    @staticmethod
    def person(term):
        return SORelationAtom("PERSON", (term,))

    def test_query_rejects_duplicate_head_variables(self):
        with pytest.raises(TypingError, match="head variables must be distinct"):
            evaluate_query(["x", "x"], SORelationAtom("V", ("x",)), graph_db("ab", []))

    @pytest.mark.parametrize(
        "formula, message",
        [
            (
                SONot(SORelationAtom("E", (SOConstant("a"),))),
                "predicate 'E' has arity 2 but is applied to 1 terms",
            ),
            (
                SOExistsRelation(
                    "X", 1, SORelationAtom("X", (SOConstant("a"), SOConstant("b")))
                ),
                "relation variable 'X' has arity 1 but is applied to 2 terms",
            ),
        ],
    )
    def test_arity_mismatch_is_a_typing_error(self, formula, message):
        db = graph_db("ab", [("a", "b")])
        with pytest.raises(TypingError, match=re.escape(message)):
            evaluate_sentence(formula, db)
        with pytest.raises(TypingError, match=re.escape(message)):
            evaluate_query(["x"], SOAnd(SOEquals("x", "x"), formula), db)

    def test_query_with_unknown_relation_is_rejected(self):
        with pytest.raises(EvaluationError, match="neither quantified nor a database predicate"):
            evaluate_query(["x"], SORelationAtom("NOPE", ("x",)), person_db(2))

    def test_rebound_first_order_variable(self):
        outsider = SOConstant("q")
        # The inner x ranges over the domain (persons plus the constant q);
        # the outer x is read again after the inner quantifier is done.
        inner = SOExists("x", so_conjunction([SONot(self.person("x")), SOEquals("x", outsider)]))
        db = person_db(2)
        assert evaluate_sentence(SOExists("x", SOAnd(self.person("x"), inner)), db) is True
        assert evaluate_sentence(SOExists("x", SOAnd(inner, self.person("x"))), db) is True
        assert evaluate_query(["x"], SOAnd(inner, self.person("x")), db) == Relation(
            1, [("p0",), ("p1",)]
        )
        shadowed = SOExists("x", SOAnd(self.person("x"), SOExists("x", SONot(self.person("x")))))
        assert evaluate_sentence(shadowed, db) is False

    def test_nested_same_name_relation_quantifiers(self):
        member = SORelationAtom("X", (SOConstant("p0"),))
        # The outer X is read after the inner X has found its witness (the
        # empty relation); only the outer candidate {p0} satisfies X(p0).
        formula = SOExistsRelation(
            "X", 1, SOAnd(SOExistsRelation("X", 1, SONot(member)), member)
        )
        statistics = SOEvaluationStatistics()
        assert evaluate_sentence(formula, person_db(1), statistics=statistics) is True
        assert statistics.relations_tried == 4

    def test_quantified_relation_shadows_a_database_predicate(self):
        db = person_db(2)
        empty = SOExistsRelation("PERSON", 1, SOForall("x", SONot(self.person("x"))))
        assert evaluate_sentence(empty, db) is True
        assert evaluate_sentence(SOAnd(empty, SOExists("x", self.person("x"))), db) is True
        assert evaluate_sentence(SOForall("x", SONot(self.person("x"))), db) is False
        binary = SOExistsRelation(
            "PERSON", 2, SOExists("x", SOExists("y", SORelationAtom("PERSON", ("x", "y"))))
        )
        assert evaluate_sentence(binary, db) is True

    def test_constants_outside_the_active_domain(self):
        db = person_db(2)
        zed = SOConstant("zed")
        assert evaluate_query(["x"], SOEquals("x", zed), db) == Relation(1, [("zed",)])
        assert evaluate_sentence(self.person(zed), db) is False
        some = SOExistsRelation("X", 1, SORelationAtom("X", (zed,)))
        assert evaluate_sentence(some, db) is True
        assert evaluate_sentence(SOForall("x", self.person("x")), db) is True


def SOVariableOrConst(value):
    """Helper: build a constant term (name chosen to read naturally in tests)."""
    from repro.second_order.formulas import SOConstant

    return SOConstant(value)


class TestTranslationToCalculus:
    def test_translated_reachability_is_calc_0_1(self):
        head, formula = reachability_query()
        query = so_query_to_calculus(head, formula, GRAPH_SCHEMA)
        classification = calc_classification(query)
        assert classification.k == 0
        assert classification.i == 1
        assert in_calc(query, 0, 1)

    def test_translated_reachability_agrees_with_so_semantics(self):
        edges = [("a", "b"), ("b", "c")]
        db = graph_db("abc", edges)
        head, formula = reachability_query()
        so_answer = evaluate_query(head, formula, db)
        calculus_query = so_query_to_calculus(head, formula, GRAPH_SCHEMA)
        calculus_answer = evaluate_calculus(
            calculus_query, db, EvaluationSettings(binding_budget=None)
        )
        calculus_rows = {
            tuple(component.value for component in value.components) for value in calculus_answer
        }
        assert calculus_rows == set(so_answer.tuples)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_translated_even_cardinality_agrees(self, n):
        db = person_db(n)
        sentence = even_cardinality_sentence()
        so_result = evaluate_sentence(sentence, db)
        query = so_sentence_to_calculus(sentence, PERSON_SCHEMA, witness_predicate="PERSON")
        answer = evaluate_calculus(query, db, EvaluationSettings(binding_budget=None))
        assert (len(answer) > 0) == (so_result and n > 0)

    def test_translated_sentence_classification(self):
        query = so_sentence_to_calculus(
            even_cardinality_sentence(), PERSON_SCHEMA, witness_predicate="PERSON"
        )
        assert calc_classification(query).i == 1

    def test_translation_rejects_unknown_relations(self):
        with pytest.raises(TypingError):
            so_query_to_calculus(["x"], SORelationAtom("NOPE", ("x",)), PERSON_SCHEMA)

    def test_translation_rejects_arity_mismatch(self):
        formula = SOExistsRelation("X", 2, SORelationAtom("X", ("x",)))
        with pytest.raises(TypingError):
            so_query_to_calculus(["x"], formula, PERSON_SCHEMA)

    def test_translation_rejects_duplicate_head_variables(self):
        with pytest.raises(TypingError):
            so_query_to_calculus(["x", "x"], SOEquals("x", "x"), PERSON_SCHEMA)

    def test_translation_rejects_stray_free_variables(self):
        with pytest.raises(TypingError):
            so_query_to_calculus(["x"], SOEquals("x", "y"), PERSON_SCHEMA)

    def test_sentence_translation_rejects_non_atomic_witness(self):
        with pytest.raises(TypingError):
            so_sentence_to_calculus(
                SOForall("x", SOEquals("x", "x")), GRAPH_SCHEMA, witness_predicate="E"
            )


class TestPropertyParityAgainstGroundTruth:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=0, max_value=4))
    def test_even_cardinality_matches_arithmetic(self, n):
        assert evaluate_sentence(even_cardinality_sentence(), person_db(n)) is (n % 2 == 0)

    @settings(max_examples=25, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=6,
            unique=True,
        )
    )
    def test_reachability_matches_fixpoint_closure(self, edges):
        db = graph_db("abcd", edges)
        head, formula = reachability_query()
        answer = evaluate_query(head, formula, db)
        expected = transitive_closure(Relation(2, edges))
        # The SO query quantifies over relations on the whole active domain
        # (which includes isolated vertices); the fixpoint closure only sees
        # edge endpoints.  Restrict the comparison to the closure's domain.
        assert set(expected.tuples) <= set(answer.tuples)
        extra = set(answer.tuples) - set(expected.tuples)
        assert not extra
