"""Tests for query construction and the limited-interpretation evaluator."""

import pytest

from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    ObjectModelError,
    SchemaError,
    TypingError,
)
from repro.calculus.builders import PARENT_SCHEMA, PERSON_SCHEMA
from repro.calculus.evaluation import (
    EvaluationSettings,
    QuantifierStrategy,
    check_membership,
    evaluate_query,
    evaluate_query_detailed,
    satisfies,
)
from repro.calculus.formulas import (
    Equals,
    Exists,
    Forall,
    Membership,
    Not,
    Or,
    PredicateAtom,
)
from repro.calculus.query import CalculusQuery
from repro.calculus.terms import Constant, var
from repro.objects.instance import DatabaseInstance
from repro.objects.values import make_set, make_tuple, value_from_python
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.types.type_system import U

PAIR = parse_type("[U, U]")
SET_OF_PAIRS = parse_type("{[U, U]}")


class TestCalculusQueryConstruction:
    def test_valid_query(self):
        q = CalculusQuery(PERSON_SCHEMA, "t", U, PredicateAtom("PERSON", var("t")))
        assert q.target_type is U
        assert q.constants() == frozenset()

    def test_rejects_extra_free_variables(self):
        with pytest.raises(TypingError):
            CalculusQuery(PERSON_SCHEMA, "t", U, Equals(var("t"), var("u")))

    def test_rejects_bad_schema_type(self):
        with pytest.raises(TypingError):
            CalculusQuery("not a schema", "t", U, Equals(var("t"), var("t")))

    def test_constants_collected(self):
        q = CalculusQuery(
            PERSON_SCHEMA, "t", U, Equals(var("t"), Constant("alice"))
        )
        assert q.constants() == frozenset({"alice"})

    def test_str_includes_name(self):
        q = CalculusQuery(
            PERSON_SCHEMA, "t", U, PredicateAtom("PERSON", var("t")), name="people"
        )
        assert "people" in str(q)

    def test_equality(self):
        f = PredicateAtom("PERSON", var("t"))
        assert CalculusQuery(PERSON_SCHEMA, "t", U, f) == CalculusQuery(
            PERSON_SCHEMA, "t", U, f
        )


class TestBasicEvaluation:
    def test_identity_query_returns_relation(self, parent_db):
        q = CalculusQuery(PARENT_SCHEMA, "t", PAIR, PredicateAtom("PAR", var("t")))
        assert set(evaluate_query(q, parent_db).values) == set(parent_db["PAR"].values)

    def test_constant_selection(self):
        db = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["alice", "bob"])
        q = CalculusQuery(
            PERSON_SCHEMA,
            "t",
            U,
            PredicateAtom("PERSON", var("t")) & Equals(var("t"), Constant("alice")),
        )
        assert [str(v) for v in evaluate_query(q, db)] == ["alice"]

    def test_negation_under_limited_interpretation(self):
        db = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a", "b"])
        q = CalculusQuery(
            PERSON_SCHEMA,
            "t",
            U,
            Not(PredicateAtom("PERSON", var("t"))) & Equals(var("t"), Constant("c")),
        )
        # "c" is a query constant, hence in the evaluation universe.
        assert [str(v) for v in evaluate_query(q, db)] == ["c"]

    def test_existential_quantifier(self, parent_db):
        # parents: those with a child.
        q = CalculusQuery(
            PARENT_SCHEMA,
            "t",
            U,
            Exists(
                "x",
                PAIR,
                PredicateAtom("PAR", var("x")) & Equals(var("x").coordinate(1), var("t")),
            ),
        )
        assert sorted(str(v) for v in evaluate_query(q, parent_db)) == ["mary", "tom"]

    def test_universal_quantifier(self, chain_db):
        # Atoms t such that every PAR pair has first coordinate t -> only when
        # false for some pair, excluded; here no atom qualifies since pairs
        # have different first coordinates.
        q = CalculusQuery(
            PARENT_SCHEMA,
            "t",
            U,
            Forall(
                "x",
                PAIR,
                PredicateAtom("PAR", var("x")).implies(
                    Equals(var("x").coordinate(1), var("t"))
                ),
            ),
        )
        assert list(evaluate_query(q, chain_db)) == []

    def test_membership_evaluation(self):
        schema = DatabaseSchema([("REL", SET_OF_PAIRS)])
        db = DatabaseInstance.build(
            schema, REL=[frozenset({("a", "b"), ("b", "c")}), frozenset({("a", "b")})]
        )
        # Pairs that belong to every relation in REL.
        q = CalculusQuery(
            schema,
            "t",
            PAIR,
            Forall(
                "x",
                SET_OF_PAIRS,
                PredicateAtom("REL", var("x")).implies(Membership(var("t"), var("x"))),
            ),
        )
        assert [str(v) for v in evaluate_query(q, db)] == ["[a, b]"]

    def test_schema_mismatch_rejected(self, parent_db):
        q = CalculusQuery(PERSON_SCHEMA, "t", U, PredicateAtom("PERSON", var("t")))
        with pytest.raises(EvaluationError):
            evaluate_query(q, parent_db)


class TestEvaluationSettingsAndStatistics:
    def test_budget_enforced(self, parent_db):
        q = CalculusQuery(
            PARENT_SCHEMA,
            "t",
            PAIR,
            Exists("x", SET_OF_PAIRS, Membership(var("t"), var("x"))),
        )
        with pytest.raises(BudgetExceededError):
            evaluate_query(q, parent_db, EvaluationSettings(binding_budget=5))

    def test_statistics_recorded(self, parent_db):
        q = CalculusQuery(PARENT_SCHEMA, "t", PAIR, PredicateAtom("PAR", var("t")))
        result = evaluate_query_detailed(q, parent_db)
        assert result.statistics.output_candidates == 9  # 3 atoms -> 9 pairs
        assert result.statistics.answers == 2
        assert result.statistics.satisfaction_calls > 0

    def test_strategies_agree(self, parent_db):
        q = CalculusQuery(
            PARENT_SCHEMA,
            "t",
            U,
            Exists(
                "x",
                PAIR,
                PredicateAtom("PAR", var("x")) & Equals(var("x").coordinate(2), var("t")),
            ),
        )
        eager = evaluate_query(
            q, parent_db, EvaluationSettings(strategy=QuantifierStrategy.EAGER)
        )
        lazy = evaluate_query(
            q, parent_db, EvaluationSettings(strategy=QuantifierStrategy.SHORT_CIRCUIT)
        )
        assert eager == lazy

    def test_memoization_does_not_change_answers(self, chain_db):
        q = CalculusQuery(
            PARENT_SCHEMA,
            "z",
            PAIR,
            Forall(
                "x",
                SET_OF_PAIRS,
                Or(Not(PredicateAtom("PAR", var("z"))), PredicateAtom("PAR", var("z"))),
            )
            & PredicateAtom("PAR", var("z")),
        )
        with_memo = evaluate_query(q, chain_db, EvaluationSettings(memoize_quantifiers=True))
        without_memo = evaluate_query(
            q, chain_db, EvaluationSettings(memoize_quantifiers=False)
        )
        assert with_memo == without_memo

    def test_extra_atoms_widen_universe(self):
        db = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a"])
        # t such that there exist two distinct atoms: false under the limited
        # interpretation with a single-atom active domain, true with one
        # invented atom added.
        q = CalculusQuery(
            PERSON_SCHEMA,
            "t",
            U,
            PredicateAtom("PERSON", var("t"))
            & Exists("x", U, Exists("y", U, Not(Equals(var("x"), var("y"))))),
        )
        limited = evaluate_query(q, db)
        widened = evaluate_query(
            q, db, EvaluationSettings(extra_atoms=frozenset({"new0"}))
        )
        assert len(limited) == 0
        assert [str(v) for v in widened] == ["a"]

    def test_check_membership_matches_full_evaluation(self, parent_db):
        q = CalculusQuery(PARENT_SCHEMA, "t", PAIR, PredicateAtom("PAR", var("t")))
        assert check_membership(q, parent_db, make_tuple("tom", "mary"))
        assert not check_membership(q, parent_db, make_tuple("mary", "tom"))


class TestSatisfiesDirectly:
    def test_unbound_variable_raises(self, parent_db):
        formula = Equals(var("x"), var("x"))
        with pytest.raises(EvaluationError, match="variable 'x' is unbound during evaluation"):
            satisfies(parent_db, formula, {}, parent_db.active_domain())

    @pytest.mark.parametrize(
        "formula",
        [
            Equals(var("x").coordinate(1), Constant("a")),
            Exists("y", U, Equals(var("y"), var("x"))),
        ],
        ids=["coordinate", "under-quantifier"],
    )
    def test_unbound_variable_in_other_positions_raises(self, parent_db, formula):
        with pytest.raises(EvaluationError, match="variable 'x' is unbound during evaluation"):
            satisfies(parent_db, formula, {}, parent_db.active_domain())

    def test_membership_on_non_set_raises(self, parent_db):
        formula = Membership(var("x"), var("y"))
        with pytest.raises(EvaluationError, match="evaluated a non-set container value b"):
            satisfies(
                parent_db,
                formula,
                {"x": value_from_python("a"), "y": value_from_python("b")},
                parent_db.active_domain(),
            )

    def test_membership_in_non_set_coordinate_raises(self, parent_db):
        formula = Membership(var("x"), var("y").coordinate(1))
        with pytest.raises(EvaluationError, match="evaluated a non-set container value b"):
            satisfies(
                parent_db,
                formula,
                {"x": value_from_python("a"), "y": make_tuple("b", "c")},
                parent_db.active_domain(),
            )

    def test_coordinate_of_non_tuple_raises(self, parent_db):
        formula = Equals(var("x").coordinate(1), Constant("a"))
        with pytest.raises(EvaluationError, match="selects a coordinate of the non-tuple value a"):
            satisfies(
                parent_db, formula, {"x": value_from_python("a")}, parent_db.active_domain()
            )

    def test_coordinate_out_of_range_raises(self, parent_db):
        formula = Equals(var("x").coordinate(3), Constant("a"))
        with pytest.raises(ObjectModelError, match="coordinate 3 out of range"):
            satisfies(
                parent_db, formula, {"x": make_tuple("a", "b")}, parent_db.active_domain()
            )

    def test_unknown_predicate_raises_only_when_reached(self, parent_db):
        same = Equals(var("x"), var("x"))
        unknown = PredicateAtom("NOPE", var("x"))
        assignment = {"x": make_tuple("tom", "mary")}
        universe = parent_db.active_domain()
        assert satisfies(parent_db, Or(same, unknown), assignment, universe)
        with pytest.raises(SchemaError, match="'NOPE' is not part of this database"):
            satisfies(parent_db, Or(Not(same), unknown), assignment, universe)

    def test_simple_satisfaction(self, parent_db):
        formula = PredicateAtom("PAR", var("x"))
        assert satisfies(
            parent_db, formula, {"x": make_tuple("tom", "mary")}, parent_db.active_domain()
        )
        assert not satisfies(
            parent_db, formula, {"x": make_tuple("sue", "tom")}, parent_db.active_domain()
        )

    def test_set_binding(self, parent_db):
        formula = Membership(var("p"), var("s"))
        assignment = {
            "p": make_tuple("tom", "mary"),
            "s": make_set([("tom", "mary")]),
        }
        assert satisfies(parent_db, formula, assignment, parent_db.active_domain())


class TestScoping:
    def test_rebound_variable_is_restored_for_the_outer_binder(self):
        # t is re-bound inside the conjunct that is evaluated first; the
        # outer t must be the output candidate again when PERSON(t) runs.
        db = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a", "b"])
        outsider = Not(PredicateAtom("PERSON", var("t"))) & Equals(var("t"), Constant("q"))
        inner = Exists("t", U, outsider)
        q = CalculusQuery(PERSON_SCHEMA, "t", U, inner & PredicateAtom("PERSON", var("t")))
        result = evaluate_query_detailed(q, db)
        assert sorted(str(v) for v in result.answer) == ["a", "b"]
        # The inner quantifier has no free variable: one memo entry serves
        # all three output candidates (a, b and the constant q).
        assert (result.statistics.memo_misses, result.statistics.memo_hits) == (1, 2)
