"""Tests for query construction and the limited-interpretation evaluator."""

import sys
import threading

import pytest

from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    ObjectModelError,
    SchemaError,
    TypingError,
)
from repro.calculus.builders import (
    PARENT_SCHEMA,
    PERSON_SCHEMA,
    active_domain_query,
    even_cardinality_query,
    grandparent_query,
    superset_intersection_query,
    transitive_closure_query,
)
from repro.calculus.evaluation import (
    EvaluationSettings,
    EvaluationStatistics,
    QuantifierStrategy,
    check_membership,
    evaluate_query,
    evaluate_query_detailed,
    satisfies,
)
from repro.calculus.formulas import (
    And,
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
from repro.objects.constructive import iter_constructive_domain
from repro.objects.instance import DatabaseInstance
from repro.objects.values import Atom, make_set, make_tuple, value_from_python
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


CHAIN6 = [f"v{index}" for index in range(6)]
PERSONS = ["p0", "p1", "p2", "p3"]
PARENTS3 = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("v0", "v1"), ("v1", "v2")])

# The calculus queries of the benchmark's ``semantics`` rotation, on the
# same instances.
SEMANTICS_ENTRIES = {
    "grandparent_chain6": (
        grandparent_query(),
        DatabaseInstance.build(PARENT_SCHEMA, PAR=list(zip(CHAIN6, CHAIN6[1:]))),
    ),
    "closure_chain3": (transitive_closure_query(), PARENTS3),
    "superset_chain3": (superset_intersection_query(), PARENTS3),
    "even_persons3": (
        even_cardinality_query(),
        DatabaseInstance.build(PERSON_SCHEMA, PERSON=PERSONS[:3]),
    ),
    "even_persons4": (
        even_cardinality_query(),
        DatabaseInstance.build(PERSON_SCHEMA, PERSON=PERSONS),
    ),
}


class TestCheckMembership:
    """``check_membership`` decides ``candidate ∈ Q[d]``, so it must agree
    with membership in :func:`evaluate_query`'s answer."""

    def test_an_atom_outside_the_active_domain_is_not_a_member(self, chain_db):
        query = active_domain_query(PARENT_SCHEMA)
        assert {str(value) for value in evaluate_query(query, chain_db)} == {"a", "b", "c"}
        assert check_membership(query, chain_db, Atom("a"))
        assert not check_membership(query, chain_db, Atom("zzz"))

    def test_a_value_of_another_type_is_not_a_member(self, chain_db):
        query = active_domain_query(PARENT_SCHEMA)
        assert not check_membership(query, chain_db, make_tuple("a", "b"))

    def test_an_invented_atom_is_not_a_member_under_the_output_restriction(self, chain_db):
        query = active_domain_query(PARENT_SCHEMA)
        restricted = EvaluationSettings(extra_atoms=frozenset({"new"}))
        assert Atom("new") not in evaluate_query(query, chain_db, restricted).values
        assert not check_membership(query, chain_db, Atom("new"), restricted)
        widened = EvaluationSettings(
            extra_atoms=frozenset({"new"}), restrict_output_to_active_domain=False
        )
        assert Atom("new") in evaluate_query(query, chain_db, widened).values
        assert check_membership(query, chain_db, Atom("new"), widened)

    def test_a_database_of_another_schema_is_rejected(self):
        query = active_domain_query(PARENT_SCHEMA)
        people = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a"])
        with pytest.raises(EvaluationError, match="schema"):
            evaluate_query_detailed(query, people)
        with pytest.raises(EvaluationError, match="schema"):
            check_membership(query, people, Atom("a"))

    @pytest.mark.parametrize("name", sorted(SEMANTICS_ENTRIES))
    def test_agrees_with_evaluate_query_on_every_candidate(self, name):
        query, database = SEMANTICS_ENTRIES[name]
        settings = EvaluationSettings(binding_budget=None)
        answer = evaluate_query(query, database, settings).values
        atoms = database.active_domain() | query.constants() | {"fresh"}
        candidates = list(iter_constructive_domain(query.target_type, atoms))
        assert len(candidates) > len(answer)
        for candidate in candidates:
            assert check_membership(query, database, candidate, settings) == (
                candidate in answer
            ), candidate


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

    @pytest.mark.parametrize(
        ("formula", "error", "counts"),
        [
            (
                And(Equals(var("t"), var("t")), Not(Equals(var("x"), var("t")))),
                EvaluationError,
                (4, 0, 0, {}),
            ),
            (
                Or(
                    Not(Equals(var("t"), var("t"))),
                    Exists("y", U, And(Equals(var("y"), var("y")), Membership(var("t"), var("y")))),
                ),
                EvaluationError,
                (7, 1, 1, {"U": 1}),
            ),
            (
                Or(
                    Not(Equals(var("t"), var("t"))),
                    And(Equals(var("t"), var("t")), PredicateAtom("NOPE", var("t"))),
                ),
                SchemaError,
                (6, 0, 0, {}),
            ),
            (
                Exists(
                    "y",
                    U,
                    Or(Not(Equals(var("y"), var("t"))), Equals(var("y").coordinate(1), var("t"))),
                ),
                EvaluationError,
                (5, 1, 1, {"U": 1}),
            ),
        ],
        ids=["unbound", "non-set", "unknown-predicate", "non-tuple"],
    )
    def test_counters_stop_where_the_error_is_raised(self, chain_db, formula, error, counts):
        """Every node entered before the failing check is counted, and none
        after it: the counts a node-by-node walk of the formula gives."""
        statistics = EvaluationStatistics()
        with pytest.raises(error):
            satisfies(
                chain_db,
                formula,
                {"t": Atom("a")},
                chain_db.active_domain(),
                statistics=statistics,
            )
        assert (
            statistics.satisfaction_calls,
            statistics.bindings_tried,
            statistics.memo_misses,
            statistics.quantifier_enumerations,
        ) == counts

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


class TestPositionsAndValues:
    """Typed variables hold positions in ``cons(T)``; names the caller binds
    hold values, and so do atoms the t-wff rules do not license.  Either
    way the answers and counters are those of the values themselves."""

    UNIVERSE = frozenset({"a", "b"})
    DATABASE = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a", "b"])

    @pytest.mark.parametrize(
        ("left", "right"),
        [("{U}", "{[U, U]}"), ("[U, {U}]", "[U, {[U, U]}]")],
        ids=["empty-set", "pair-with-empty-set"],
    )
    def test_a_cross_type_equality_compares_values(self, left, right):
        # Positions of different types coincide (0, or i * 2^n against
        # i * 2^(n^2)); the values are equal only through the empty set.
        same = Equals(var("y"), var("z"))
        formula = Exists("y", parse_type(left), Exists("z", parse_type(right), same))
        statistics = EvaluationStatistics()
        assert satisfies(self.DATABASE, formula, {}, self.UNIVERSE, statistics=statistics) is True
        assert statistics.bindings_tried == 2

    @pytest.mark.parametrize(("pair", "expected"), [(("b", "a"), True), (("a", "c"), False)])
    def test_a_bound_tuple_is_compared_with_a_quantified_variable(self, pair, expected):
        formula = Exists("y", PAIR, Equals(var("y"), var("x")))
        statistics = EvaluationStatistics()
        holds = satisfies(
            self.DATABASE, formula, {"x": make_tuple(*pair)}, self.UNIVERSE, statistics=statistics
        )
        assert holds is expected
        assert statistics.bindings_tried == (3 if expected else 4)

    def test_a_payload_equal_constant_finds_its_atom(self):
        database = DatabaseInstance.build(PERSON_SCHEMA, PERSON=[True, "p"])
        formula = And(PredicateAtom("PERSON", var("t")), Equals(var("t"), Constant(1)))
        query = CalculusQuery(PERSON_SCHEMA, "t", U, formula)
        assert {atom.value for atom in evaluate_query(query, database).values} == {True}
        assert check_membership(query, database, Atom(1)) is True

    def test_a_subformula_shared_by_a_bound_and_a_quantified_name_keys_its_memo_on_values(self):
        # psi's memo entry for x = a, made with the caller's value, is hit
        # again under the quantifier, where x holds a's position.
        psi = Exists("y", U, Equals(var("y"), var("x")))
        statistics = EvaluationStatistics()
        formula = And(psi, Exists("x", U, psi))
        assert satisfies(
            self.DATABASE, formula, {"x": Atom("a")}, self.UNIVERSE, statistics=statistics
        )
        counters = (statistics.memo_hits, statistics.memo_misses, statistics.bindings_tried)
        assert counters == (1, 2, 2)

    def test_membership_is_a_bitset_test_and_holds_returns_bools(self):
        formula = Exists("s", parse_type("{U}"), Membership(var("x"), var("s")))
        assert satisfies(self.DATABASE, formula, {"x": Atom("b")}, self.UNIVERSE) is True
        query = CalculusQuery(
            PERSON_SCHEMA, "t", parse_type("{U}"), Membership(Constant("a"), var("t"))
        )
        assert check_membership(query, self.DATABASE, make_set(["a", "b"])) is True
        assert {str(value) for value in evaluate_query(query, self.DATABASE).values} == {
            "{a}",
            "{a, b}",
        }

    @pytest.mark.parametrize("name", sorted(SEMANTICS_ENTRIES))
    def test_the_semantics_queries_run_on_positions_only(self, name, monkeypatch):
        from repro.calculus import evaluation
        from repro.utils import pysource

        sources = []
        compiled = pysource.compiled

        def recording(generator, source, *rest):
            sources.append(source)
            return compiled(generator, source, *rest)

        monkeypatch.setattr(evaluation.pysource, "compiled", recording)
        evaluate_query(*SEMANTICS_ENTRIES[name])
        assert len(sources) == 1
        for fragment in (".components", "_SetValue", "_coordinate"):
            assert fragment not in sources[0]


class TestDeepFormulas:
    """Formulas nested deeper than a generated function may be: the
    evaluator must still compile them, and count as a tree walk does."""

    SCHEMA = DatabaseSchema([("P", U)])

    def test_thirty_nested_alternating_quantifiers(self):
        database = DatabaseInstance.build(self.SCHEMA, P=["a", "b"])
        formula = Equals(var("x0"), var("x29"))
        for depth in reversed(range(30)):
            quantifier = Forall if depth % 2 == 0 else Exists
            formula = quantifier(f"x{depth}", U, formula)
        statistics = EvaluationStatistics()
        assert satisfies(
            database, formula, {}, frozenset({"a", "b"}), statistics=statistics
        )
        assert statistics.bindings_tried == 89
        assert statistics.satisfaction_calls == 90
        assert statistics.memo_hits == 28
        assert statistics.memo_misses == 59
        assert statistics.quantifier_enumerations == {"U": 89}

    def test_a_chain_of_150_alternating_connectives(self):
        database = DatabaseInstance.build(self.SCHEMA, P=["a", "b"])
        same = Equals(var("t"), var("t"))
        formula = same
        for depth in range(150):
            formula = Or(Not(same), formula) if depth % 2 == 0 else And(same, formula)
        statistics = EvaluationStatistics()
        assert satisfies(
            database,
            formula,
            {"t": Atom("a")},
            database.active_domain(),
            statistics=statistics,
        )
        assert statistics.satisfaction_calls == 376


class TestConcurrentEvaluations:
    def test_threads_share_compiled_code_but_no_evaluation_state(self, monkeypatch):
        """Threads evaluating at once share the compiled factories, which a
        small cache bound keeps evicting, but no memo or counter: every
        evaluation returns the answer and statistics of a serial run."""
        from repro.utils import pysource

        monkeypatch.setattr(pysource, "_COMPILED", {})
        monkeypatch.setattr(pysource, "_MAX_ENTRIES", 3)
        settings = EvaluationSettings(binding_budget=None)
        work = [SEMANTICS_ENTRIES[name] for name in ("superset_chain3", "even_persons4")]
        formula = Equals(var("t"), var("t"))
        for _ in range(5):
            work.append((CalculusQuery(PARENT_SCHEMA, "t", U, formula), PARENTS3))
            formula = Not(formula)
        serial = [evaluate_query_detailed(query, database, settings) for query, database in work]
        mismatches: list = []
        errors: list[Exception] = []

        def evaluate(offset: int) -> None:
            try:
                for step in range(3 * len(work)):
                    index = (offset + step) % len(work)
                    result = evaluate_query_detailed(*work[index], settings)
                    expected = serial[index]
                    if (result.answer, result.statistics) != (
                        expected.answer,
                        expected.statistics,
                    ):
                        mismatches.append(index)
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=evaluate, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not mismatches
        assert len(pysource._COMPILED) <= 3


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
