"""Tests for the second-order logic substrate (Proposition 3.9 / Theorem 4.3)."""

from __future__ import annotations

import random
import re
import sys
import threading
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, EvaluationError, TypingError
from repro.calculus.classification import calc_classification, in_calc
from repro.calculus.evaluation import EvaluationSettings, evaluate_query as evaluate_calculus
from repro.objects.instance import DatabaseInstance
from repro.objects.values import TupleValue
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
    SOImplies,
    SONot,
    SOOr,
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
from repro.second_order import evaluation as so_evaluation
from repro.second_order.evaluation import (
    SOEvaluationSettings,
    SOEvaluationStatistics,
    evaluation_domain,
)
from repro.types.schema import DatabaseSchema
from repro.types.type_system import SetType, TupleType, U
from repro.workloads import random_so_formula


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

    def test_payload_equal_atom_sets_keep_their_own_atoms_and_order(self):
        # {True, 0} == {0, 1} as sets: an evaluation over {0, 1} must not
        # lend its atoms or their order to a later one over {True, 0}.
        schema = DatabaseSchema([("P", U), ("D", U)])
        applied = SORelationAtom("P", ("x",))
        first = DatabaseInstance.build(schema, P=[1], D=[0])
        assert set(evaluate_query(["x"], applied, first).tuples) == {(1,)}
        db = DatabaseInstance.build(schema, P=[True], D=[0])
        rows = evaluate_query(["x"], applied, db).tuples
        assert [(type(v), v) for row in rows for v in row] == [(bool, True)]
        assert [(type(a), a) for a in evaluation_domain(applied, db)] == [(bool, True), (int, 0)]


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

    @pytest.mark.parametrize(
        "declared, rows",
        [
            (SetType(U), [{"a", "b"}]),
            (TupleType([U, SetType(U)]), [("a", {"b"})]),
        ],
    )
    def test_non_flat_predicate_is_a_typing_error(self, declared, rows):
        db = DatabaseInstance.build(DatabaseSchema([("S", declared)]), S=rows)
        arity = declared.arity if isinstance(declared, TupleType) else 1
        atom = SORelationAtom("S", ("x",) * arity)
        message = f"predicate 'S' has the non-flat type {declared}"
        with pytest.raises(TypingError, match=re.escape(message)):
            evaluate_sentence(SOExists("x", atom), db)
        with pytest.raises(TypingError, match=re.escape(message)):
            evaluate_query(["x"], atom, db)
        # A formula that does not mention the predicate still evaluates.
        assert evaluate_sentence(SOExists("x", SOEquals("x", "x")), db) is True

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

    def test_a_quantifier_rebinding_a_head_variable_shadows_it(self):
        schema = DatabaseSchema([("P", U), ("D", U)])
        db = DatabaseInstance.build(schema, P=["a"], D=["a", "b"])
        # {x | P(x) ∧ ∃x ¬P(x)}: the inner x is not the head coordinate.
        applied = SORelationAtom("P", ("x",))
        formula = SOAnd(applied, SOExists("x", SONot(applied)))
        assert set(evaluate_query(["x"], formula, db).tuples) == {("a",)}
        answer = evaluate_calculus(so_query_to_calculus(["x"], formula, schema), db)
        assert {tuple(c.value for c in row.components) for row in answer} == {("a",)}

    def test_a_nested_relation_quantifier_shadows_only_its_body(self):
        schema = DatabaseSchema([("P", U), ("D", U)])
        db = DatabaseInstance.build(schema, P=["a"], D=["a", "b"])
        applied = SORelationAtom("X", (SOConstant("a"),))
        # ∃X/1 (∃X/1 ¬X(a) ∧ X(a)): the last X(a) is the outer X.
        inner = SOExistsRelation("X", 1, SONot(applied))
        sentence = SOExistsRelation("X", 1, SOAnd(inner, applied))
        assert evaluate_sentence(sentence, db) is True
        query = so_sentence_to_calculus(sentence, schema)
        assert evaluate_calculus(query, db).values == db.instance("D").values

    @pytest.mark.parametrize(
        "formula",
        [
            # {x | ∃t (V(t) ∧ t = x)}: t is the calculus target's name.
            SOExists("t", SOAnd(SORelationAtom("V", ("t",)), SOEquals("t", "x"))),
            # {x | ∃_row1 E(_row1, x)}: the atom's auxiliary is a _row<n>.
            SOExists("_row1", SORelationAtom("E", ("_row1", "x"))),
            # {x | ∃t/1 (t(x) ∧ ∀y (t(y) → V(y)))}: a relation named t.
            SOExistsRelation(
                "t",
                1,
                SOAnd(
                    SORelationAtom("t", ("x",)),
                    SOForall(
                        "y", SOImplies(SORelationAtom("t", ("y",)), SORelationAtom("V", ("y",)))
                    ),
                ),
            ),
        ],
        ids=["target-name", "auxiliary-name", "relation-target-name"],
    )
    def test_binders_named_like_translation_variables_are_renamed(self, formula):
        db = graph_db("abc", [("a", "b"), ("b", "c"), ("c", "c")])
        answer = evaluate_calculus(so_query_to_calculus(["x"], formula, GRAPH_SCHEMA), db)
        rows = {tuple(c.value for c in row.components) for row in answer}
        assert rows == set(evaluate_query(["x"], formula, db).tuples)
        assert rows

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


class TestDeepFormulas:
    """Formulas nested past what one generated function may hold: CPython
    refuses more than 20 statically nested blocks and 100 indentation
    levels, so the evaluator spills deep subformulas into functions of
    their own, and the counters stay those of a node-by-node walk."""

    DB = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a", "b"])

    @staticmethod
    def chain():
        same = SOEquals("x", "x")
        formula = same
        for depth in range(150):
            formula = SOOr(SONot(same), formula) if depth % 2 == 0 else SOAnd(same, formula)
        return formula

    def test_alternating_quantifiers(self):
        formula = SOEquals("x0", "x24")
        for index in reversed(range(25)):
            formula = (SOExists if index % 2 == 0 else SOForall)(f"x{index}", formula)
        statistics = SOEvaluationStatistics()
        assert evaluate_sentence(formula, self.DB, statistics=statistics) is True
        assert (statistics.first_order_bindings, statistics.satisfaction_calls) == (16381, 16382)

    def test_deep_connective_chain(self):
        statistics = SOEvaluationStatistics()
        assert evaluate_sentence(SOForall("x", self.chain()), self.DB, statistics=statistics)
        assert (statistics.first_order_bindings, statistics.satisfaction_calls) == (2, 753)

    def test_deep_connective_chain_under_a_relation_quantifier(self):
        statistics = SOEvaluationStatistics()
        formula = SOExistsRelation("M", 1, self.chain())
        answer = evaluate_query(["x"], formula, self.DB, statistics=statistics)
        assert answer == Relation(1, [("a",), ("b",)])
        assert (
            statistics.relations_tried,
            statistics.first_order_bindings,
            statistics.satisfaction_calls,
        ) == (2, 2, 754)


class TestConcurrentEvaluations:
    def test_threads_share_compiled_code_but_no_evaluation_state(self, monkeypatch):
        """Threads evaluating at once share the compiled factories and
        prepared plans, which small bounds keep evicting, but no counter:
        every evaluation returns the answer and statistics of a serial
        run."""
        from repro.utils import pysource

        monkeypatch.setattr(pysource, "_COMPILED", {})
        monkeypatch.setattr(pysource, "_MAX_ENTRIES", 3)
        monkeypatch.setattr(so_evaluation, "_PLANS", {})
        monkeypatch.setattr(so_evaluation, "_MAX_PLANS", 3)
        head, reachability = reachability_query()
        triangle = graph_db("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        work = [
            (even_cardinality_sentence(), person_db(3), []),
            (three_colorability_sentence(), triangle, []),
            (reachability, graph_db("abc", [("a", "b"), ("b", "c")]), head),
        ]
        formula = SOExistsRelation("X", 1, SORelationAtom("X", ("x",)))
        for _ in range(4):
            work.append((formula, person_db(2), ["x"]))
            formula = SONot(formula)

        def evaluate(index):
            formula, database, head = work[index]
            statistics = SOEvaluationStatistics()
            if head:
                return evaluate_query(head, formula, database, statistics=statistics), statistics
            return evaluate_sentence(formula, database, statistics=statistics), statistics

        serial = [evaluate(index) for index in range(len(work))]
        mismatches: list = []
        errors: list[Exception] = []

        def run(offset: int) -> None:
            try:
                for step in range(3 * len(work)):
                    index = (offset + step) % len(work)
                    if evaluate(index) != serial[index]:
                        mismatches.append(index)
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not mismatches
        assert len(pysource._COMPILED) <= 3
        assert len(so_evaluation._PLANS) <= 3


class _Walker:
    """The active-domain semantics of second-order logic read node by node,
    with the evaluator's counters and relation budget: the oracle the
    compiled evaluator must match in answers, counters and the point where
    a budget error fires."""

    def __init__(self, database, domain, settings, statistics):
        self.database = database
        self.domain = domain
        self.budget = settings.relation_budget
        self.statistics = statistics

    def rows(self, name):
        return {
            tuple(c.value for c in value.components)
            if isinstance(value, TupleValue)
            else (value.value,)
            for value in self.database.instance(name)
        }

    def value(self, term, variables):
        return term.value if isinstance(term, SOConstant) else variables[term.name]

    def holds(self, formula, variables, relations) -> bool:
        statistics = self.statistics
        statistics.satisfaction_calls += 1
        kind = type(formula)
        if kind is SOEquals:
            return self.value(formula.left, variables) == self.value(formula.right, variables)
        if kind is SORelationAtom:
            row = tuple(self.value(term, variables) for term in formula.terms)
            name = formula.relation_name
            return row in (relations[name] if name in relations else self.rows(name))
        if kind is SONot:
            return not self.holds(formula.operand, variables, relations)
        if kind in (SOAnd, SOOr, SOImplies):
            left = self.holds(formula.left, variables, relations)
            if kind is SOAnd:
                return left and self.holds(formula.right, variables, relations)
            if kind is SOOr:
                return left or self.holds(formula.right, variables, relations)
            return not left or self.holds(formula.right, variables, relations)
        if kind in (SOExists, SOForall):
            existential = kind is SOExists
            for value in self.domain:
                statistics.first_order_bindings += 1
                scope = {**variables, formula.variable: value}
                if self.holds(formula.body, scope, relations) is existential:
                    return existential
            return not existential
        existential = kind is SOExistsRelation
        rows = list(product(self.domain, repeat=formula.arity))
        for size in range(len(rows) + 1):
            for subset in combinations(rows, size):
                statistics.relations_tried += 1
                if self.budget is not None and statistics.relations_tried > self.budget:
                    raise EvaluationError(
                        f"second-order quantifier exceeded the relation budget of {self.budget}"
                    )
                scope = {**relations, formula.relation_variable: frozenset(subset)}
                if self.holds(formula.body, variables, scope) is existential:
                    return existential
        return not existential

    def run(self, head, formula):
        if not head:
            return self.holds(formula, {}, {})
        answer = set()
        for binding in product(self.domain, repeat=len(head)):
            self.statistics.first_order_bindings += 1
            if self.holds(formula, dict(zip(head, binding)), {}):
                answer.add(binding)
        return Relation(len(head), answer)


def _so_outcome(evaluate):
    statistics = SOEvaluationStatistics()
    try:
        answer = evaluate(statistics)
    except EvaluationError as error:
        answer = str(error)
    return answer, statistics


def _sweep_case(seed):
    """A database over at most three atoms, a random formula over it, its
    head and a relation budget, all drawn from *seed*."""
    rng = random.Random(seed)
    atoms = rng.sample("abc", rng.randint(1, 3))
    if rng.random() < 0.5:
        pairs = [(x, y) for x in atoms for y in atoms]
        database = DatabaseInstance.build(
            GRAPH_SCHEMA,
            V=[atom for atom in atoms if rng.random() < 0.7],
            E=[pair for pair in pairs if rng.random() < 0.4],
        )
    else:
        database = DatabaseInstance.build(PERSON_SCHEMA, PERSON=atoms)
    head = ["h0", "h1"][: rng.choice((0, 0, 1, 2))]
    formula = random_so_formula(
        database.schema, seed=seed, size=rng.randint(1, 12), head=head, constants=("a", "c")
    )
    return database, head, formula, rng.choice((1, 4, 16, 64, 200))


def test_random_formulas_match_a_node_by_node_walk(decided_sources):
    """Over a few hundred random formulas, the evaluator gives the walker's
    answers and counters, and raises its budget errors at the same point;
    and every query the calculus evaluates within its binding budget has
    the same answer after ``so_query_to_calculus``.  Many of the sources
    test a leading atom before a first-order loop that it decides."""
    sources = decided_sources(so_evaluation)
    outcomes = {"sentence": 0, "query": 0, "over relation budget": 0}
    calculus = {"agreed": 0, "over binding budget": 0}
    for seed in range(400):
        database, head, formula, budget = _sweep_case(seed)
        settings = SOEvaluationSettings(relation_budget=budget)
        domain = evaluation_domain(formula, database)

        def walk(statistics):
            return _Walker(database, domain, settings, statistics).run(head, formula)

        def evaluate(statistics):
            if head:
                return evaluate_query(head, formula, database, settings, statistics)
            return evaluate_sentence(formula, database, settings, statistics)

        expected = _so_outcome(walk)
        # The second evaluation reuses the plan the first one prepared.
        for run in range(2):
            assert _so_outcome(evaluate) == expected, (seed, str(formula), run)
        answer = expected[0]
        if isinstance(answer, str):
            outcomes["over relation budget"] += 1
            continue
        outcomes["query" if head else "sentence"] += 1
        if not head:
            continue
        query = so_query_to_calculus(head, formula, database.schema)
        try:
            rows = evaluate_calculus(query, database, EvaluationSettings(binding_budget=20_000))
        except BudgetExceededError:
            calculus["over binding budget"] += 1
            continue
        assert {tuple(c.value for c in row.components) for row in rows} == set(answer.tuples), (
            seed,
            str(formula),
        )
        calculus["agreed"] += 1
    assert outcomes["sentence"] >= 150 and outcomes["query"] >= 120, outcomes
    assert outcomes["over relation budget"] >= 40, outcomes
    assert calculus["agreed"] >= 120, calculus
    assert sum(sources.values()) >= 120, (sum(sources.values()), len(sources))


def test_every_counted_first_order_binding_is_a_visited_one(monkeypatch):
    """The first-order bindings counted are exactly the domain indices the
    first-order loops draw, plus a query's head bindings: a loop that
    counts where it exits, or runs no body, counts no binding it did not
    visit.  Over the three second-order entries of the ``semantics``
    benchmark, and once with the relation budget firing."""
    from repro.objects.constructive import subset_bitsets
    from repro.utils import pysource

    drawn = heads = 0

    class Counting:
        """``range``, counting the indices drawn from it."""

        def __init__(self, *arguments):
            self.range = range(*arguments)

        def __iter__(self):
            nonlocal drawn
            for index in self.range:
                drawn += 1
                yield index

    def head_bindings(domain, repeat):
        nonlocal heads
        for binding in product(domain.range, repeat=repeat):
            heads += 1
            yield binding

    # A fresh compile cache, so that the generated code's ``range`` counts;
    # the head loop and the relation loops read the domain uncounted.
    runtime = {
        **so_evaluation._RUNTIME,
        "range": Counting,
        "_product": head_bindings,
        "_relations": lambda positions: subset_bitsets(positions.range),
    }
    monkeypatch.setattr(so_evaluation, "_RUNTIME", runtime)
    monkeypatch.setattr(so_evaluation, "_PLANS", {})
    monkeypatch.setattr(pysource, "_COMPILED", {})
    cycle = [f"w{index}" for index in range(4)]
    cycle4 = graph_db(cycle, [(cycle[i], cycle[(i + 1) % 4]) for i in range(4)])
    chain3 = graph_db("abc", [("a", "b"), ("b", "c")])
    reach_head, reachability = reachability_query()
    cases = [
        ([], even_cardinality_sentence(), person_db(4), None),
        ([], three_colorability_sentence(), cycle4, None),
        (reach_head, reachability, chain3, None),
        (reach_head, reachability, chain3, 100),
    ]
    for head, formula, database, budget in cases:
        drawn = heads = 0
        statistics = SOEvaluationStatistics()
        if budget is None:
            _so_run(head, formula, database, SOEvaluationSettings(), statistics)
        else:
            with pytest.raises(EvaluationError, match="relation budget"):
                settings = SOEvaluationSettings(relation_budget=budget)
                _so_run(head, formula, database, settings, statistics)
        assert drawn == statistics.first_order_bindings - heads > 0, (str(formula), budget)


def _so_run(head, formula, database, settings, statistics):
    """Evaluate the query with *head*, or the sentence when it is empty."""
    if head:
        return evaluate_query(head, formula, database, settings, statistics)
    return evaluate_sentence(formula, database, settings, statistics)


def test_a_warm_evaluation_writes_no_source(monkeypatch):
    """Once a formula is prepared, evaluating it again writes no source,
    also over a database with another number of atoms, and gives the
    walker's answers and counters."""
    monkeypatch.setattr(so_evaluation, "_PLANS", {})
    programs = []
    program = so_evaluation._Compiler.program

    def counting(compiler, *arguments):
        programs.append(arguments)
        return program(compiler, *arguments)

    monkeypatch.setattr(so_evaluation._Compiler, "program", counting)
    head, formula = reachability_query()
    settings = SOEvaluationSettings()
    for vertices in ("abc", "ab", "abc"):
        database = graph_db(vertices, zip(vertices, vertices[1:]))
        domain = evaluation_domain(formula, database)
        expected = _so_outcome(
            lambda statistics: _Walker(database, domain, settings, statistics).run(head, formula)
        )
        actual = _so_outcome(
            lambda statistics: evaluate_query(head, formula, database, settings, statistics)
        )
        assert actual == expected, vertices
    assert len(programs) == 1


def test_a_source_the_compile_cache_does_not_keep_leaves_no_plan(monkeypatch):
    """A plan would pin the factory of a source too long for the compile
    cache, so none is kept: each evaluation writes and compiles it anew."""
    from repro.utils import pysource

    monkeypatch.setattr(so_evaluation, "_PLANS", {})
    monkeypatch.setattr(pysource, "_COMPILED", {})
    monkeypatch.setattr(pysource, "_MAX_SOURCE_CHARS", 100)
    fresh = []
    compiled = pysource.compiled

    def recording(*arguments):
        function, compiled_now = compiled(*arguments)
        fresh.append(compiled_now)
        return function, compiled_now

    monkeypatch.setattr(pysource, "compiled", recording)
    sentence, database = even_cardinality_sentence(), person_db(2)
    assert [evaluate_sentence(sentence, database) for _ in range(2)] == [True, True]
    assert fresh == [True, True]
    assert so_evaluation._PLANS == {}


def test_a_formula_is_checked_against_each_schema_on_every_call(monkeypatch):
    """Plans are keyed by the schema, and a formula whose checks or source
    raise keeps no plan: applied to a unary ``P``, it raises on every call
    over a schema where ``P`` is binary or missing, however often it was
    evaluated over one where ``P`` is unary."""
    monkeypatch.setattr(so_evaluation, "_PLANS", {})
    formula = SOExists("x", SORelationAtom("P", ("x",)))
    unary = DatabaseInstance.build(DatabaseSchema([("P", U)]), P=["a"])
    binary = DatabaseInstance.build(DatabaseSchema([("P", TupleType([U, U]))]), P=[("a", "b")])
    arity = "predicate 'P' has arity 2 but is applied to 1 terms"
    missing = "free relation symbols ['P'] are not database predicates"
    for _ in range(2):
        assert evaluate_sentence(formula, unary) is True
        for _ in range(2):
            with pytest.raises(TypingError, match=re.escape(arity)):
                evaluate_sentence(formula, binary)
            with pytest.raises(EvaluationError, match=re.escape(missing)):
                evaluate_sentence(formula, person_db(1))


def test_a_relation_budget_and_none_get_their_own_plans(monkeypatch):
    """Plans are keyed by whether there is a relation budget: a source
    written without one checks none, and one written with one reads it."""
    monkeypatch.setattr(so_evaluation, "_PLANS", {})
    sentence, database = even_cardinality_sentence(), person_db(2)
    domain = evaluation_domain(sentence, database)
    for budget in (None, 1, None):
        settings = SOEvaluationSettings(relation_budget=budget)
        expected = _so_outcome(
            lambda statistics: _Walker(database, domain, settings, statistics).run([], sentence)
        )
        actual = _so_outcome(
            lambda statistics: evaluate_sentence(sentence, database, settings, statistics)
        )
        assert actual == expected, budget
