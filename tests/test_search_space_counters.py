"""The search space of the paper's queries, pinned counter by counter.

The calculus and second-order evaluators compile each formula before
enumerating, but the enumeration itself is the object of study: every
candidate binding and candidate relation the formula's semantics
prescribes must still be tried, in the same order.  These tests pin the
answers and the exact statistics counters of the ``semantics`` benchmark
rotation (the same queries on the same instances), as a node-by-node
walk of each formula produces them, plus Example 3.1 under the eager
strategy and without quantifier memoisation, and the counters at the
moment each kind of budget error fires.
"""

from __future__ import annotations

import pytest

from repro.calculus.builders import (
    PAIR_OF_ATOMS,
    PARENT_SCHEMA,
    PERSON_SCHEMA,
    even_cardinality_query,
    grandparent_query,
    superset_intersection_query,
    transitive_closure_query,
)
from repro.calculus.evaluation import (
    EvaluationSettings,
    EvaluationStatistics,
    QuantifierStrategy,
    evaluate_query_detailed,
    satisfies,
)
from repro.calculus.formulas import PredicateAtom
from repro.calculus.query import CalculusQuery
from repro.calculus.terms import var
from repro.datalog.builders import transitive_closure_program as datalog_closure
from repro.datalog.evaluation import evaluate_program
from repro.errors import BudgetExceededError, EvaluationError
from repro.fixpoint.builders import transitive_closure_program as fixpoint_closure
from repro.objects.instance import DatabaseInstance
from repro.objects.values import make_tuple
from repro.relational.relation import Relation
from repro.second_order.builders import (
    GRAPH_SCHEMA,
    PERSON_SCHEMA as SO_PERSON_SCHEMA,
    even_cardinality_sentence,
    reachability_query,
    three_colorability_sentence,
)
from repro.second_order.evaluation import (
    SOEvaluationSettings,
    SOEvaluationStatistics,
    evaluate_query,
    evaluate_sentence,
)

CHAIN6 = [f"v{index}" for index in range(6)]
CHAIN3 = [("v0", "v1"), ("v1", "v2")]
CLOSURE3 = {("v0", "v1"), ("v1", "v2"), ("v0", "v2")}
PERSONS = ["p0", "p1", "p2", "p3"]
CYCLE = ["w0", "w1", "w2", "w3"]

GRANDPARENTS = DatabaseInstance.build(PARENT_SCHEMA, PAR=list(zip(CHAIN6, CHAIN6[1:])))
PARENTS3 = DatabaseInstance.build(PARENT_SCHEMA, PAR=CHAIN3)
UNBOUNDED = EvaluationSettings(binding_budget=None)


def _pairs(values) -> set:
    return {tuple(component.value for component in value.components) for value in values}


def _atoms(values) -> set:
    return {value.value for value in values}


# name -> (query, database, settings, normalize, answer,
#          bindings_tried, satisfaction_calls, memo_hits, memo_misses,
#          output_candidates, quantifier_enumerations)
CALCULUS_ENTRIES = {
    "grandparent_chain6": (
        grandparent_query(), GRANDPARENTS, UNBOUNDED, _pairs,
        {("v0", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v5")},
        44444, 101746, 0, 1238, 36, {"[U, U]": 44408},
    ),
    "closure_chain3": (
        transitive_closure_query(), PARENTS3, UNBOUNDED, _pairs, CLOSURE3,
        15716, 62756, 7836, 2226, 9, {"[U, U]": 13709, "{[U, U]}": 1998},
    ),
    "superset_chain3": (
        superset_intersection_query(), PARENTS3, UNBOUNDED, _pairs, set(CHAIN3),
        3619, 8260, 666, 521, 9, {"[U, U]": 2432, "{[U, U]}": 1178},
    ),
    "even_persons3": (
        even_cardinality_query(),
        DatabaseInstance.build(PERSON_SCHEMA, PERSON=PERSONS[:3]),
        UNBOUNDED, _atoms, set(),
        15955, 57852, 2, 3612, 3, {"U": 1520, "[U, U]": 13920, "{[U, U]}": 512},
    ),
    "even_persons4": (
        even_cardinality_query(),
        DatabaseInstance.build(PERSON_SCHEMA, PERSON=PERSONS),
        UNBOUNDED, _atoms, set(PERSONS),
        1389, 3582, 3, 168, 4, {"U": 105, "[U, U]": 1238, "{[U, U]}": 42},
    ),
    "closure_chain3_eager": (
        transitive_closure_query(), PARENTS3,
        EvaluationSettings(binding_budget=None, strategy=QuantifierStrategy.EAGER),
        _pairs, CLOSURE3,
        15716, 62756, 7836, 2226, 9, {"[U, U]": 13709, "{[U, U]}": 1998},
    ),
    "closure_chain3_without_memo": (
        transitive_closure_query(), PARENTS3,
        EvaluationSettings(binding_budget=None, memoize_quantifiers=False),
        _pairs, CLOSURE3,
        102090, 348606, 0, 0, 9, {"[U, U]": 100083, "{[U, U]}": 1998},
    ),
}


@pytest.mark.parametrize("name", sorted(CALCULUS_ENTRIES))
def test_calculus_answers_and_counters_are_pinned(name):
    (
        query, database, settings, normalize, answer,
        bindings, calls, hits, misses, candidates, enumerations,
    ) = CALCULUS_ENTRIES[name]
    result = evaluate_query_detailed(query, database, settings)
    statistics = result.statistics
    assert normalize(result.answer.values) == answer
    assert statistics.answers == len(answer)
    assert statistics.bindings_tried == bindings
    assert statistics.satisfaction_calls == calls
    assert statistics.memo_hits == hits
    assert statistics.memo_misses == misses
    assert statistics.output_candidates == candidates
    assert statistics.quantifier_enumerations == enumerations


def _graph(vertices, edges) -> DatabaseInstance:
    return DatabaseInstance.build(GRAPH_SCHEMA, V=vertices, E=edges)


REACHABILITY_HEAD, REACHABILITY = reachability_query()

# name -> (evaluate(statistics), normalize, answer,
#          relations_tried, first_order_bindings, satisfaction_calls)
SECOND_ORDER_ENTRIES = {
    "even_persons4": (
        lambda statistics: evaluate_sentence(
            even_cardinality_sentence(),
            DatabaseInstance.build(SO_PERSON_SCHEMA, PERSON=PERSONS),
            statistics=statistics,
        ),
        bool, True, 1344, 12785, 23393,
    ),
    "colourable_cycle4": (
        lambda statistics: evaluate_sentence(
            three_colorability_sentence(),
            _graph(CYCLE, [(CYCLE[i], CYCLE[(i + 1) % 4]) for i in range(4)]),
            statistics=statistics,
        ),
        bool, True, 114, 354, 2771,
    ),
    "reach_chain3": (
        lambda statistics: evaluate_query(
            REACHABILITY_HEAD, REACHABILITY, _graph(["v0", "v1", "v2"], CHAIN3),
            statistics=statistics,
        ),
        lambda relation: set(relation.tuples), CLOSURE3, 1998, 18081, 48666,
    ),
}


@pytest.mark.parametrize("name", sorted(SECOND_ORDER_ENTRIES))
def test_second_order_answers_and_counters_are_pinned(name):
    evaluate, normalize, answer, relations, bindings, calls = SECOND_ORDER_ENTRIES[name]
    statistics = SOEvaluationStatistics()
    assert normalize(evaluate(statistics)) == answer
    assert statistics.relations_tried == relations
    assert statistics.first_order_bindings == bindings
    assert statistics.satisfaction_calls == calls


def test_polynomial_baselines_answer_the_same_closure():
    fixpoint = fixpoint_closure().run(PARENTS3)
    datalog = evaluate_program(datalog_closure("PAR", "TC"), {"PAR": Relation(2, CHAIN3)})
    assert _pairs(fixpoint.output.values) == CLOSURE3
    assert set(datalog["TC"].tuples) == CLOSURE3


@pytest.mark.parametrize(
    "budget, bindings, calls, hits, misses, enumerations",
    [
        (5, 6, 12, 0, 2, {"[U, U]": 5, "{[U, U]}": 1}),
        (700, 701, 1977, 156, 118, {"[U, U]": 653, "{[U, U]}": 48}),
    ],
)
def test_binding_budget_fires_at_the_pinned_counters(
    budget, bindings, calls, hits, misses, enumerations
):
    statistics = EvaluationStatistics()
    formula = transitive_closure_query().formula
    with pytest.raises(BudgetExceededError, match=f"binding budget of {budget}$"):
        satisfies(
            PARENTS3, formula, {"z": make_tuple("v0", "v2")}, PARENTS3.active_domain(),
            EvaluationSettings(binding_budget=budget), statistics,
        )
    assert statistics.bindings_tried == bindings
    assert statistics.satisfaction_calls == calls
    assert statistics.memo_hits == hits
    assert statistics.memo_misses == misses
    assert statistics.quantifier_enumerations == enumerations


def test_output_candidate_budget_keeps_its_own_message():
    # No quantifier: the output enumeration runs out before the binding count does.
    identity = CalculusQuery(PARENT_SCHEMA, "t", PAIR_OF_ATOMS, PredicateAtom("PAR", var("t")))
    with pytest.raises(BudgetExceededError, match="enumeration of output candidates"):
        evaluate_query_detailed(identity, PARENTS3, EvaluationSettings(binding_budget=5))


@pytest.mark.parametrize(
    "evaluate, budget, relations, bindings, calls",
    [
        (
            lambda settings, statistics: evaluate_sentence(
                even_cardinality_sentence(),
                DatabaseInstance.build(SO_PERSON_SCHEMA, PERSON=PERSONS),
                settings,
                statistics,
            ),
            3, 4, 20, 37,
        ),
        (
            lambda settings, statistics: evaluate_query(
                REACHABILITY_HEAD, REACHABILITY, _graph(["v0", "v1", "v2"], CHAIN3),
                settings, statistics,
            ),
            100, 101, 514, 1378,
        ),
    ],
)
def test_relation_budget_fires_at_the_pinned_counters(evaluate, budget, relations, bindings, calls):
    statistics = SOEvaluationStatistics()
    with pytest.raises(EvaluationError, match=f"relation budget of {budget}$"):
        evaluate(SOEvaluationSettings(relation_budget=budget), statistics)
    assert statistics.relations_tried == relations
    assert statistics.first_order_bindings == bindings
    assert statistics.satisfaction_calls == calls
