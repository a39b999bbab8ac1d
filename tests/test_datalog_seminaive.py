"""Engine-vs-oracle sweeps for semi-naive Datalog evaluation.

The semi-naive evaluator (:func:`repro.datalog.evaluate_program`) must
compute exactly the same fixpoint as the retained naive oracle
(:func:`repro.datalog.evaluate_program_naive`) on every program — swept
here over :func:`repro.workloads.random_datalog_program` (recursion,
negation, constants, repeated variables) and the classic builders.  The
random sweep also runs from cleared intern tables (the ``ablation`` cells):
Datalog rows are plain Python tuples, and the sweep pins that the evaluator
does not depend on which value instances the runtime holds.
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    DatalogStatistics,
    evaluate_program,
    evaluate_program_naive,
    same_generation_program,
    transitive_closure_program,
)
from repro.datalog.builders import non_reachable_program
from repro.objects.values import clear_intern_tables
from repro.relational.relation import Relation
from repro.workloads import (
    chain_pairs,
    cycle_pairs,
    random_datalog_program,
    random_edge_relation,
    random_graph_pairs,
)


def assert_same_fixpoint(program, edb):
    semi = evaluate_program(program, edb)
    naive = evaluate_program_naive(program, edb)
    assert set(semi) == set(naive)
    for predicate in semi:
        assert semi[predicate] == naive[predicate], predicate


@pytest.mark.parametrize("fresh_tables", [False, True], ids=["interned", "ablation"])
@pytest.mark.parametrize("seed", range(25))
def test_random_programs_match_naive_oracle(seed, fresh_tables):
    if fresh_tables:
        clear_intern_tables()
    program = random_datalog_program(seed=seed)
    edb = {"e": random_edge_relation(6, 10, seed=seed)}
    assert_same_fixpoint(program, edb)


@pytest.mark.parametrize("seed", range(25, 40))
def test_random_programs_with_heavy_negation(seed):
    program = random_datalog_program(
        seed=seed, idb_count=4, rules_per_predicate=3, negation_probability=0.6
    )
    edb = {"e": random_edge_relation(5, 8, seed=seed)}
    assert_same_fixpoint(program, edb)


@pytest.mark.parametrize(
    "pairs",
    [
        chain_pairs(12),
        cycle_pairs(9),
        random_graph_pairs(10, 25, seed=3),
        [],
    ],
    ids=["chain", "cycle", "random", "empty"],
)
def test_classic_programs_match_naive_oracle(pairs):
    edb = {"par": Relation(2, pairs)}
    for program in (
        transitive_closure_program(),
        same_generation_program(),
        non_reachable_program(),
    ):
        assert_same_fixpoint(program, edb)


def test_idb_seed_facts_are_honoured():
    """Pre-existing IDB facts supplied alongside the EDB participate in the
    fixpoint exactly as under the naive oracle."""
    program = transitive_closure_program()
    edb = {
        "par": Relation(2, [("a", "b"), ("b", "c")]),
        "tc": Relation(2, [("x", "y")]),
    }
    assert_same_fixpoint(program, edb)
    semi = evaluate_program(program, edb)
    assert ("x", "y") in semi["tc"]
    assert ("a", "c") in semi["tc"]


def test_statistics_are_populated():
    program = transitive_closure_program()
    edb = {"par": Relation(2, chain_pairs(10))}
    stats = DatalogStatistics()
    evaluate_program(program, edb, statistics=stats)
    assert stats.rounds > 1
    assert stats.bindings > 0
    assert stats.derivations > 0


def test_fixpoint_on_the_last_permitted_round_is_not_an_error():
    """A fixpoint reached on exactly the max_iterations-th delta round
    must return quietly, not raise 'did not reach a fixpoint'."""
    from repro.datalog import evaluate_program, transitive_closure_program
    from repro.relational.relation import Relation
    from repro.workloads import chain_pairs

    program = transitive_closure_program()
    edb = {"par": Relation(2, chain_pairs(5))}
    baseline = evaluate_program(program, edb)
    # A 5-edge chain converges in a handful of rounds; find the exact
    # number, then re-run with precisely that budget.
    from repro.datalog import DatalogStatistics

    stats = DatalogStatistics()
    evaluate_program(program, edb, statistics=stats)
    exact = evaluate_program(program, edb, max_iterations=stats.rounds)
    assert exact == baseline
