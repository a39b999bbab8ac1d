"""Property-based differential suite for the columnar set storage.

The oracle pattern of ``test_engine_equivalence.py`` extended to the
representation axis: every random workload is evaluated with columnar
storage on and off, and both must produce identical answers — across the
algebra oracle, the engine, the flat relational algebra and the Datalog
evaluators.  The sweeps force the dispatch threshold down to 1 so the
id-array kernels genuinely engage on the small random instances (asserted
via the kernel counters, so a silent fallback to the object path cannot
fake a pass).

Selectable standalone with ``pytest -m columnar``.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.errors import EvaluationError, ObjectModelError
from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.datalog.evaluation import evaluate_program, evaluate_program_naive
from repro.objects.columnar import (
    columnar_settings,
    columnar_stats,
    columnar_storage,
)
from repro.objects.values import Atom, clear_intern_tables, make_set
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.workloads import (
    random_algebra_expression,
    random_database,
    random_datalog_program,
    random_edge_relation,
    random_graph_pairs,
    random_objects,
)

pytestmark = pytest.mark.columnar

NESTED_SCHEMA = DatabaseSchema(
    [("R", parse_type("[U, {U}]")), ("S", parse_type("{U}")), ("NAME", parse_type("U"))]
)

#: Two same-typed flat predicates, so random set operations compile to
#: ``SetOp(Scan, Scan)`` — the engine's columnar fast path.
TWIN_SCHEMA = DatabaseSchema([("R", parse_type("[U, U]")), ("S", parse_type("[U, U]"))])

ATOMS = ["a", "b", "v0", "v1", "v2"]

#: The cells every parametrized sweep runs: ``(columnar_on, fresh_tables)``.
#: An ``ablation`` cell clears the intern tables first, so the values it
#: builds are equal to, but not the same instances as, the ones the
#: process-wide caches kept from earlier cells.
MODES = [
    pytest.param(True, False, id="columnar-interned"),
    pytest.param(True, True, id="columnar-ablation"),
    pytest.param(False, False, id="object-interned"),
    pytest.param(False, True, id="object-ablation"),
]

STRICT = AlgebraEvaluationSettings(engine_logical_optimize=False)


@contextmanager
def representation(columnar_on: bool, fresh_tables: bool = False):
    """One cell of the mode cube, with the dispatch threshold at 1 while
    columnar is on so tiny random workloads still hit the kernels."""
    if fresh_tables:
        clear_intern_tables()
    with columnar_settings(enabled=columnar_on, threshold=1 if columnar_on else None):
        yield


def _databases():
    return (
        (PARENT_SCHEMA, random_database(PARENT_SCHEMA, ATOMS, count=6, seed=21)),
        (NESTED_SCHEMA, random_database(NESTED_SCHEMA, ["a", "b", "v0"], count=5, seed=22)),
        (TWIN_SCHEMA, random_database(TWIN_SCHEMA, ATOMS, count=6, seed=23)),
    )


def _evaluate_everywhere(seed):
    """One seeded expression per database, evaluated by the oracle and by
    the engine (strict and optimized); returns the successful answers."""
    answers = []
    for schema, database in _databases():
        expression = random_algebra_expression(schema, seed=seed, size=7)
        try:
            oracle = evaluate_expression_legacy(expression, database)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate_expression(expression, database, STRICT)
            continue
        assert evaluate_expression(expression, database, STRICT) == oracle, (
            f"strict engine diverged from the oracle on seed {seed}: {expression}"
        )
        assert evaluate_expression(expression, database) == oracle, (
            f"optimized engine diverged from the oracle on seed {seed}: {expression}"
        )
        answers.append(oracle)
    return answers


@pytest.mark.parametrize("columnar_on,fresh_tables", MODES)
@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_algebra_and_engine_agree_in_every_mode(seed, columnar_on, fresh_tables):
    """Within each mode combination the engine must equal the oracle."""
    with representation(columnar_on, fresh_tables):
        _evaluate_everywhere(seed)


@pytest.mark.parametrize("seed", range(40))
def test_algebra_answers_agree_across_modes(seed):
    """Columnar storage on and off must produce the same instances."""
    with representation(False):
        reference = _evaluate_everywhere(seed)
    with representation(True):
        answers = _evaluate_everywhere(seed)
    assert answers == reference, f"columnar storage changed an answer on seed {seed}"


def test_engine_columnar_set_ops_actually_engage():
    """The cross-mode sweeps must not silently run the object path: with
    columnar on, the engine's SetOp fast path and the merge kernels fire."""
    with representation(True):
        before = columnar_stats()
        for seed in range(12):
            _evaluate_everywhere(seed)
        after = columnar_stats()
    assert after["engine_set_ops"] > before["engine_set_ops"]
    with representation(False):
        before = columnar_stats()
        _evaluate_everywhere(3)
        after = columnar_stats()
    assert after["engine_set_ops"] == before["engine_set_ops"]


@pytest.mark.parametrize("seed", range(40))
def test_datalog_agrees_in_every_mode(seed):
    """Semi-naive and naive Datalog agree with each other, with columnar
    storage on and off, on random stratifiable programs."""
    program = random_datalog_program(seed=seed)
    edb = {"e": random_edge_relation(seed=seed)}
    reference = None
    for columnar_on in (False, True):
        with representation(columnar_on):
            semi = evaluate_program(program, edb)
            naive = evaluate_program_naive(program, edb)
        assert semi == naive, f"semi-naive diverged from naive on seed {seed}"
        if reference is None:
            reference = semi
        else:
            assert semi == reference, f"columnar storage changed the Datalog answer on seed {seed}"


@pytest.mark.parametrize("seed", range(60))
def test_relational_set_operations_agree_across_modes(seed):
    """Columnar union/intersection/difference over random relations equal
    the object path, including lazily decoded results."""
    left = Relation(2, random_graph_pairs(8, 14, seed=seed))
    right = Relation(2, random_graph_pairs(8, 14, seed=seed + 1000))
    for operation in (algebra.union, algebra.intersection, algebra.difference):
        with representation(True):
            columnar_result = operation(left, right)
        with representation(False):
            object_result = operation(left, right)
        assert columnar_result == object_result
        assert object_result == columnar_result
        assert set(columnar_result.tuples) == set(object_result.tuples)
        assert len(columnar_result) == len(object_result)
        assert hash(columnar_result) == hash(object_result)


@pytest.mark.parametrize("seed", range(40))
def test_set_value_bulk_operations_agree_across_modes(seed):
    """Random complex-object sets: the bulk kernels equal the frozenset
    path for every operation."""
    type_ = parse_type("[U, {U}]")
    pool = random_objects(type_, ["a", "b", "v0"], 24, seed=seed)
    left, right = make_set(pool[:16]), make_set(pool[8:])
    with representation(False):
        expected = {
            "union": left.union(right),
            "intersection": left.intersection(right),
            "difference": right.difference(left),
        }
    with representation(True):
        assert left.union(right) == expected["union"]
        assert left.intersection(right) == expected["intersection"]
        assert right.difference(left) == expected["difference"]
        # The equality above may be answered on the id columns; the
        # materialized views must agree too.
        assert left.union(right).elements == expected["union"].elements
        assert sorted(left.union(right).sorted_elements()) == sorted(
            expected["union"].sorted_elements()
        )
        assert hash(left.intersection(right)) == hash(expected["intersection"])


def test_column_backed_sets_are_lazy_and_search_by_bisection():
    """A kernel result carries only its id column until a consumer demands
    elements, and membership runs as a binary search on that column."""
    with columnar_settings(enabled=True, threshold=1):
        left = make_set([f"a{i}" for i in range(64)])
        right = make_set([f"a{i}" for i in range(32, 96)])
        union = left.union(right)
        with pytest.raises(AttributeError):
            object.__getattribute__(union, "_elements")
        before = columnar_stats()["kernel_membership"]
        assert Atom("a0") in union
        assert Atom("a95") in union
        # A value the dictionary has never seen short-circuits before the
        # binary search — it cannot be in any column.
        assert Atom("a96") not in union
        assert "never-encoded" not in union
        assert columnar_stats()["kernel_membership"] >= before + 2
        # Still not materialized by membership probes or len().
        assert len(union) == 96
        with pytest.raises(AttributeError):
            object.__getattribute__(union, "_elements")
        # Forcing materialization produces exactly the object-path answer.
        assert union.elements == make_set([f"a{i}" for i in range(96)]).elements


def test_bulk_operations_reject_non_set_operands():
    with columnar_storage(True):
        with pytest.raises(ObjectModelError):
            make_set(["a"]).union("not a set")
        with pytest.raises(ObjectModelError):
            make_set(["a"]).intersection(Atom("a"))


def test_columnar_switch_is_restored_by_context_manager():
    from repro.objects.columnar import columnar_enabled

    initial = columnar_enabled()
    with columnar_storage(not initial):
        assert columnar_enabled() is not initial
    assert columnar_enabled() is initial
