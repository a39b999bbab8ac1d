"""Property-based differential suite for the columnar set storage.

The oracle pattern of ``test_engine_equivalence.py`` extended to the
representation axis: every random workload is evaluated with the columnar
dispatch threshold at 1 (the id-array kernels genuinely engage on the small
random instances, asserted via the kernel counters, so a silent fallback to
the object path cannot fake a pass) and at ``sys.maxsize`` (the object path
everywhere), and both must produce identical answers — across the algebra
oracle, the engine, the flat relational algebra and the Datalog
evaluators.

Selectable standalone with ``pytest -m columnar``.
"""

from __future__ import annotations

import sys
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
from repro.objects.columnar import columnar_settings, columnar_stats
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

#: The cells every parametrized sweep runs: ``(columnar_on, fresh_tables)``;
#: a ``columnar`` cell sets the dispatch threshold to 1, an ``object`` cell
#: to ``sys.maxsize``.  An ``ablation`` cell clears the intern tables first,
#: so the values it builds are equal to, but not the same instances as, the
#: ones the process-wide caches kept from earlier cells.
MODES = [
    pytest.param(True, False, id="columnar-interned"),
    pytest.param(True, True, id="columnar-ablation"),
    pytest.param(False, False, id="object-interned"),
    pytest.param(False, True, id="object-ablation"),
]

STRICT = AlgebraEvaluationSettings(engine_logical_optimize=False)


@contextmanager
def representation(columnar_on: bool, fresh_tables: bool = False):
    """One mode cell: the dispatch threshold at 1 so tiny random workloads
    still hit the kernels, or at ``sys.maxsize`` so none does."""
    if fresh_tables:
        clear_intern_tables()
    with columnar_settings(threshold=1 if columnar_on else sys.maxsize):
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
    with columnar_settings(threshold=1):
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
    with pytest.raises(ObjectModelError):
        make_set(["a"]).union("not a set")
    with pytest.raises(ObjectModelError):
        make_set(["a"]).intersection(Atom("a"))


#: Every consumer of ``columnar_dispatch``: the ids of
#: :func:`test_one_threshold_selects_every_dispatch_consumer` and the keys
#: of :func:`_dispatch_consumers`.
DISPATCH_CONSUMERS = (
    "SetValue.union",
    "SetValue.intersection",
    "SetValue.difference",
    "relational.union",
    "relational.intersection",
    "relational.difference",
    "relational.select_where",
    "io.flat_instance",
    "interpreter.Filter",
    "codegen.Filter",
    "interpreter.SetOp",
    "codegen.SetOp",
)


def _dispatch_consumers():
    """Each consumer of ``columnar_dispatch`` as ``(a reading of its
    counter, the call that consults the threshold, the plan a codegen
    consumer fuses or None)``.  The flat-instance format of ``repro.io``
    has no counter, so its written format stands in for one."""
    from repro.algebra.expressions import (
        ConstantOperand,
        PredicateExpression,
        Selection,
        SelectionCondition,
        Union,
    )
    from repro.engine import CompileOptions, codegen, compile_expression
    from repro.engine.execute import execute_plan
    from repro.engine.plan import Filter, Scan, SetOp
    from repro.io.serialization import instance_from_data, instance_to_data
    from repro.objects.instance import DatabaseInstance
    from repro.objects.stats import runtime_stats

    left = make_set([f"d{i}" for i in range(12)])
    right = make_set([f"d{i}" for i in range(6, 18)])
    r_rows = [(f"d{i}", f"e{i % 3}") for i in range(12)]
    s_rows = [(f"d{i}", f"e{i % 3}") for i in range(6, 18)]
    r, s = Relation(2, r_rows), Relation(2, s_rows)
    database = DatabaseInstance.build(TWIN_SCHEMA, R=r_rows, S=s_rows)
    condition = SelectionCondition.eq(2, ConstantOperand("e1"))
    options = CompileOptions(logical_optimize=False, join_ordering=False)
    filter_plan, set_op_plan = (
        compile_expression(expression, TWIN_SCHEMA, options)
        for expression in (
            Selection(PredicateExpression("R"), condition),
            Union(PredicateExpression("R"), PredicateExpression("S")),
        )
    )
    assert isinstance(filter_plan.root, Filter) and isinstance(filter_plan.root.child, Scan)
    assert isinstance(set_op_plan.root, SetOp)
    assert all(isinstance(child, Scan) for child in set_op_plan.root.children())
    columnar_writes = []

    def write_flat_instance():
        data = instance_to_data(database.instance("R"))
        columnar_writes.append("columnar" in data)
        return instance_from_data(data)

    def stat(family, name):
        return lambda: runtime_stats()[family][name]

    def run(plan, fused):
        def execute():
            with codegen(fused):
                return execute_plan(plan, database)
        return execute

    return {
        "SetValue.union": (stat("columnar", "kernel_union"), lambda: left.union(right), None),
        "SetValue.intersection": (
            stat("columnar", "kernel_intersection"),
            lambda: left.intersection(right),
            None,
        ),
        "SetValue.difference": (
            stat("columnar", "kernel_difference"),
            lambda: left.difference(right),
            None,
        ),
        "relational.union": (stat("columnar", "kernel_union"), lambda: algebra.union(r, s), None),
        "relational.intersection": (
            stat("columnar", "kernel_intersection"),
            lambda: algebra.intersection(r, s),
            None,
        ),
        "relational.difference": (
            stat("columnar", "kernel_difference"),
            lambda: algebra.difference(r, s),
            None,
        ),
        "relational.select_where": (
            stat("vectorized", "batches"),
            lambda: algebra.select_where(r, condition),
            None,
        ),
        "io.flat_instance": (lambda: sum(columnar_writes), write_flat_instance, None),
        "interpreter.Filter": (stat("vectorized", "batches"), run(filter_plan, False), None),
        "codegen.Filter": (stat("vectorized", "batches"), run(filter_plan, True), filter_plan),
        "interpreter.SetOp": (
            stat("columnar", "engine_set_ops"),
            run(set_op_plan, False),
            None,
        ),
        "codegen.SetOp": (
            stat("columnar", "engine_set_ops"),
            run(set_op_plan, True),
            set_op_plan,
        ),
    }


@pytest.mark.parametrize("consumer", DISPATCH_CONSUMERS)
def test_one_threshold_selects_every_dispatch_consumer(consumer):
    """The size threshold is the only selector of the columnar and
    vectorized paths.  At threshold 1 the consumer moves its counter, at
    ``sys.maxsize`` it does not, and the answers are equal at both.  In
    codegen one cached fragment serves both thresholds, and the second
    threshold compiles nothing."""
    from repro.engine import codegen, codegen_stats
    from repro.engine.codegen import fragment_for

    consumers = _dispatch_consumers()
    assert set(consumers) == set(DISPATCH_CONSUMERS)
    count, call, fused_plan = consumers[consumer]
    answers, fragments, compiled = [], [], []
    for threshold in (1, sys.maxsize):
        with columnar_settings(threshold=threshold):
            before, fused = count(), codegen_stats()["fragments_fused"]
            answers.append(call())
            moved = count() - before
            assert moved > 0 if threshold == 1 else moved == 0, threshold
            if fused_plan is not None:
                assert codegen_stats()["fragments_fused"] > fused
                with codegen(True):
                    fragments.append(fragment_for(fused_plan.root))
                compiled.append(codegen_stats()["fragments_compiled"])
    assert answers[0] == answers[1]
    if fused_plan is not None:
        assert fragments[0] == fragments[1] and fragments[0] is not None
        assert compiled[0] == compiled[1]
