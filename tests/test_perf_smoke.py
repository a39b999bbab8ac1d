"""Fast perf-contract checks (``pytest -m perf_smoke``), run in tier-1.

Timing assertions are flaky on shared machines, so these contracts are
expressed structurally — work counters, canonical-instance identity, cache
reuse — over tiny workloads, plus a floor check over the recorded
``benchmarks/BENCH_*.json`` reports.  The real measurements live in
``benchmarks/`` and ``perfbench/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.check_regressions import check_all
from repro.datalog import (
    DatalogStatistics,
    evaluate_program,
    evaluate_program_naive,
    transitive_closure_program,
)
from repro.objects.constructive import (
    clear_constructive_domain_cache,
    iter_constructive_domain,
)
from repro.objects.values import Atom, TupleValue
from repro.relational.relation import Relation
from repro.types.parser import parse_type
from repro.workloads import chain_pairs

pytestmark = pytest.mark.perf_smoke


def test_semi_naive_does_strictly_less_work():
    """Delta-driven firing must try far fewer candidate bindings than the
    naive re-derive-everything loop on a recursive workload."""
    program = transitive_closure_program()
    edb = {"par": Relation(2, chain_pairs(40))}
    semi_stats, naive_stats = DatalogStatistics(), DatalogStatistics()
    semi = evaluate_program(program, edb, statistics=semi_stats)
    naive = evaluate_program_naive(program, edb, statistics=naive_stats)
    assert semi["tc"] == naive["tc"]
    assert semi_stats.bindings < naive_stats.bindings / 4, (
        semi_stats,
        naive_stats,
    )


def test_interning_yields_canonical_instances():
    """Structurally equal constructions must be the same object, so hash
    and sort-key caches are shared across all consumers."""
    rows = [TupleValue([Atom("a"), Atom(i % 3)]) for i in range(60)]
    assert len({id(row) for row in rows}) == 3


def test_constructive_domain_enumeration_is_shared():
    """Re-enumerating the same ``cons_Y(T)`` must replay one shared buffer
    (identical objects), not regenerate the domain."""
    type_ = parse_type("{[U, U]}")
    atoms = frozenset({"a", "b"})
    clear_constructive_domain_cache()
    first = list(iter_constructive_domain(type_, atoms))
    second = list(iter_constructive_domain(type_, atoms))
    assert all(x is y for x, y in zip(first, second))
    assert len(first) == len(second) == 2 ** 4


def test_failed_enumeration_does_not_poison_the_domain_cache():
    """If generation raises mid-enumeration, every later consumer of the
    shared buffer must see the same error — never a silently truncated
    domain."""
    from repro.errors import ObjectModelError
    from repro.types.type_system import U

    # A ComplexValue is hashable (so it reaches enumeration) but is an
    # invalid Atom payload, so Atom() raises mid-generation.
    bad_atoms = frozenset({"a", Atom("poison")})
    clear_constructive_domain_cache()
    for _ in range(2):
        with pytest.raises(ObjectModelError):
            list(iter_constructive_domain(U, bad_atoms))


def test_relation_iteration_sorts_once():
    relation = Relation(2, [("b", "a"), ("a", "b"), ("c", "a")])
    assert list(relation) == list(relation)
    assert relation._sorted is not None  # the cached sorted view exists


def test_recorded_benchmark_reports_meet_their_floors():
    """The committed BENCH_*.json reports must satisfy their acceptance
    floors (the same gate ``python benchmarks/check_regressions.py`` runs)."""
    failures = check_all()
    assert not failures, "\n".join(failures)


def test_columnar_bulk_union_stays_columnar():
    """The bulk-union kernel must produce a column-backed result without
    materialising element objects (the representation the X22 speedup
    relies on), and actually run the merge kernel."""
    from repro.objects.columnar import columnar_settings, columnar_stats
    from repro.objects.values import make_set

    with columnar_settings(enabled=True, threshold=1):
        left = make_set([f"s{i:04d}" for i in range(300)])
        right = make_set([f"s{i:04d}" for i in range(150, 450)])
        before = columnar_stats()["kernel_union"]
        union = left.union(right)
        assert columnar_stats()["kernel_union"] == before + 1
        with pytest.raises(AttributeError):
            object.__getattribute__(union, "_elements")
        assert len(union) == 450


def test_engine_set_operations_take_the_columnar_path():
    """Scan-over-scan set operations in the engine must dispatch to the id
    columns when columnar storage is on, and the answer must equal the
    object path's."""
    from repro.algebra.expressions import PredicateExpression, Union
    from repro.algebra.evaluation import evaluate_expression
    from repro.objects.columnar import columnar_settings, columnar_stats
    from repro.objects.instance import DatabaseInstance
    from repro.types.parser import parse_type
    from repro.types.schema import DatabaseSchema

    schema = DatabaseSchema([("R", parse_type("[U, U]")), ("S", parse_type("[U, U]"))])
    database = DatabaseInstance.build(
        schema,
        R=[(f"a{i}", f"b{i}") for i in range(20)],
        S=[(f"a{i}", f"b{i}") for i in range(10, 30)],
    )
    expression = Union(PredicateExpression("R"), PredicateExpression("S"))
    with columnar_settings(enabled=True, threshold=1):
        before = columnar_stats()["engine_set_ops"]
        columnar_answer = evaluate_expression(expression, database)
        assert columnar_stats()["engine_set_ops"] == before + 1
    with columnar_settings(enabled=False):
        assert evaluate_expression(expression, database) == columnar_answer


def test_view_maintenance_takes_the_delta_path():
    """A select/project/join view must be maintained through per-node
    delta rules — never a full recompute — on mixed insert/delete
    traffic, with the maintenance counters proving which path ran and
    the Datalog counters proving resume beats recompute on inserts."""
    from repro.algebra.expressions import (
        ConstantOperand,
        PredicateExpression,
        Product,
        Projection,
        Selection,
        SelectionCondition,
    )
    from repro.calculus.builders import PARENT_SCHEMA
    from repro.datalog import transitive_closure_program
    from repro.views import Database, views_stats

    PAR = PredicateExpression("PAR")
    db = Database(PARENT_SCHEMA, {"PAR": chain_pairs(30)})
    db.views.define_algebra(
        "sel", Selection(PAR, SelectionCondition.eq(1, ConstantOperand("v3")))
    )
    db.views.define_algebra("proj", Projection(PAR, (2,)))
    db.views.define_algebra(
        "join", Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3))
    )
    tc = db.views.define_datalog("tc", transitive_closure_program(), edb={"par": "PAR"})
    before = views_stats()
    db.insert("PAR", [("v31", "v32"), ("v32", "v33")])
    db.transact({"PAR": ([("x", "y")], [("v0", "v1")])})
    after = views_stats()
    assert after["delta_batches"] - before["delta_batches"] == 6  # 3 views x 2 batches
    assert after["delta_node_applications"] > before["delta_node_applications"]
    assert after["recompute_node_applications"] == before["recompute_node_applications"]
    assert after["full_recomputes"] == before["full_recomputes"]
    # Insert-only traffic resumed the fixpoint; the deletion recomputed.
    assert after["datalog_resumes"] - before["datalog_resumes"] == 1
    assert after["datalog_recomputes"] - before["datalog_recomputes"] == 1
    assert tc.relation("tc") is not None


def test_datalog_resume_does_strictly_less_work_than_recompute():
    """Resuming the kept semi-naive state on an EDB delta must try far
    fewer candidate bindings than evaluating the grown EDB from scratch."""
    from repro.datalog import (
        SemiNaiveProgram,
        transitive_closure_program,
    )

    program = transitive_closure_program()
    edb = {"par": Relation(2, chain_pairs(40))}
    resumed = SemiNaiveProgram(program, edb)
    baseline_bindings = resumed.statistics.bindings
    resumed.statistics.bindings = 0
    resumed.resume({"par": [("v40", "v41"), ("v41", "v42")]})
    resume_bindings = resumed.statistics.bindings

    fresh = SemiNaiveProgram(
        program, {"par": Relation(2, chain_pairs(42))}
    )
    assert resumed.relations() == fresh.relations()
    assert resume_bindings < fresh.statistics.bindings / 4, (
        resume_bindings,
        fresh.statistics.bindings,
    )
    assert baseline_bindings > 0


def test_commits_apply_deltas_in_place_and_reads_build_the_instance(monkeypatch):
    """A commit costs O(delta): it updates the touched relation's live set
    in place and builds no ``Instance`` of it.  The first read after the
    commits builds exactly one, later reads at that epoch reuse it, and a
    pinned epoch left stale is built once, by the freeze."""
    import itertools
    import random

    from repro.algebra.expressions import (
        ConstantOperand,
        PredicateExpression,
        Product,
        Projection,
        Selection,
        SelectionCondition,
    )
    from repro.objects.instance import DatabaseInstance, Instance
    from repro.types.schema import DatabaseSchema
    from repro.views import Database
    from repro.workloads import random_update_stream

    fact_type, pair_type = parse_type("[U, U, U]"), parse_type("[U, U]")
    atoms = [f"x{i:02d}" for i in range(20)]
    fact = random.Random(14).sample(list(itertools.product(atoms, repeat=3)), 3000)
    db = Database(
        DatabaseSchema([("F", fact_type), ("DG", pair_type)]),
        {"F": fact, "DG": [(atom, f"g{i % 5}") for i, atom in enumerate(atoms)]},
    )
    F = PredicateExpression("F")

    def const(coordinate: int, value: str) -> SelectionCondition:
        return SelectionCondition.eq(coordinate, ConstantOperand(value))

    db.views.define_relational(
        "sel", Selection(F, SelectionCondition.conjunction(const(1, "x07"), const(2, "x03")))
    )
    db.views.define_relational("proj", Projection(F, (1,)))
    join_condition = SelectionCondition.conjunction(
        SelectionCondition.conjunction(SelectionCondition.eq(3, 4), const(5, "g1")),
        const(1, "x05"),
    )
    db.views.define_relational(
        "join", Selection(Product(F, PredicateExpression("DG")), join_condition)
    )
    fact_only = DatabaseSchema([("F", fact_type)])
    stream = random_update_stream(
        fact_only,
        atoms,
        batches=201,
        batch_size=4,
        seed=15,
        initial=DatabaseInstance(fact_only, {"F": fact}),
        insert_bias=0.5,
        enumeration_budget=len(atoms) ** 3,
    )
    before = db.instance("F")
    expected = set(before.values)

    builds = []
    trusted = Instance._from_trusted.__func__

    def counting(cls, type_, values, ids=None):
        if type_ == fact_type:
            builds.append(len(values))
        return trusted(cls, type_, values, ids)

    monkeypatch.setattr(Instance, "_from_trusted", classmethod(counting))
    for batch in stream[:200]:
        db.transact(batch)
        inserts, deletes = batch["F"]
        expected.difference_update(deletes)
        expected.update(inserts)
    assert builds == []

    after = db.instance("F")
    assert len(builds) == 1 and after.values == frozenset(expected)
    assert db.instance("F") is after and db.snapshot().instance("F") is after
    assert len(builds) == 1
    assert before.values == Instance(fact_type, fact).values  # untouched by the commits

    db.transact(stream[200])  # leaves F stale at the new epoch
    with db.pin():
        db.insert("F", [("new", "new", "new")])  # the freeze builds the pinned F
    assert len(builds) == 2


def test_compiled_formulas_are_cached_by_source(monkeypatch):
    """The calculus evaluator compiles a formula's structure once: the
    same query over another instance, or a formula that differs only in
    its constants, reuses the compiled source, and the cache stays bounded
    however many distinct formulas the process compiles."""
    from repro.calculus import evaluation
    from repro.calculus.builders import PARENT_SCHEMA, grandparent_query
    from repro.calculus.formulas import Equals, Not
    from repro.calculus.terms import Constant, var
    from repro.objects.instance import DatabaseInstance
    from repro.utils import pysource

    monkeypatch.setattr(pysource, "_COMPILED", {})
    query = grandparent_query()
    for edges in ([("a", "b"), ("b", "c")], [("x", "y"), ("y", "z"), ("z", "w")]):
        evaluation.evaluate_query(query, DatabaseInstance.build(PARENT_SCHEMA, PAR=edges))
        assert len(pysource._COMPILED) == 1

    database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b")])
    universe = database.active_domain()
    assignment = {"t": Atom("a")}
    for constant in ("a", "b"):
        formula = Equals(var("t"), Constant(constant))
        assert evaluation.satisfies(database, formula, assignment, universe) == (constant == "a")
    assert len(pysource._COMPILED) == 2

    # Each new formula nests one level deeper, so the bound is lowered to
    # keep the deepest one within the interpreter's recursion limit.
    monkeypatch.setattr(pysource, "_MAX_ENTRIES", 128)
    bound = pysource._MAX_ENTRIES
    formula = Equals(var("t"), var("t"))
    for depth in range(bound + 10):
        evaluation.satisfies(database, formula, assignment, universe)
        assert len(pysource._COMPILED) <= bound
        formula = Not(formula)


def test_compiled_second_order_formulas_are_cached_by_source(monkeypatch):
    """A second-order formula compiles once: its source does not depend on
    the database, so evaluating it over another database, of another
    domain size, reuses the compiled factory."""
    from repro.objects.instance import DatabaseInstance
    from repro.second_order import GRAPH_SCHEMA, evaluate_query, reachability_query
    from repro.utils import pysource

    monkeypatch.setattr(pysource, "_COMPILED", {})
    head, formula = reachability_query()
    for vertices, edges in (("ab", [("a", "b")]), ("xyz", [("x", "y"), ("y", "z")])):
        database = DatabaseInstance.build(GRAPH_SCHEMA, V=list(vertices), E=edges)
        assert set(evaluate_query(head, formula, database).tuples) >= set(edges)
        assert len(pysource._COMPILED) == 1


def test_compiled_source_cache_is_bounded_by_size(monkeypatch):
    """The compiled-source cache also bounds the source text it holds: a
    formula whose source alone exceeds the bound is compiled but not kept,
    and smaller ones never push the total over it."""
    from repro.calculus import evaluation
    from repro.calculus.builders import PARENT_SCHEMA
    from repro.calculus.formulas import Equals, Not
    from repro.calculus.terms import var
    from repro.objects.instance import DatabaseInstance
    from repro.utils import pysource

    bound = 4_000
    monkeypatch.setattr(pysource, "_COMPILED", {})
    monkeypatch.setattr(pysource, "_MAX_SOURCE_CHARS", bound)
    database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b")])
    universe = database.active_domain()
    assignment = {"t": Atom("a")}
    small = Equals(var("t"), var("t"))
    assert evaluation.satisfies(database, small, assignment, universe)
    (small_key,) = pysource._COMPILED

    large = small
    for _ in range(200):
        large = Not(large)
    assert evaluation.satisfies(database, large, assignment, universe)
    assert list(pysource._COMPILED) == [small_key]

    formula = small
    for _ in range(120):
        formula = Not(formula)
        evaluation.satisfies(database, formula, assignment, universe)
        assert sum(len(source) for _, source in pysource._COMPILED) <= bound
    assert max(len(source) for _, source in pysource._COMPILED) > bound // 2


def test_fused_function_cache_is_bounded(monkeypatch):
    """The engine's compiled-function cache is cleared before it would pass
    its entry cap or its source-size cap, so ad hoc queries with new plan
    structures cannot grow it without limit."""
    import importlib

    from repro.algebra.evaluation import evaluate_expression
    from repro.calculus.builders import PARENT_SCHEMA
    from repro.errors import EvaluationError
    from repro.workloads import random_algebra_expression, random_database

    from repro.utils import pysource

    codegen = importlib.import_module("repro.engine.codegen")
    database = random_database(PARENT_SCHEMA, ["a", "b", "v0", "v1"], count=6, seed=3)

    def sweep():
        compiled = codegen.codegen_stats()["fragments_compiled"]
        for seed in range(60):
            expression = random_algebra_expression(PARENT_SCHEMA, seed=seed, size=6)
            try:
                evaluate_expression(expression, database)
            except EvaluationError:
                pass
            yield pysource._COMPILED
        assert codegen.codegen_stats()["fragments_compiled"] - compiled > 4

    for caps in ((4, 1 << 20), (1024, 600)):
        monkeypatch.setattr(pysource, "_COMPILED", {})
        monkeypatch.setattr(codegen, "_PREPARED", {})
        monkeypatch.setattr(pysource, "_MAX_ENTRIES", caps[0])
        monkeypatch.setattr(pysource, "_MAX_SOURCE_CHARS", caps[1])
        # Fragments compile only with codegen on, which CI also ablates.
        with codegen.codegen(True):
            for functions in sweep():
                assert len(functions) <= caps[0]
                assert sum(len(source) for _generator, source in functions) <= caps[1]


def test_finished_domains_replay_as_lists_and_partial_ones_stay_lazy(monkeypatch):
    """A fully enumerated ``cons_Y(T)`` replays as a plain list iterator; a
    partly consumed one has generated only the values its consumers
    pulled."""
    from repro.objects import constructive

    type_ = parse_type("{[U, U]}")
    generated = []
    enumerate_ = constructive._enumerate

    def counting(enumerated_type, atoms):
        for value in enumerate_(enumerated_type, atoms):
            if enumerated_type == type_:
                generated.append(value)
            yield value

    monkeypatch.setattr(constructive, "_enumerate", counting)
    clear_constructive_domain_cache()
    view = constructive.constructive_domain_view(type_, frozenset({"a", "b"}))
    first, second = iter(view), iter(view)
    pulled = [next(first) for _ in range(3)] + [next(second) for _ in range(5)]
    assert len(generated) == 5
    assert pulled[:3] == pulled[3:6]
    assert type(iter(view)) is not type(iter([]))

    assert len(list(view)) == 2 ** 4 == len(generated)
    assert type(iter(view)) is type(iter([]))
    assert list(view) == generated
