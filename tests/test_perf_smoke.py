"""Fast perf-contract checks (``pytest -m perf_smoke``), run in tier-1.

Timing assertions are flaky on shared machines, so these contracts are
expressed structurally — work counters, canonical-instance identity, cache
reuse — over tiny workloads, plus a floor check over the recorded
``benchmarks/BENCH_*.json`` reports.  The real measurements live in
``benchmarks/bench_values.py`` and ``benchmarks/bench_datalog.py``.
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
from repro.objects.values import Atom, TupleValue, interning
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
    with interning(True):
        rows = [TupleValue([Atom("a"), Atom(i % 3)]) for i in range(60)]
        assert len({id(row) for row in rows}) == 3
    with interning(False):
        rows = [TupleValue([Atom("a"), Atom(i % 3)]) for i in range(60)]
        assert len({id(row) for row in rows}) == 60


def test_constructive_domain_enumeration_is_shared():
    """Re-enumerating the same ``cons_Y(T)`` must replay one shared buffer
    (identical objects), not regenerate the domain."""
    type_ = parse_type("{[U, U]}")
    atoms = frozenset({"a", "b"})
    with interning(True):
        clear_constructive_domain_cache()
        first = list(iter_constructive_domain(type_, atoms))
        second = list(iter_constructive_domain(type_, atoms))
        assert all(x is y for x, y in zip(first, second))
        assert len(first) == len(second) == 2 ** 4
    with interning(False):
        first = list(iter_constructive_domain(type_, atoms))
        second = list(iter_constructive_domain(type_, atoms))
        assert first == second
        assert not all(x is y for x, y in zip(first, second))


def test_failed_enumeration_does_not_poison_the_domain_cache():
    """If generation raises mid-enumeration, every later consumer of the
    shared buffer must see the same error — never a silently truncated
    domain."""
    from repro.errors import ObjectModelError
    from repro.types.type_system import U

    # A ComplexValue is hashable (so it reaches enumeration) but is an
    # invalid Atom payload, so Atom() raises mid-generation.
    bad_atoms = frozenset({"a", Atom("poison")})
    with interning(True):
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
    from repro.views import Database, mvcc_enabled
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
    assert len(builds) == (2 if mvcc_enabled() else 1)
