"""Cost-based join ordering: statistics, cost model, rewrite, multiway joins.

The property sweep checks *answer equivalence*: the reordered/multiway
plans must produce exactly the instance the syntactic plan (and, at tiny
sizes, the legacy tree-walking oracle) produces, across the
joinorder × codegen mode cube.  The unit tests pin
the statistics layer's measurements, the cost model's bounded error on
seeded workloads, the never-fires regression for sub-2-relation plans,
the view-maintenance bypass, and the explain/analyze cardinality
reporting.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.algebra.expressions import (
    PredicateExpression,
    Selection,
    SelectionCondition,
)
from repro.engine import (
    CompileOptions,
    MultiwayHashJoin,
    PlanStatistics,
    _cached_plan,
    analyze_plan,
    clear_plan_cache,
    codegen,
    compile_expression,
    execute_plan,
    explain_plan,
    join_ordering,
    joinorder_stats,
    run_expression,
)
from repro.engine.cost import join_estimate, scan_estimate
from repro.engine.joinorder import DP_LIMIT
from repro.engine.stats import relation_stats, signature_stale
from repro.objects.instance import DatabaseInstance
from repro.types.schema import DatabaseSchema
from repro.types.type_system import U, tuple_type
from repro.views.database import Database
from repro.workloads import random_join_workload


def _result(expression, database, **settings):
    return evaluate_expression(
        expression, database, AlgebraEvaluationSettings(**settings)
    ).values


def _syntactic(expression, database):
    """The answer of the plan compiled in syntactic join order."""
    with join_ordering(False):
        return _result(expression, database)


# -- equivalence property sweep ----------------------------------------------------


@pytest.mark.parametrize("shape", ["chain", "star", "snowflake"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_joinorder_matches_legacy_oracle(shape, seed):
    """At tiny sizes the reordered engine answer equals naive evaluation."""
    relations = 4 if shape != "snowflake" else 5
    expression, database = random_join_workload(
        shape, relations=relations, rows=10, seed=seed
    )
    oracle = evaluate_expression_legacy(expression, database).values
    with join_ordering(True):
        assert _result(expression, database) == oracle
    assert _syntactic(expression, database) == oracle


@pytest.mark.parametrize("shape", ["chain", "star", "snowflake"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_joinorder_equivalence_sweep(shape, seed):
    """Ordered and syntactic plans agree with codegen on and off."""
    expression, database = random_join_workload(
        shape, relations=5, rows=48, seed=seed
    )
    reference = _syntactic(expression, database)
    for use_codegen in (True, False):
        with join_ordering(True), codegen(use_codegen):
            clear_plan_cache()
            assert _result(expression, database) == reference, (shape, seed, use_codegen)
    clear_plan_cache()


def test_joinorder_switch_restores_syntactic_plans():
    expression, database = random_join_workload("star", relations=5, rows=60, seed=1)
    statistics = PlanStatistics(database)
    with join_ordering(True):
        ordered = compile_expression(
            expression, database.schema, statistics=statistics
        )
    assert ordered.physical_rewrites
    with join_ordering(False):
        plain = compile_expression(
            expression, database.schema, statistics=PlanStatistics(database)
        )
    assert not plain.physical_rewrites
    assert not any(isinstance(node, MultiwayHashJoin) for node in plain.nodes)
    assert execute_plan(ordered, database).values == execute_plan(plain, database).values


# -- statistics layer --------------------------------------------------------------


def _star_db():
    schema = DatabaseSchema.of(
        F=tuple_type(U, U), D=tuple_type(U, U)
    )
    fact = [(f"k{i % 10}", f"p{i}") for i in range(40)]
    dim = [(f"k{i}", f"d{i}") for i in range(5)]  # overlaps keys k0..k4
    return DatabaseInstance.build(schema, F=fact, D=dim)


def test_relation_stats_measure_cardinality_and_distincts():
    database = _star_db()
    stats = relation_stats("F", database.instance("F"))
    assert stats.rows == 40
    assert stats.width == 2
    assert stats.distinct == (10, 40)
    # Cached on the instance object: same profile, no recomputation.
    assert relation_stats("F", database.instance("F")) is stats


def test_overlap_is_measured_not_assumed():
    database = _star_db()
    statistics = PlanStatistics(database)
    # F.1 has keys k0..k9, D.1 has k0..k4: the galloping probe sees 5.
    assert statistics.overlap("F", 1, "D", 1) == 5
    assert statistics.overlap("D", 1, "F", 1) == 5  # normalized cache key


def test_signature_staleness_thresholds():
    database = _star_db()
    statistics = PlanStatistics(database)
    statistics.relation("F")
    signature = statistics.signature()
    assert signature == (("F", 40),)
    assert not signature_stale(signature, database)
    # Growing past 2x (+ slack) flips the plan stale.
    grown = DatabaseInstance.build(
        database.schema,
        F=list(database.instance("F").values)
        + [(f"g{i}", f"q{i}") for i in range(100)],
        D=list(database.instance("D").values),
    )
    assert signature_stale(signature, grown)


# -- cost model --------------------------------------------------------------------


def test_join_estimate_uses_measured_overlap():
    database = _star_db()
    statistics = PlanStatistics(database)
    fact = scan_estimate(statistics.relation("F"))
    dim = scan_estimate(statistics.relation("D")).shifted(2)
    estimate = join_estimate(fact, dim, [(1, 3)], statistics)
    # 40 * 5 * overlap(5) / (10 * 5) = 20: exactly the matching fact rows
    # (keys are uniform), and the joined column's distinct becomes 5.
    assert estimate.rows == pytest.approx(20.0)
    assert estimate.distinct(1) == pytest.approx(5.0)


@pytest.mark.parametrize("shape,seed", [("star", 0), ("chain", 1), ("star", 2)])
def test_estimates_bounded_error_on_seeded_workloads(shape, seed):
    """Root estimates stay within a small constant factor of the truth."""
    expression, database = random_join_workload(shape, relations=4, rows=120, seed=seed)
    plan = compile_expression(
        expression, database.schema, statistics=PlanStatistics(database)
    )
    actual = len(execute_plan(plan, database))
    estimated = plan.root.estimated_rows
    assert estimated is not None
    low, high = sorted((max(actual, 1), max(estimated, 1)))
    assert high / low <= 8.0, (shape, seed, estimated, actual)


# -- rewrite regressions -----------------------------------------------------------


def test_ordering_never_fires_below_two_relations():
    schema = DatabaseSchema.of(R=tuple_type(U, U))
    database = DatabaseInstance.build(schema, R=[("a", "b"), ("c", "d")])
    single = Selection(PredicateExpression("R"), SelectionCondition.eq(1, 2))
    before = joinorder_stats()
    plan = compile_expression(
        single, database.schema, statistics=PlanStatistics(database)
    )
    after = joinorder_stats()
    assert not plan.physical_rewrites
    assert after["plans_considered"] == before["plans_considered"]
    assert after["subgraphs_considered"] == before["subgraphs_considered"]


def test_star_lowered_to_multiway_with_selective_build_first():
    expression, database = random_join_workload("star", relations=5, rows=200, seed=3)
    with join_ordering(True):
        plan = compile_expression(
            expression, database.schema, statistics=PlanStatistics(database)
        )
    multiway = [n for n in plan.nodes if isinstance(n, MultiwayHashJoin)]
    assert len(multiway) == 1
    node = multiway[0]
    assert len(node.builds) == 4
    # The probe is the fact table, and the selective dimension (D4 in the
    # generator: its keys cover ~1/20 of the fact domain) is probed first.
    assert node.probe.label() == "Scan(F)"
    assert node.builds[0].label() == "Scan(D4)"


def test_greedy_search_beyond_dp_limit():
    # Tiny rows: the unordered reference plan is a near-full cross product
    # (that is the point of ordering), so it only stays tractable when the
    # per-relation cardinality is minimal.
    relations = DP_LIMIT + 2
    expression, database = random_join_workload(
        "chain", relations=relations, rows=4, seed=5
    )
    before = joinorder_stats()["greedy_searches"]
    with join_ordering(True):
        plan = compile_expression(
            expression, database.schema, statistics=PlanStatistics(database)
        )
    assert joinorder_stats()["greedy_searches"] == before + 1
    reference = _syntactic(expression, database)
    assert execute_plan(plan, database).values == reference


def test_stale_statistics_trigger_one_recompile():
    expression, database = random_join_workload("star", relations=4, rows=60, seed=2)
    clear_plan_cache()
    try:
        stack = join_ordering(True)
        stack.__enter__()
        first = run_expression(expression, database)
        before = joinorder_stats()["stale_plan_recompiles"]
        # Same data: cached plan reused, no recompile.
        assert run_expression(expression, database).values == first.values
        assert joinorder_stats()["stale_plan_recompiles"] == before
        # Grow the fact table well past the 2x staleness threshold.
        contents = {
            name: list(database.instance(name).values)
            for name in database.schema.predicate_names
        }
        contents["F"] = contents["F"] + [
            (f"x{i}", f"y{i}", f"z{i}") for i in range(300)
        ]
        grown = DatabaseInstance.build(database.schema, **contents)
        run_expression(expression, grown)
        assert joinorder_stats()["stale_plan_recompiles"] == before + 1
    finally:
        stack.__exit__(None, None, None)
        clear_plan_cache()


def test_the_switch_governs_cached_plans():
    """The join-ordering switch is part of the plan cache's key: after an
    ordered run, the same expression under ``join_ordering(False)`` runs a
    syntactic plan, and switching back finds the ordered plan again."""
    expression, database = random_join_workload("star", relations=4, rows=60, seed=2)
    clear_plan_cache()
    try:
        with join_ordering(True):
            expected = run_expression(expression, database).values
            ordered = _cached_plan(expression, database, CompileOptions())
        with join_ordering(False):
            assert run_expression(expression, database).values == expected
            syntactic = _cached_plan(expression, database, CompileOptions())
        with join_ordering(True):
            assert _cached_plan(expression, database, CompileOptions()) is ordered
    finally:
        clear_plan_cache()
    assert ordered.physical_rewrites
    assert any(isinstance(node, MultiwayHashJoin) for node in ordered.nodes)
    assert not syntactic.physical_rewrites
    assert not any(isinstance(node, MultiwayHashJoin) for node in syntactic.nodes)


# -- views bypass ------------------------------------------------------------------


def test_views_compile_without_multiway_and_maintain_correctly():
    expression, database = random_join_workload("star", relations=4, rows=40, seed=4)
    mutable = Database(database.schema, {
        name: list(database.instance(name).values) for name in database.schema.predicate_names
    })
    view = mutable.views.define_algebra("joined", expression)
    assert not any(
        isinstance(node, MultiwayHashJoin) for node in view._maintainer.plan.nodes
    )
    assert not view._maintainer.plan.physical_rewrites
    mutable.insert("F", [("k0_0", "k1_0", "k2_0")])
    expected = evaluate_expression(expression, mutable.snapshot()).values
    assert view.value().values == expected


# -- explain / analyze -------------------------------------------------------------


def test_explain_reports_estimated_and_actual_cardinalities():
    expression, database = random_join_workload("star", relations=4, rows=80, seed=6)
    with join_ordering(True):
        plan = compile_expression(
            expression, database.schema, statistics=PlanStatistics(database)
        )
    rendered = explain_plan(plan, types=False, verbose=True, database=database)
    assert "est≈" in rendered
    assert "act=" in rendered
    assert "physical rewrites: join_order" in rendered

    annotations = analyze_plan(plan, database=database)
    scans = [a for a in annotations.values() if a["operator"] == "Scan"]
    assert scans
    for annotation in scans:
        # Scan estimates come straight from measured cardinalities — exact,
        # which is what distinguishes the stats layer from static guesses.
        assert annotation["estimated"] == annotation["actual"]
    root = annotations[plan.root.node_id]
    assert root["estimated"] is not None
    assert root["actual"] == len(execute_plan(plan, database))
    # Fusion statuses from the codegen analyzer are preserved.
    assert all("status" in a for a in annotations.values())


def test_runtime_stats_exposes_joinorder_family():
    from repro.objects import runtime_stats

    family = runtime_stats()["joinorder"]
    assert "multiway_joins" in family
    assert "overlap_probes" in family
    assert "stale_plan_recompiles" in family
