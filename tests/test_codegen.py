"""Differential suite for fused pipeline code generation.

The oracle pattern of ``test_vectorized_filter.py`` extended one axis
further: random pipeline queries are evaluated with codegen on and off,
each with the columnar dispatch threshold at 1 (masks and id-array
kernels on every stored container) and at ``sys.maxsize`` (none), and all
four cells must produce identical answers — matching the legacy
tree-walking oracle — with engagement counters asserting that fused
fragments genuinely ran in the codegen-on cells (a silent fallback to the
interpreting generators cannot fake a pass).  On top of the sweep:
fragment-cache correctness (structurally identical plans from different
source expressions share one compiled function), explain's verbose fusion
annotations against the runtime counters, the emitted-source shape, and
the views maintainer's reuse of the compiled predicate cache on delta
batches.

Selectable standalone with ``pytest -m codegen``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from itertools import product

import pytest

from repro.errors import EvaluationError
from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.algebra.expressions import (
    ConstantOperand,
    PredicateExpression,
    Projection,
    Selection,
    SelectionCondition,
    Union,
)
from repro.engine import (
    CompileOptions,
    analyze_plan,
    codegen,
    codegen_stats,
    compile_expression,
    execute_plan,
    explain_plan,
)
from repro.engine.codegen import compiled_predicate, fragment_for
from repro.objects.columnar import columnar_settings
from repro.objects.stats import reset_runtime_stats, runtime_stats
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.types.type_system import TupleType, U
from repro.views import Database
from repro.workloads import (
    random_algebra_expression,
    random_database,
    random_pipeline_query,
    random_update_stream,
)

pytestmark = pytest.mark.codegen

PIPELINE_SCHEMA = DatabaseSchema(
    [
        ("R", parse_type("[U, U]")),
        ("S", parse_type("[U, U]")),
        ("T", parse_type("[U, U, U]")),
        ("M", parse_type("[U, {U}]")),
    ]
)

ATOMS = ["a", "b", "v0", "v1", "v2"]

STRICT = AlgebraEvaluationSettings(engine_logical_optimize=False)
DEFAULT = AlgebraEvaluationSettings()

#: The codegen × columnar-threshold mode cube: threshold 1 makes the
#: mask/kernel fast paths genuinely engage on tiny instances,
#: ``sys.maxsize`` keeps every container on the per-tuple and object paths.
MODE_CUBE = list(product((True, False), (1, sys.maxsize)))


@contextmanager
def representation(codegen_on, threshold):
    """One cell of the mode cube."""
    with codegen(codegen_on):
        with columnar_settings(threshold=threshold):
            yield


def _database():
    return random_database(PIPELINE_SCHEMA, ATOMS, count=12, seed=5)


# -- the differential sweep ----------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_pipeline_queries_agree_across_the_mode_cube(seed):
    database = _database()
    expression = random_pipeline_query(PIPELINE_SCHEMA, seed=seed, depth=5)
    oracle = evaluate_expression_legacy(expression, database)
    for cell in MODE_CUBE:
        codegen_on = cell[0]
        for settings in (STRICT, DEFAULT):
            with representation(*cell):
                before = codegen_stats()
                answer = evaluate_expression(expression, database, settings)
                after = codegen_stats()
            assert answer == oracle, (cell, expression)
            fused = after["fragments_fused"] - before["fragments_fused"]
            if codegen_on:
                assert fused > 0, (cell, expression)
            else:
                assert fused == 0, cell


@pytest.mark.parametrize("seed", range(20))
def test_random_algebra_expressions_agree_with_codegen(seed):
    """The general expression generator (powerset, collapse and friends
    included) pits the fused executor against the interpreting one and
    the legacy oracle — fragments fall back wholesale where codegen does
    not cover the plan, and answers never change."""
    nested = DatabaseSchema(
        [("R", parse_type("[U, {U}]")), ("S", parse_type("{U}")), ("NAME", parse_type("U"))]
    )
    for schema, database in (
        (PIPELINE_SCHEMA, _database()),
        (nested, random_database(nested, ["a", "b", "v0"], count=5, seed=12)),
    ):
        expression = random_algebra_expression(schema, seed=seed, size=8)
        try:
            oracle = evaluate_expression_legacy(expression, database)
        except EvaluationError:
            with codegen(True), pytest.raises(EvaluationError):
                evaluate_expression(expression, database, STRICT)
            continue
        with codegen(True):
            fused = evaluate_expression(expression, database, STRICT)
        with codegen(False):
            interpreted = evaluate_expression(expression, database, STRICT)
        assert fused == interpreted == oracle, (seed, expression)


# -- fragment cache correctness ------------------------------------------------

def test_structurally_identical_plans_share_one_compiled_fragment():
    """Two plans with the same structure but different predicates and
    constants must resolve to the *same* compiled function: names and
    constants are bound through env, so the emitted source — the
    structural cache key — is identical."""
    first = Projection(
        Selection(PredicateExpression("R"), SelectionCondition.eq(1, ConstantOperand("a"))),
        (2,),
    )
    second = Projection(
        Selection(PredicateExpression("S"), SelectionCondition.eq(1, ConstantOperand("b"))),
        (2,),
    )
    database = _database()
    schema = database.schema
    with codegen(True):
        plan_first = compile_expression(first, schema, CompileOptions())
        plan_second = compile_expression(second, schema, CompileOptions())
        fragment_first = fragment_for(plan_first.root)
        fragment_second = fragment_for(plan_second.root)
        assert fragment_first is not None and fragment_second is not None
        assert fragment_first.source == fragment_second.source
        assert fragment_first.digest == fragment_second.digest
        assert fragment_first.function is fragment_second.function

        # The counters tell the same story end-to-end: evaluating a third
        # structurally identical expression compiles nothing new.
        third = Projection(
            Selection(
                PredicateExpression("T"), SelectionCondition.eq(1, ConstantOperand("v0"))
            ),
            (2,),
        )
        before = codegen_stats()
        evaluate_expression(third, database, STRICT)
        after = codegen_stats()
    assert after["fragments_compiled"] == before["fragments_compiled"]
    assert after["cache_hits"] - before["cache_hits"] >= 1
    assert after["fragments_fused"] - before["fragments_fused"] >= 1


# -- explain annotations ---------------------------------------------------------

def test_explain_verbose_annotations_match_fallback_counters():
    """The per-node fusion statuses explain prints are the exact dispatch
    the executor takes: fallback annotations equal the runtime fallback
    counter delta, fused roots equal the fragments-fused delta."""
    expression = Union(
        Projection(
            Selection(PredicateExpression("R"), SelectionCondition.eq(1, 2)), (1,)
        ),
        Projection(PredicateExpression("M"), (1,)),
    )
    database = _database()
    plan = compile_expression(expression, database.schema, CompileOptions())
    with codegen(True):
        statuses = analyze_plan(plan)
        text = explain_plan(plan, verbose=True)
        before = codegen_stats()
        execute_plan(plan, database)
        after = codegen_stats()
    fallback_nodes = [i for i, s in statuses.items() if s["status"] == "fallback"]
    fused_roots = [s for s in statuses.values() if s["status"] == "fused-root"]
    assert after["fallbacks"] - before["fallbacks"] == len(fallback_nodes)
    assert after["fragments_fused"] - before["fragments_fused"] == len(fused_roots)
    assert text.count("⟦fallback⟧") == len(fallback_nodes)
    for status in fused_roots:
        assert f"key={status['key']}" in text


def test_explain_verbose_flags_powerset_fallback_and_codegen_off():
    from repro.algebra.expressions import Collapse, Powerset

    expression = Collapse(Powerset(Projection(PredicateExpression("R"), (1,))))
    database = _database()
    plan = compile_expression(
        expression, database.schema, CompileOptions(logical_optimize=False)
    )
    with codegen(True):
        statuses = analyze_plan(plan)
        before = codegen_stats()
        execute_plan(plan, database)
        after = codegen_stats()
    fallback_count = sum(1 for s in statuses.values() if s["status"] == "fallback")
    assert fallback_count >= 1  # collapse/powerset decline wholesale
    assert after["fallbacks"] - before["fallbacks"] == fallback_count
    with codegen(False):
        assert "⟦codegen-off⟧" in explain_plan(plan, verbose=True)


# -- emitted source shape --------------------------------------------------------

def test_emitted_source_for_a_scan_filter_project_chain():
    """The documented fragment shape: one flat loop, the vectorized mask
    call hoisted out of it, and the output TupleValue constructed only
    after the dedup check (survivor-only construction)."""
    expression = Projection(
        Selection(PredicateExpression("T"), SelectionCondition.eq(1, 2)), (3,)
    )
    database = _database()
    plan = compile_expression(expression, database.schema, CompileOptions())
    with codegen(True), columnar_settings(threshold=1):
        fragment = fragment_for(plan.root)
        rows = execute_plan(plan, database)
    source = fragment.source
    assert source.startswith("def _fragment(env):")
    # Mask building happens once, outside the row loop, over the scan's
    # cached id columns.
    assert ".coordinate_ids(" in source
    assert "_cdispatch" in source
    # Survivor-only TupleValue construction: every construction site sits
    # after (deeper than) its dedup membership test.
    assert "_TupleValue" in source
    for line in source.splitlines():
        if "_TupleValue(" in line:
            assert line.lstrip().startswith("_append") or "=" in line
    assert "yield" not in source  # fragments are flat loops, not generators
    with codegen(False):
        assert set(execute_plan(plan, database)) == set(rows)


# -- views: delta batches reuse the compiled predicate cache ---------------------

def test_view_maintenance_reuses_compiled_predicates():
    condition = SelectionCondition.eq(1, ConstantOperand("v0"))
    expression = Selection(PredicateExpression("R"), condition)
    base = random_database(PIPELINE_SCHEMA, ATOMS, count=10, seed=3)
    stream = random_update_stream(
        PIPELINE_SCHEMA, ATOMS, batches=6, batch_size=4, seed=3, initial=base
    )
    with codegen(True):
        db = Database.from_instance(base)
        view = db.views.define_algebra("v", expression)
        before = codegen_stats()
        for batch in stream:
            db.transact(batch)
        after = codegen_stats()
        assert view.value() == evaluate_expression(expression, db.snapshot())
    # The per-batch residual/filter checks hit the process-wide predicate
    # cache instead of re-walking the condition tree per row.
    engaged = (
        after["predicates_compiled"]
        + after["predicate_cache_hits"]
        - before["predicates_compiled"]
        - before["predicate_cache_hits"]
    )
    assert engaged >= 1
    with codegen(False):
        db_off = Database.from_instance(base)
        view_off = db_off.views.define_algebra("v", expression)
        for batch in stream:
            db_off.transact(batch)
        assert view_off.value() == view.value()


def test_compiled_predicate_matches_condition_holds():
    from repro.algebra.evaluation import condition_holds

    tuple_type = TupleType([U, U])
    condition = SelectionCondition.disjunction(
        SelectionCondition.eq(1, 2),
        SelectionCondition.negation(SelectionCondition.eq(2, ConstantOperand("b"))),
    )
    with codegen(True):
        predicate = compiled_predicate(condition, tuple_type)
        again = compiled_predicate(condition, tuple_type)
    assert predicate is not None and again is predicate
    database = _database()
    for row in database.instance("R"):
        assert predicate(row.components) == condition_holds(condition, row)
    with codegen(False):
        assert compiled_predicate(condition, tuple_type) is None


# -- stats plumbing --------------------------------------------------------------

def test_runtime_stats_exposes_and_resets_the_codegen_family():
    database = _database()
    expression = Selection(PredicateExpression("R"), SelectionCondition.eq(1, 2))
    with codegen(True):
        evaluate_expression(expression, database, STRICT)
    stats = runtime_stats()
    assert "codegen" in stats
    assert set(stats["codegen"]) >= {
        "fragments_compiled",
        "fragments_fused",
        "cache_hits",
        "rows_emitted",
        "fallbacks",
    }
    reset_runtime_stats()
    assert all(value == 0 for value in runtime_stats()["codegen"].values())


def test_pipeline_generator_is_deterministic():
    first = random_pipeline_query(PIPELINE_SCHEMA, seed=9, depth=6)
    second = random_pipeline_query(PIPELINE_SCHEMA, seed=9, depth=6)
    assert str(first) == str(second)


def test_fused_fragments_intern_like_the_interpreter():
    """Fused output values are the interpreter's canonical instances."""
    database = _database()
    expression = Projection(
        Selection(PredicateExpression("T"), SelectionCondition.eq(1, 2)), (2, 3)
    )
    with codegen(True):
        fused = evaluate_expression(expression, database, STRICT)
    with codegen(False):
        interpreted = evaluate_expression(expression, database, STRICT)
    assert fused == interpreted and fused.values
    canonical = {value: value for value in interpreted.values}
    assert all(canonical[value] is value for value in fused.values)
