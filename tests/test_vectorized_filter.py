"""Property-based differential suite for the vectorized selection predicates.

The oracle pattern of ``test_columnar.py`` applied to selections: every
random selection workload is evaluated with the shared columnar dispatch
threshold at 1 (masks over every stored container, so the kernels
genuinely engage on the small random instances) and at ``sys.maxsize``
(per-tuple everywhere), each with codegen on and off, and all must
produce identical answers — across the algebra oracle, the engine (strict
and optimized), the nested algebra and the flat relational layer.  The
engagement counters are asserted so a silent fallback to the per-tuple
path cannot fake a pass.

Selectable standalone with ``pytest -m vectorized``.
"""

from __future__ import annotations

import random
import sys
from array import array
from contextlib import contextmanager

import pytest

from repro.errors import EvaluationError, TypingError
from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    condition_holds,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.algebra.expressions import (
    ConstantOperand,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
)
from repro.engine.codegen import codegen, codegen_enabled, codegen_stats
from repro.algebra.vectorized import compile_condition, vectorized_stats
from repro.calculus.builders import PARENT_SCHEMA
from repro.nested.evaluation import evaluate_nested
from repro.nested.expressions import NestedPredicate, NestedSelection
from repro.objects.columnar import (
    columnar_settings,
    columnar_stats,
    mask_and,
    mask_eq_columns,
    mask_eq_target,
    mask_fill,
    mask_not,
    mask_or,
)
from repro.objects.values import Atom, TupleValue, clear_intern_tables
from repro.relational import algebra as relational_algebra
from repro.relational.relation import Relation
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.types.type_system import TupleType, U
from repro.workloads import random_database, random_graph_pairs
from repro.workloads.generators import _random_condition

pytestmark = pytest.mark.vectorized

NESTED_SCHEMA = DatabaseSchema(
    [("R", parse_type("[U, {U}]")), ("S", parse_type("[U, U, {U}]"))]
)

ATOMS = ["a", "b", "v0", "v1", "v2"]

#: The columnar threshold of each cell: 1 masks every stored container,
#: ``sys.maxsize`` none.
THRESHOLDS = {"vectorized-columnar": 1, "scalar-object": sys.maxsize}

#: The cells every parametrized sweep runs: ``(threshold, interpreted,
#: fresh_tables)``.  An ``interpreted`` cell turns codegen off, so the
#: engine's selections run the interpreter's ``Filter`` and its mask
#: dispatch instead of a fused fragment.  An ``ablation`` cell clears the
#: intern tables first, so the values it builds are equal to, but not the
#: same instances as, the ones the process-wide caches kept from earlier
#: cells.
MODES = [
    pytest.param(
        threshold,
        interpreted,
        fresh_tables,
        id=(
            f"{'interpreted-' if interpreted else ''}{cell}"
            f"-{'ablation' if fresh_tables else 'interned'}"
        ),
    )
    for interpreted in (False, True)
    for cell, threshold in THRESHOLDS.items()
    for fresh_tables in (False, True)
]

STRICT = AlgebraEvaluationSettings(engine_logical_optimize=False)

PAR = PredicateExpression("PAR")


@contextmanager
def representation(threshold: int, fresh_tables: bool = False, interpreted: bool = False):
    """One mode cell: the shared dispatch threshold at 1 so tiny random
    workloads still take the kernels, or at ``sys.maxsize`` so none does;
    *interpreted* turns codegen off."""
    if fresh_tables:
        clear_intern_tables()
    with codegen(codegen_enabled() and not interpreted):
        with columnar_settings(threshold=threshold):
            yield


def _selection_cases(seed: int):
    """Seeded random selection expressions with their schema and database."""
    rng = random.Random(seed)
    flat_db = random_database(PARENT_SCHEMA, ATOMS, count=12, seed=seed)
    nested_db = random_database(NESTED_SCHEMA, ["a", "b", "v0"], count=10, seed=seed + 500)
    cases = []
    flat_type = TupleType([U, U])
    for _ in range(3):
        condition = _random_condition(flat_type, rng)
        if condition is not None:
            cases.append((Selection(PAR, condition), flat_db))
    product_type = TupleType([U, U, U, U])
    for _ in range(2):
        condition = _random_condition(product_type, rng)
        if condition is not None:
            cases.append((Selection(Product(PAR, PAR), condition), flat_db))
    member_type = parse_type("[U, {U}]")
    set_row_type = parse_type("[U, U, {U}]")
    for _ in range(3):
        condition = _random_condition(member_type, rng)
        if condition is not None:
            cases.append((Selection(PredicateExpression("R"), condition), nested_db))
        condition = _random_condition(set_row_type, rng)
        if condition is not None:
            cases.append((Selection(PredicateExpression("S"), condition), nested_db))
    return cases


def _evaluate_everywhere(seed: int):
    """Evaluate every seeded selection with the oracle and the engine
    (strict and optimized); returns the successful answers."""
    answers = []
    for expression, database in _selection_cases(seed):
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


@pytest.mark.parametrize("threshold,interpreted,fresh_tables", MODES)
@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_selections_agree_in_every_mode(seed, threshold, interpreted, fresh_tables):
    """Within each mode cell the engine must equal the oracle."""
    with representation(threshold, fresh_tables, interpreted):
        _evaluate_everywhere(seed)


@pytest.mark.parametrize("seed", range(30))
def test_selection_answers_agree_across_modes(seed):
    """Both thresholds must produce the same instances."""
    reference = None
    for cell, threshold in THRESHOLDS.items():
        with representation(threshold):
            answers = _evaluate_everywhere(seed)
        if reference is None:
            reference = answers
        else:
            assert answers == reference, f"{cell} changed an answer on seed {seed}"


def test_vectorized_kernels_actually_engage():
    """The sweeps must not silently run the per-tuple path: at threshold 1,
    conditions compile, batches run and the mask kernels fire, also in an
    interpreted cell, which fuses no fragment; at ``sys.maxsize`` no mask
    runs.  (A fused fragment still compiles its mask program when it is
    emitted, because one fragment serves every threshold.)"""
    with representation(1):
        before, before_masks = vectorized_stats(), columnar_stats()
        for seed in range(8):
            _evaluate_everywhere(seed)
        after, after_masks = vectorized_stats(), columnar_stats()
    assert after["conditions_compiled"] > before["conditions_compiled"]
    assert after["batches"] > before["batches"]
    assert after["rows_in"] > before["rows_in"]
    assert after_masks["kernel_mask_eq"] > before_masks["kernel_mask_eq"]
    with representation(1, interpreted=True):
        before, fused = vectorized_stats(), codegen_stats()["fragments_fused"]
        _evaluate_everywhere(3)
        after = vectorized_stats()
        assert codegen_stats()["fragments_fused"] == fused
    assert after["batches"] > before["batches"]
    with representation(sys.maxsize):
        before, before_masks = vectorized_stats(), columnar_stats()
        _evaluate_everywhere(3)
        after, after_masks = vectorized_stats(), columnar_stats()
    assert after["batches"] == before["batches"]
    assert after["rows_in"] == before["rows_in"]
    assert after_masks["kernel_mask_eq"] == before_masks["kernel_mask_eq"]


def test_membership_evaluates_once_per_distinct_id():
    """10k-row shape in miniature: the memoized membership kernel runs one
    containment test per distinct (element, container) pair, not per row."""
    from repro.objects.instance import DatabaseInstance

    pools = [frozenset({f"m{k}_{j}" for j in range(4)} | {f"e{k}"}) for k in range(3)]
    database_rows = [(f"r{i}", f"e{i % 5}", pools[i % 3]) for i in range(60)]
    db = DatabaseInstance.build(
        NESTED_SCHEMA, R=[("x", frozenset({"a"}))], S=database_rows
    )
    expression = Selection(PredicateExpression("S"), SelectionCondition.member(2, 3))
    with representation(1):
        before = vectorized_stats()
        answer = evaluate_expression(expression, db, STRICT)
        after = vectorized_stats()
    evaluations = after["membership_evaluations"] - before["membership_evaluations"]
    assert 0 < evaluations <= 15, evaluations  # ≤ 5 elements × 3 containers
    assert after["rows_in"] - before["rows_in"] >= 60
    with representation(sys.maxsize):
        assert evaluate_expression(expression, db, STRICT) == answer


def _transient_hash_join(names, flat, nested):
    from repro.engine.plan import HashJoin

    condition = SelectionCondition.conjunction(
        SelectionCondition.eq(2, 3),
        SelectionCondition.negation(SelectionCondition.eq(1, ConstantOperand(names[3]))),
    )
    expression = Selection(Product(PAR, PAR), condition)
    plan = _transient_plan(expression)
    assert any(
        isinstance(node, HashJoin) and node.residual is not None for node in plan.nodes
    )
    rows = list(flat.instance("PAR"))
    candidates = [TupleValue(left.components + right.components) for left in rows for right in rows]
    return condition, lambda: _transient_engine(expression, flat), candidates, len(names) - 1


def _transient_filter_over_project(names, flat, nested):
    from repro.engine.plan import Filter, Project

    condition = SelectionCondition.disjunction(
        SelectionCondition.eq(1, ConstantOperand(names[5])),
        SelectionCondition.eq(2, ConstantOperand(names[9])),
    )
    expression = Selection(Projection(PAR, (2, 1)), condition)
    plan = _transient_plan(expression)
    assert isinstance(plan.root, Filter) and isinstance(plan.root.child, Project)
    swapped = [TupleValue((row.coordinate(2), row.coordinate(1))) for row in flat.instance("PAR")]
    return condition, lambda: _transient_engine(expression, flat), swapped, 2


def _transient_legacy_selection(names, flat, nested):
    condition = SelectionCondition.negation(SelectionCondition.eq(2, ConstantOperand(names[7])))
    expression = Selection(PAR, condition)
    evaluate = lambda: evaluate_expression_legacy(expression, flat)
    return condition, evaluate, list(flat.instance("PAR")), len(names) - 1


def _transient_nested_selection(names, flat, nested):
    condition = SelectionCondition.member(2, 3)
    expression = NestedSelection(NestedPredicate("S"), condition)
    evaluate = lambda: evaluate_nested(expression, nested)
    return condition, evaluate, list(nested.instance("S")), 1


def _transient_plan(expression):
    """The strict plan the engine runs for *expression*.  Join ordering is
    off as well: its statistics profile the stored PAR's columns, which a
    stored container may encode."""
    from repro.engine import CompileOptions, compile_expression

    options = CompileOptions(logical_optimize=False, join_ordering=False)
    return compile_expression(expression, PARENT_SCHEMA, options)


def _transient_engine(expression, database):
    settings = AlgebraEvaluationSettings(
        engine_logical_optimize=False, engine_join_ordering=False
    )
    with codegen(False):
        return evaluate_expression(expression, database, settings)


#: The selections whose rows belong to no stored container, one builder
#: each: it returns the condition, a thunk evaluating the selection, the
#: candidate rows and the expected answer size.
TRANSIENT_SELECTIONS = {
    "hash-join-residual": _transient_hash_join,
    "filter-over-project": _transient_filter_over_project,
    "legacy-selection": _transient_legacy_selection,
    "nested-selection": _transient_nested_selection,
}


@pytest.mark.parametrize("path", sorted(TRANSIENT_SELECTIONS))
def test_selections_over_transient_rows_encode_no_values(path):
    """Only a filter over a scan masks stored id columns.  A hash-join
    residual, a filter over a projection (both in the interpreting
    executor), the legacy interpreter's Selection and the nested algebra's
    NestedSelection check their rows per tuple: over 48 rows of never-seen
    atoms (past the default columnar threshold) each answer equals the
    per-tuple ``condition_holds`` one, and the process-wide value
    dictionary gains no id."""
    from repro.objects.columnar import VALUE_DICTIONARY, columnar_threshold
    from repro.objects.instance import DatabaseInstance

    names = [f"transient-{path}-{i}" for i in range(48)]
    assert len(names) >= columnar_threshold()
    assert all(VALUE_DICTIONARY.id_of(Atom(name)) is None for name in names)
    pairs = [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]
    flat = DatabaseInstance.build(PARENT_SCHEMA, PAR=pairs)
    nested = DatabaseInstance.build(
        NESTED_SCHEMA,
        R=[],
        S=[(left, right, frozenset({left, names[0]})) for left, right in pairs],
    )
    condition, evaluate, candidates, expected = TRANSIENT_SELECTIONS[path](names, flat, nested)

    size = len(VALUE_DICTIONARY)
    answer = evaluate().values
    assert len(VALUE_DICTIONARY) == size
    assert answer == {row for row in candidates if condition_holds(condition, row)}
    assert len(answer) == expected


@pytest.mark.parametrize("seed", range(20))
def test_nested_selection_agrees_across_modes(seed):
    """The nested algebra's selection shares the canonical condition
    semantics, so its answer is the same in every mode."""
    rng = random.Random(seed)
    db = random_database(NESTED_SCHEMA, ["a", "b", "v0"], count=10, seed=seed)
    condition = _random_condition(parse_type("[U, U, {U}]"), rng)
    if condition is None:
        pytest.skip("no well-typed condition for this seed")
    expression = NestedSelection(NestedPredicate("S"), condition)
    reference = None
    for threshold in THRESHOLDS.values():
        with representation(threshold):
            answer = evaluate_nested(expression, db)
        if reference is None:
            reference = answer
        else:
            assert answer == reference, f"seed {seed} diverged"


@pytest.mark.parametrize("seed", range(20))
def test_relational_select_where_agrees_across_modes(seed):
    """``select_where`` over flat relations: vectorized equals per-tuple
    equals the callable-predicate oracle."""
    rng = random.Random(seed)
    relation = Relation(2, random_graph_pairs(6, 18, seed=seed))
    condition = _random_condition(TupleType([U, U]), rng)
    if condition is None:
        pytest.skip("no well-typed condition for this seed")
    oracle = relational_algebra.select(
        relation,
        lambda row: condition_holds(condition, TupleValue([Atom(value) for value in row])),
    )
    for threshold in THRESHOLDS.values():
        with representation(threshold):
            assert relational_algebra.select_where(relation, condition) == oracle


def test_select_where_validates_the_condition():
    relation = Relation(2, [("a", "b")])
    with pytest.raises(TypingError):
        relational_algebra.select_where(relation, SelectionCondition.eq(1, 3))


def test_instance_coordinate_columns_are_cached_and_aligned():
    from repro.objects.columnar import VALUE_DICTIONARY
    from repro.objects.instance import DatabaseInstance

    db = DatabaseInstance.build(PARENT_SCHEMA, PAR=[(f"k{i}", f"v{i % 3}") for i in range(40)])
    instance = db.instance("PAR")
    column = instance.coordinate_ids(2)
    assert instance.coordinate_ids(2) is column  # cached
    decoded = [VALUE_DICTIONARY.decode(i) for i in column]
    assert decoded == [value.coordinate(2) for value in instance]


# -- classifier unit tests --------------------------------------------------------

def test_classifier_compiles_flat_condition_trees():
    condition = SelectionCondition.conjunction(
        SelectionCondition.negation(SelectionCondition.eq(1, 2)),
        SelectionCondition.disjunction(
            SelectionCondition.eq(1, ConstantOperand("a")),
            SelectionCondition.member(2, 3),
        ),
    )
    compiled = compile_condition(condition)
    assert compiled is not None
    assert compiled.coordinates == (1, 2, 3)


def test_classifier_rejects_non_flat_conditions():
    # A constant container keeps its per-row type-error semantics on the
    # scalar path.
    assert compile_condition(SelectionCondition("in", (1, ConstantOperand("x")))) is None
    # Unknown kinds and malformed operands fall back wholesale.
    assert compile_condition(SelectionCondition("between", (1, 2))) is None
    assert compile_condition(SelectionCondition("eq", (1, "junk"))) is None
    assert (
        compile_condition(
            SelectionCondition.conjunction(
                SelectionCondition.eq(1, 2),
                SelectionCondition("in", (1, ConstantOperand("x"))),
            )
        )
        is None
    )


def test_classifier_requires_validation_against_the_operand_type():
    """With a tuple type supplied, the compiler certifies total-ness: a
    condition that does not validate (ill-typed membership that the scalar
    path's short-circuit might never evaluate) falls back wholesale, so
    eager mask evaluation can never observe an error the per-tuple path
    would have skipped."""
    short_circuited = SelectionCondition.disjunction(
        SelectionCondition.eq(1, 1),
        SelectionCondition.member(1, 2),  # ill-typed: coordinate 2 is U
    )
    flat = TupleType([U, U])
    assert compile_condition(short_circuited, flat) is None
    assert compile_condition(SelectionCondition.eq(1, 3), flat) is None  # out of range
    well_typed = compile_condition(SelectionCondition.eq(1, 2), flat)
    assert well_typed is not None
    assert compile_condition(SelectionCondition.member(1, 2), parse_type("[U, {U}]"))


def test_classifier_handles_constant_only_equality():
    from repro.objects.instance import DatabaseInstance

    database = DatabaseInstance.build(
        PARENT_SCHEMA, PAR=[(f"k{i}", f"v{i}") for i in range(40)]
    )
    true_condition = SelectionCondition.eq(ConstantOperand("a"), ConstantOperand("a"))
    false_condition = SelectionCondition.eq(ConstantOperand("a"), ConstantOperand("b"))
    with representation(1):
        everything = evaluate_expression(Selection(PAR, true_condition), database, STRICT)
        nothing = evaluate_expression(Selection(PAR, false_condition), database, STRICT)
    assert len(everything) == 40
    assert len(nothing) == 0


# -- mask kernel unit tests -------------------------------------------------------

def test_mask_kernels_match_per_element_reference():
    a = array("I", [3, 1, 4, 1, 5, 9, 2, 6])
    b = array("I", [3, 5, 4, 1, 5, 8, 2, 7])
    eq_mask = mask_eq_columns(a, b)
    assert list(eq_mask) == [1 if x == y else 0 for x, y in zip(a, b)]
    target_mask = mask_eq_target(a, 1)
    assert list(target_mask) == [1 if x == 1 else 0 for x in a]
    assert list(mask_eq_target(a, 999)) == [0] * len(a)
    assert list(mask_and(eq_mask, target_mask)) == [
        x & y for x, y in zip(eq_mask, target_mask)
    ]
    assert list(mask_or(eq_mask, target_mask)) == [
        x | y for x, y in zip(eq_mask, target_mask)
    ]
    assert list(mask_not(eq_mask)) == [1 - x for x in eq_mask]
    assert list(mask_fill(4, True)) == [1, 1, 1, 1]
    assert list(mask_fill(4, False)) == [0, 0, 0, 0]
    assert list(mask_not(bytearray())) == []


# -- selectivity-ordered conjunct evaluation --------------------------------------

def _conjunction_cases(seed: int):
    """Seeded random pure-conjunction selections over the nested schema
    (member atoms included, so ordering has real cost differences)."""
    rng = random.Random(seed)
    database = random_database(NESTED_SCHEMA, ["a", "b", "v0"], count=10, seed=seed)
    row_type = parse_type("[U, U, {U}]")
    cases = []
    for _ in range(6):
        first = _random_condition(row_type, rng)
        second = _random_condition(row_type, rng)
        if first is None or second is None:
            continue
        condition = SelectionCondition.conjunction(first, second)
        cases.append((Selection(PredicateExpression("S"), condition), database))
    return cases


@pytest.mark.parametrize("threshold,interpreted,fresh_tables", MODES)
@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_ordered_conjunctions_agree_in_every_mode(seed, threshold, interpreted, fresh_tables):
    """Selectivity-ordered conjunct evaluation must not change any answer
    in any mode cell."""
    for expression, database in _conjunction_cases(seed):
        oracle = evaluate_expression_legacy(expression, database)
        with representation(threshold, fresh_tables, interpreted):
            assert evaluate_expression(expression, database, STRICT) == oracle, (
                f"seed {seed}: {expression}"
            )


def test_conjunctions_order_by_selectivity_and_skip_rows():
    """A selective equality conjunct must run first and shrink the batch
    the expensive membership conjunct sees — visible in the engagement
    counters: conjunctions_ordered fires, rows are skipped, and the
    membership kernel probes fewer distinct pairs than the full batch
    holds."""
    from repro.objects.instance import DatabaseInstance

    pools = [frozenset({f"m{k}_{j}" for j in range(3)} | {f"e{k}"}) for k in range(4)]
    rows = [(f"r{i}", f"e{i % 40}", pools[i % 4]) for i in range(200)]
    db = DatabaseInstance.build(NESTED_SCHEMA, R=[("x", frozenset({"a"}))], S=rows)
    # membership (expensive, base selectivity) ∧ not(eq) ∧ eq-constant:
    # the estimate orders the plain eq first and the negation last.
    condition = SelectionCondition.conjunction(
        SelectionCondition.member(2, 3),
        SelectionCondition.eq(1, ConstantOperand("r1")),
    )
    expression = Selection(PredicateExpression("S"), condition)
    with representation(1):
        before = vectorized_stats()
        answer = evaluate_expression(expression, db, STRICT)
        after = vectorized_stats()
    assert len(answer) == 1
    assert after["conjunctions_ordered"] > before["conjunctions_ordered"]
    assert after["conjunct_rows_skipped"] - before["conjunct_rows_skipped"] >= 199
    # The membership conjunct saw only the single surviving row: one
    # distinct (element, container) pair instead of up to 160.
    assert after["membership_evaluations"] - before["membership_evaluations"] <= 2
    with representation(sys.maxsize):
        assert evaluate_expression(expression, db, STRICT) == answer


def test_nested_and_chains_flatten_for_ordering():
    """((a ∧ b) ∧ c) and (a ∧ (b ∧ c)) order the same flat conjunct list
    and agree with the scalar path."""
    from repro.objects.instance import DatabaseInstance

    rows = [(f"k{i}", f"v{i % 7}") for i in range(80)]
    db = DatabaseInstance.build(PARENT_SCHEMA, PAR=rows)
    a = SelectionCondition.eq(2, ConstantOperand("v3"))
    b = SelectionCondition.negation(SelectionCondition.eq(1, ConstantOperand("k3")))
    c = SelectionCondition.negation(SelectionCondition.eq(1, ConstantOperand("k10")))
    left = SelectionCondition.conjunction(SelectionCondition.conjunction(a, b), c)
    right = SelectionCondition.conjunction(a, SelectionCondition.conjunction(b, c))
    with representation(1):
        left_answer = evaluate_expression(Selection(PAR, left), db, STRICT)
        right_answer = evaluate_expression(Selection(PAR, right), db, STRICT)
    with representation(sys.maxsize):
        oracle = evaluate_expression(Selection(PAR, left), db, STRICT)
    assert left_answer == right_answer == oracle
