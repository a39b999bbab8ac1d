"""Property-based differential suite for the vectorized selection predicates.

The oracle pattern of ``test_columnar.py`` extended one axis further: every
random selection workload is evaluated under the full **vectorized ×
columnar** mode cube, and all four combinations must produce identical
answers — across the algebra oracle, the engine (strict and
optimized), the nested algebra and the flat relational layer.  The sweeps
force the dispatch threshold down to 1 so the mask kernels genuinely
engage on the small random instances, and the engagement counters are
asserted so a silent fallback to the per-tuple path cannot fake a pass.

Selectable standalone with ``pytest -m vectorized``.
"""

from __future__ import annotations

import random
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
    Selection,
    SelectionCondition,
    Union,
)
from repro.engine.codegen import codegen
from repro.algebra.vectorized import (
    compile_condition,
    set_vectorized_filters,
    vectorized_dispatch,
    vectorized_enabled,
    vectorized_filters,
    vectorized_stats,
)
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

#: The cells every parametrized sweep runs: ``(vectorized_on, columnar_on,
#: fresh_tables)``.  An ``ablation`` cell clears the intern tables first, so
#: the values it builds are equal to, but not the same instances as, the
#: ones the process-wide caches kept from earlier cells.
MODES = [
    pytest.param(
        vectorized_on,
        columnar_on,
        fresh_tables,
        id=(
            f"{'vectorized' if vectorized_on else 'scalar'}"
            f"-{'columnar' if columnar_on else 'object'}"
            f"-{'ablation' if fresh_tables else 'interned'}"
        ),
    )
    for vectorized_on in (True, False)
    for columnar_on in (True, False)
    for fresh_tables in (False, True)
]

STRICT = AlgebraEvaluationSettings(engine_logical_optimize=False)

PAR = PredicateExpression("PAR")


@contextmanager
def representation(vectorized_on: bool, columnar_on: bool, fresh_tables: bool = False):
    """One cell of the mode cube, with the shared dispatch threshold at 1
    so tiny random workloads still take the kernels."""
    if fresh_tables:
        clear_intern_tables()
    with vectorized_filters(vectorized_on):
        with columnar_settings(enabled=columnar_on, threshold=1):
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


@pytest.mark.parametrize("vectorized_on,columnar_on,fresh_tables", MODES)
@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_selections_agree_in_every_mode(seed, vectorized_on, columnar_on, fresh_tables):
    """Within each mode-cube cell the engine must equal the oracle."""
    with representation(vectorized_on, columnar_on, fresh_tables):
        _evaluate_everywhere(seed)


@pytest.mark.parametrize("seed", range(30))
def test_selection_answers_agree_across_modes(seed):
    """All four mode-cube cells must produce the same instances."""
    reference = None
    for vectorized_on in (True, False):
        for columnar_on in (True, False):
            with representation(vectorized_on, columnar_on):
                answers = _evaluate_everywhere(seed)
            if reference is None:
                reference = answers
            else:
                assert answers == reference, (
                    f"mode (vectorized={vectorized_on}, columnar={columnar_on}) "
                    f"changed an answer on seed {seed}"
                )


def test_vectorized_kernels_actually_engage():
    """The sweeps must not silently run the per-tuple path: with the
    switch on, conditions compile, batches run and the mask kernels fire;
    with it off, nothing vectorized moves."""
    with representation(True, True):
        before, before_masks = vectorized_stats(), columnar_stats()
        for seed in range(8):
            _evaluate_everywhere(seed)
        after, after_masks = vectorized_stats(), columnar_stats()
    assert after["conditions_compiled"] > before["conditions_compiled"]
    assert after["batches"] > before["batches"]
    assert after["rows_in"] > before["rows_in"]
    assert after_masks["kernel_mask_eq"] > before_masks["kernel_mask_eq"]
    with representation(False, True):
        before = vectorized_stats()
        _evaluate_everywhere(3)
        after = vectorized_stats()
    assert after["batches"] == before["batches"]
    assert after["conditions_compiled"] == before["conditions_compiled"]


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
    with representation(True, True):
        before = vectorized_stats()
        answer = evaluate_expression(expression, db, STRICT)
        after = vectorized_stats()
    evaluations = after["membership_evaluations"] - before["membership_evaluations"]
    assert 0 < evaluations <= 15, evaluations  # ≤ 5 elements × 3 containers
    assert after["rows_in"] - before["rows_in"] >= 60
    with representation(False, True):
        assert evaluate_expression(expression, db, STRICT) == answer


def test_hash_join_residual_takes_the_vectorized_path():
    """A non-join conjunct left on a HashJoin must be vectorized over the
    concatenated rows, with identical answers to the scalar residual."""
    from repro.objects.instance import DatabaseInstance

    rows = [(f"v{i}", f"v{i + 1}") for i in range(120)]
    db = DatabaseInstance.build(PARENT_SCHEMA, PAR=rows)
    condition = SelectionCondition.conjunction(
        SelectionCondition.eq(2, 3),
        SelectionCondition.negation(SelectionCondition.eq(1, ConstantOperand("v3"))),
    )
    expression = Selection(Product(PAR, PAR), condition)
    # Pin the *interpreting* executor: fused codegen fragments check the
    # residual with an inline in-loop predicate instead of batched masks
    # (tests/test_codegen.py covers that axis).
    with codegen(False), representation(True, True):
        before = vectorized_stats()
        vectorized = evaluate_expression(expression, db, STRICT)
        after = vectorized_stats()
    assert after["batches"] > before["batches"]
    with representation(False, True):
        scalar = evaluate_expression(expression, db, STRICT)
    assert vectorized == scalar == evaluate_expression_legacy(expression, db)
    assert len(vectorized) == 118  # 119 joined pairs minus the v3 head


def test_pipelined_filter_batches_non_scan_children():
    """A Filter over a non-Scan child (here a union) takes the chunked
    batching path and still equals the scalar answer."""
    db = random_database(
        DatabaseSchema([("A", parse_type("[U, U]")), ("B", parse_type("[U, U]"))]),
        ATOMS,
        count=20,
        seed=7,
    )
    condition = SelectionCondition.eq(1, 2)
    expression = Selection(Union(PredicateExpression("A"), PredicateExpression("B")), condition)
    # Codegen off: a fused filter-over-union fragment inlines the
    # predicate per row and never reaches the chunked batching path.
    with codegen(False), representation(True, True):
        before = vectorized_stats()
        vectorized = evaluate_expression(expression, db, STRICT)
        after = vectorized_stats()
    assert after["batches"] > before["batches"]
    with representation(False, True):
        assert evaluate_expression(expression, db, STRICT) == vectorized


@pytest.mark.parametrize("seed", range(20))
def test_nested_selection_agrees_across_modes(seed):
    """The nested algebra's selection shares the canonical condition
    semantics and the vectorized path."""
    rng = random.Random(seed)
    db = random_database(NESTED_SCHEMA, ["a", "b", "v0"], count=10, seed=seed)
    condition = _random_condition(parse_type("[U, U, {U}]"), rng)
    if condition is None:
        pytest.skip("no well-typed condition for this seed")
    expression = NestedSelection(NestedPredicate("S"), condition)
    reference = None
    for vectorized_on in (True, False):
        with representation(vectorized_on, True):
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
    for vectorized_on in (True, False):
        with representation(vectorized_on, True):
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
    with representation(True, True):
        everything = evaluate_expression(Selection(PAR, true_condition), database, STRICT)
        nothing = evaluate_expression(Selection(PAR, false_condition), database, STRICT)
    assert len(everything) == 40
    assert len(nothing) == 0


def test_vectorized_switch_is_restored_by_context_manager():
    initial = vectorized_enabled()
    with vectorized_filters(not initial):
        assert vectorized_enabled() is not initial
    assert vectorized_enabled() is initial
    previous = set_vectorized_filters(initial)
    assert previous is initial


def test_dispatch_respects_switch_and_threshold():
    with columnar_settings(threshold=8):
        with vectorized_filters(True):
            assert vectorized_dispatch(8)
            assert not vectorized_dispatch(7)
        with vectorized_filters(False):
            assert not vectorized_dispatch(1000)


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


@pytest.mark.parametrize("vectorized_on,columnar_on,fresh_tables", MODES)
@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_ordered_conjunctions_agree_in_every_mode(seed, vectorized_on, columnar_on, fresh_tables):
    """Selectivity-ordered conjunct evaluation must not change any answer
    anywhere in the mode cube."""
    for expression, database in _conjunction_cases(seed):
        oracle = evaluate_expression_legacy(expression, database)
        with representation(vectorized_on, columnar_on, fresh_tables):
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
    with representation(True, True):
        before = vectorized_stats()
        answer = evaluate_expression(expression, db, STRICT)
        after = vectorized_stats()
    assert len(answer) == 1
    assert after["conjunctions_ordered"] > before["conjunctions_ordered"]
    assert after["conjunct_rows_skipped"] - before["conjunct_rows_skipped"] >= 199
    # The membership conjunct saw only the single surviving row: one
    # distinct (element, container) pair instead of up to 160.
    assert after["membership_evaluations"] - before["membership_evaluations"] <= 2
    with representation(False, True):
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
    with representation(True, True):
        left_answer = evaluate_expression(Selection(PAR, left), db, STRICT)
        right_answer = evaluate_expression(Selection(PAR, right), db, STRICT)
    with representation(False, False):
        oracle = evaluate_expression(Selection(PAR, left), db, STRICT)
    assert left_answer == right_answer == oracle
