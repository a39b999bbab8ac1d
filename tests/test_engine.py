"""Unit tests for the physical-plan engine (compile, execute, explain)."""

import pytest

from repro.errors import EvaluationError, TypingError
from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.algebra.expressions import (
    Collapse,
    ConstantOperand,
    ConstantSingleton,
    Difference,
    Intersection,
    Powerset,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
    Union,
    Untuple,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.engine import (
    CompileOptions,
    HashJoin,
    NestedLoopProduct,
    compile_expression,
    execute_plan,
    explain_plan,
)
from repro.engine.join import build_index, hash_join
from repro.objects.instance import DatabaseInstance
from repro.objects.values import make_tuple

PAR = PredicateExpression("PAR")

NO_LOGICAL = CompileOptions(logical_optimize=False)


def grandparent_expression():
    return Projection(Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)), [1, 4])


class TestCompile:
    def test_equality_selection_over_product_becomes_hash_join(self):
        plan = compile_expression(grandparent_expression(), PARENT_SCHEMA)
        joins = [node for node in plan.nodes if isinstance(node, HashJoin)]
        assert len(joins) == 1
        assert joins[0].left_keys == (2,)
        assert joins[0].right_keys == (1,)
        assert not any(isinstance(node, NestedLoopProduct) for node in plan.nodes)

    def test_hash_join_disabled_falls_back_to_nested_loop(self):
        options = CompileOptions(hash_join=False, logical_optimize=False)
        plan = compile_expression(grandparent_expression(), PARENT_SCHEMA, options)
        assert any(isinstance(node, NestedLoopProduct) for node in plan.nodes)
        assert not any(isinstance(node, HashJoin) for node in plan.nodes)

    def test_product_without_cross_equality_stays_nested_loop(self):
        condition = SelectionCondition.eq(1, ConstantOperand("a"))
        expression = Selection(Product(PAR, PAR), condition)
        plan = compile_expression(expression, PARENT_SCHEMA, NO_LOGICAL)
        assert any(isinstance(node, NestedLoopProduct) for node in plan.nodes)

    def test_residual_condition_attached_to_join(self):
        condition = SelectionCondition.conjunction(
            SelectionCondition.eq(2, 3), SelectionCondition.eq(1, ConstantOperand("tom"))
        )
        expression = Selection(Product(PAR, PAR), condition)
        plan = compile_expression(expression, PARENT_SCHEMA, NO_LOGICAL)
        joins = [node for node in plan.nodes if isinstance(node, HashJoin)]
        assert len(joins) == 1
        assert joins[0].residual is not None

    def test_multi_key_join(self):
        condition = SelectionCondition.conjunction(
            SelectionCondition.eq(1, 3), SelectionCondition.eq(2, 4)
        )
        expression = Selection(Product(PAR, PAR), condition)
        plan = compile_expression(expression, PARENT_SCHEMA, NO_LOGICAL)
        joins = [node for node in plan.nodes if isinstance(node, HashJoin)]
        assert joins[0].left_keys == (1, 2)
        assert joins[0].right_keys == (1, 2)
        assert joins[0].residual is None

    def test_common_subexpressions_become_shared_nodes(self):
        shared = Product(PAR, PAR)
        expression = Intersection(Projection(shared, [1, 4]), Projection(shared, [2, 3]))
        plan = compile_expression(expression, PARENT_SCHEMA, NO_LOGICAL)
        scans = [node for node in plan.nodes if node.label() == "Scan(PAR)"]
        assert len(scans) == 1
        assert scans[0].consumers == 2
        assert plan.shared_nodes >= 1

    def test_cse_disabled_duplicates_nodes(self):
        expression = Union(Projection(PAR, [1]), Projection(PAR, [1]))
        options = CompileOptions(logical_optimize=False, common_subexpressions=False)
        plan = compile_expression(expression, PARENT_SCHEMA, options)
        scans = [node for node in plan.nodes if node.label() == "Scan(PAR)"]
        assert len(scans) == 2

    def test_logical_pass_removes_collapse_of_powerset(self):
        expression = Collapse(Powerset(PAR))
        plan = compile_expression(expression, PARENT_SCHEMA)
        assert "rule_collapse_of_powerset" in plan.applied_rules
        assert plan.operators() == ["Scan"]

    def test_ill_typed_expression_raises_at_compile_time(self):
        with pytest.raises(TypingError):
            compile_expression(Union(PAR, ConstantSingleton("a")), PARENT_SCHEMA)

    def test_integer_constant_not_confused_with_coordinate(self):
        # σ_{1 = 2} with coordinate 2 and with the integer constant 2 render
        # identically; CSE and the optimizer's idempotence rule must still
        # keep them apart (regression: string-keyed CSE merged them).
        database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[(2, 2), (2, 3)])
        product = Product(PAR, PAR)
        by_coordinate = Selection(product, SelectionCondition.eq(1, 2))
        by_constant = Selection(product, SelectionCondition.eq(1, ConstantOperand(2)))
        expression = Union(by_coordinate, by_constant)
        oracle = evaluate_expression_legacy(expression, database)
        assert len(oracle) == 4
        for settings in (
            AlgebraEvaluationSettings(),
            AlgebraEvaluationSettings(engine_logical_optimize=False),
            AlgebraEvaluationSettings(engine_cse=False),
        ):
            assert evaluate_expression(expression, database, settings) == oracle

    def test_output_types_cached_on_nodes(self):
        plan = compile_expression(grandparent_expression(), PARENT_SCHEMA)
        assert str(plan.root.output_type) == "[U, U]"


class TestExecute:
    def test_grandparent_via_hash_join(self, parent_db):
        plan = compile_expression(grandparent_expression(), PARENT_SCHEMA)
        answer = execute_plan(plan, parent_db)
        assert set(answer.values) == {make_tuple("tom", "sue")}

    def test_set_operations(self, parent_db):
        for expression in (
            Union(PAR, PAR),
            Intersection(PAR, Projection(Product(PAR, PAR), [1, 2])),
            Difference(PAR, Projection(PAR, [2, 1])),
        ):
            engine = evaluate_expression(expression, parent_db)
            legacy = evaluate_expression_legacy(expression, parent_db)
            assert engine == legacy

    def test_untuple_collapse_powerset(self, parent_db):
        for expression in (
            Untuple(Projection(PAR, [1])),
            Powerset(PAR),
            Collapse(Powerset(Projection(PAR, [2]))),
        ):
            engine = evaluate_expression(expression, parent_db)
            legacy = evaluate_expression_legacy(expression, parent_db)
            assert engine == legacy

    def test_powerset_budget_enforced(self, parent_db):
        settings = AlgebraEvaluationSettings(powerset_budget=1, engine_logical_optimize=False)
        with pytest.raises(EvaluationError):
            evaluate_expression(Powerset(PAR), parent_db, settings)

    def test_logical_pass_can_avoid_powerset_budget(self, parent_db):
        # 𝒞(𝒫(E)) → E removes the exponential intermediate entirely, so the
        # engine succeeds where the legacy interpreter exceeds its budget.
        expression = Collapse(Powerset(PAR))
        tight = AlgebraEvaluationSettings(powerset_budget=1)
        answer = evaluate_expression(expression, parent_db, tight)
        assert set(answer.values) == set(parent_db["PAR"].values)
        with pytest.raises(EvaluationError):
            evaluate_expression_legacy(expression, parent_db, tight)

    def test_empty_build_side_still_surfaces_probe_side_errors(self):
        # Strict equivalence: joining a budget-violating left input against
        # an empty right input must still raise, i.e. the hash join may not
        # short-circuit away the probe side's evaluation (regression).
        database = DatabaseInstance.build(
            PARENT_SCHEMA, PAR=[(f"v{i}", f"v{i+1}") for i in range(30)]
        )
        expression = Selection(
            Product(Collapse(Powerset(PAR)), Difference(PAR, PAR)),
            SelectionCondition.eq(1, 3),
        )
        strict = AlgebraEvaluationSettings(engine_logical_optimize=False)
        with pytest.raises(EvaluationError):
            evaluate_expression_legacy(expression, database)
        with pytest.raises(EvaluationError):
            evaluate_expression(expression, database, strict)

    def test_type_inference_is_memoized_on_selection_chains(self):
        # A 60-deep selection chain must cost O(n) type inferences, not
        # O(n^2) (regression: the cache did not populate child entries).
        chain = PAR
        for _ in range(60):
            chain = Selection(chain, SelectionCondition.eq(1, 2))
        calls = []
        original = Selection._infer_type
        try:
            Selection._infer_type = lambda self, schema, cache: calls.append(1) or original(
                self, schema, cache
            )
            compile_expression(chain, PARENT_SCHEMA, NO_LOGICAL)
        finally:
            Selection._infer_type = original
        assert len(calls) <= 61

    def test_materialize_operator_forces_a_boundary(self, parent_db):
        # The compiler does not currently emit Materialize; it is part of
        # the IR for hand-built plans, so exercise the executor path directly.
        from repro.engine.plan import Materialize, PhysicalPlan, Scan
        from repro.types.parser import parse_type

        scan = Scan(0, parse_type("[U, U]"), "PAR")
        boundary = Materialize(1, scan.output_type, scan)
        scan.consumers += 1
        plan = PhysicalPlan(root=boundary, nodes=[scan, boundary])
        answer = execute_plan(plan, parent_db)
        assert set(answer.values) == set(parent_db["PAR"].values)

    def test_interpreted_hash_join_builds_values_only_for_residual_survivors(
        self, monkeypatch
    ):
        # With codegen off the residual reads each probe pair's combined
        # components, so a TupleValue is built per output row, not per pair.
        import repro.engine.execute as execute
        from repro.engine import codegen
        from repro.objects.values import TupleValue

        database = DatabaseInstance.build(
            PARENT_SCHEMA, PAR=[(f"v{i}", f"k{i % 4}") for i in range(20)]
        )
        condition = SelectionCondition.conjunction(
            SelectionCondition.eq(2, 4), SelectionCondition.eq(1, ConstantOperand("v0"))
        )
        options = CompileOptions(logical_optimize=False)
        plan = compile_expression(Selection(Product(PAR, PAR), condition), PARENT_SCHEMA, options)
        assert isinstance(plan.root, HashJoin) and plan.root.residual is not None
        built = []

        def counting_tuple_value(components):
            built.append(components)
            return TupleValue(components)

        monkeypatch.setattr(execute, "TupleValue", counting_tuple_value)
        with codegen(False):
            answer = execute_plan(plan, database)
        # 100 probe pairs (20 rows × 5 per key); the residual keeps the 5
        # whose left row is v0.
        assert len(answer) == 5
        assert len(built) == 5

    def test_engine_flag_off_uses_legacy(self, parent_db):
        settings = AlgebraEvaluationSettings(use_engine=False)
        expression = grandparent_expression()
        assert evaluate_expression(expression, parent_db, settings) == (
            evaluate_expression_legacy(expression, parent_db)
        )


class TestExplain:
    def test_explain_shows_join_and_shared_nodes(self):
        plan = compile_expression(grandparent_expression(), PARENT_SCHEMA)
        text = explain_plan(plan)
        assert "HashJoin(L2=R1)" in text
        assert "[shared]" in text
        assert "↩" in text  # the second PAR scan is a back-reference

    def test_explain_without_types(self):
        plan = compile_expression(PAR, PARENT_SCHEMA)
        assert ": [U, U]" not in explain_plan(plan, types=False)


class TestJoinCore:
    def test_build_index_groups_rows(self):
        index = build_index([("a", 1), ("a", 2), ("b", 3)], key=lambda row: row[0])
        assert set(index) == {"a", "b"}
        assert len(index["a"]) == 2

    def test_hash_join_pairs_and_residual(self):
        left = [(1, "x"), (2, "y")]
        right = [("x", 10), ("y", 20), ("x", 30)]
        pairs = list(
            hash_join(
                left,
                right,
                left_key=lambda row: row[1],
                right_key=lambda row: row[0],
                residual=lambda left, right: right[1] < 25,
            )
        )
        assert ((1, "x"), ("x", 10)) in pairs
        assert ((2, "y"), ("y", 20)) in pairs
        assert all(r[1] < 25 for _, r in pairs)

    def test_hash_join_empty_build_side(self):
        assert list(hash_join([1, 2], [], left_key=lambda r: r, right_key=lambda r: r)) == []


class TestRelationalJoinThroughEngineCore:
    def test_relational_join_matches_nested_loop(self):
        from repro.relational.algebra import join
        from repro.relational.relation import Relation

        left = Relation(2, [("a", 1), ("b", 2), ("c", 2)])
        right = Relation(2, [(1, "x"), (2, "y")])
        joined = join(left, right, [(2, 1)])
        expected = {
            lrow + rrow
            for lrow in left.tuples
            for rrow in right.tuples
            if lrow[1] == rrow[0]
        }
        assert joined.tuples == frozenset(expected)
