"""Lowering of logical algebra expressions to physical plan DAGs.

The compiler runs in two passes:

1. **logical pass** — the existing rule optimizer
   (:func:`repro.algebra.optimizer.optimize`) rewrites the expression tree:
   conjunctive selections are split, selections and projections are pushed
   towards the leaves, and no-op pairs (``𝒞(𝒫(E)) → E``) are removed;
2. **physical pass** — the tree is lowered to :mod:`repro.engine.plan`
   operators with two structural improvements:

   * **common-subexpression elimination** — structurally identical
     subtrees (compared by :func:`repro.algebra.expressions.structural_key`,
     which unlike the rendered string distinguishes an integer selection
     constant from a coordinate) are lowered to a *single* DAG node, so a
     duplicated subtree is evaluated once;
   * **join detection** — a stack of selections over a cartesian product is
     scanned for equality conjuncts that straddle the two factors; those
     become the build/probe keys of a :class:`~repro.engine.plan.HashJoin`
     and the remaining conjuncts its residual condition.  Without such a
     conjunct (or with ``hash_join`` disabled) the product stays a
     :class:`~repro.engine.plan.NestedLoopProduct` and the selections
     become pipelined filters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TypingError
from repro.algebra.expressions import (
    AlgebraExpression,
    Collapse,
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
    flatten_for_product,
    structural_key,
)
from repro.algebra.optimizer import conjoin, conjuncts, optimize
from repro.engine.plan import (
    CollapseNode,
    ConstantScan,
    Filter,
    HashJoin,
    NestedLoopProduct,
    PhysicalPlan,
    PlanNode,
    PowersetNode,
    Project,
    Scan,
    SetOp,
    UntupleNode,
)
from repro.observability.trace import maybe_span, tracing_enabled
from repro.types.schema import DatabaseSchema
from repro.types.type_system import ComplexType


@dataclass(frozen=True)
class CompileOptions:
    """Knobs controlling logical→physical compilation.

    Each flag isolates one engine capability so benchmarks and equivalence
    tests can ablate them independently; everything defaults to on.
    Cost-based join ordering runs when :func:`compile_expression` is given
    statistics and the process-wide
    :func:`repro.engine.joinorder.set_join_ordering` switch is on, so
    compiling without statistics is always syntactic.
    """

    logical_optimize: bool = True
    hash_join: bool = True
    common_subexpressions: bool = True


def compile_expression(
    expression: AlgebraExpression,
    schema: DatabaseSchema,
    options: CompileOptions | None = None,
    statistics=None,
) -> PhysicalPlan:
    """Compile *expression* over *schema* into a :class:`PhysicalPlan`.

    *statistics* is an optional
    :class:`repro.engine.stats.PlanStatistics` provider for the database
    the plan will run against; when given (and join ordering is enabled)
    the cost-based rewrite pass of :mod:`repro.engine.joinorder` reorders
    equality-join subgraphs and every node is annotated with its
    estimated output cardinality.
    """
    options = options or CompileOptions()
    with maybe_span("engine.compile"):
        applied_rules: list[str] = []
        if options.logical_optimize:
            result = optimize(expression, schema)
            expression = result.expression
            applied_rules = result.applied_rules
        compiler = _Compiler(schema, options)
        # One memoized type-inference pass validates the whole tree up front
        # and fills the compiler's per-node type cache for the lowering below.
        compiler._type(expression)
        root = compiler.lower(expression)
        plan = PhysicalPlan(
            root=root, nodes=compiler.nodes, applied_rules=applied_rules
        )
        # With tracing on, join-free plans are annotated too, so every
        # ``plan.*`` span and query-log record carries an estimate.
        if statistics is not None and (_plan_has_joins(plan) or tracing_enabled()):
            from repro.engine.cost import annotate_estimates
            from repro.engine.joinorder import joinorder_enabled, reorder_plan

            if joinorder_enabled() and _plan_has_joins(plan):
                with maybe_span("engine.joinorder"):
                    plan = reorder_plan(plan, statistics)
            annotate_estimates(plan, statistics)
    return plan


def _plan_has_joins(plan: PhysicalPlan) -> bool:
    return any(
        isinstance(node, (HashJoin, NestedLoopProduct)) for node in plan.nodes
    )


_SETOP_KINDS = {Union: "union", Intersection: "intersection", Difference: "difference"}


class _Compiler:
    def __init__(self, schema: DatabaseSchema, options: CompileOptions) -> None:
        self.schema = schema
        self.options = options
        self.nodes: list[PlanNode] = []
        self._memo: dict[tuple, PlanNode] = {}
        self._types: dict[int, ComplexType] = {}

    # -- helpers --------------------------------------------------------------
    def _type(self, expression: AlgebraExpression) -> ComplexType:
        return expression.output_type(self.schema, self._types)

    def _make(self, cls, output_type: ComplexType, *args) -> PlanNode:
        node = cls(len(self.nodes), output_type, *args)
        self.nodes.append(node)
        for child in node.children():
            child.consumers += 1
        return node

    # -- lowering -------------------------------------------------------------
    def lower(self, expression: AlgebraExpression) -> PlanNode:
        if not self.options.common_subexpressions:
            return self._build(expression)
        key = structural_key(expression)
        node = self._memo.get(key)
        if node is None:
            node = self._build(expression)
            self._memo[key] = node
        return node

    def _build(self, expression: AlgebraExpression) -> PlanNode:
        if isinstance(expression, PredicateExpression):
            return self._make(Scan, self._type(expression), expression.predicate_name)

        if isinstance(expression, ConstantSingleton):
            return self._make(ConstantScan, self._type(expression), expression.value)

        if isinstance(expression, (Union, Intersection, Difference)):
            kind = _SETOP_KINDS[type(expression)]
            left = self.lower(expression.left)
            right = self.lower(expression.right)
            return self._make(SetOp, self._type(expression), kind, left, right)

        if isinstance(expression, Projection):
            child = self.lower(expression.operand)
            return self._make(Project, self._type(expression), child, expression.coordinates)

        if isinstance(expression, Selection):
            return self._build_selection(expression)

        if isinstance(expression, Product):
            left = self.lower(expression.left)
            right = self.lower(expression.right)
            return self._make(NestedLoopProduct, self._type(expression), left, right)

        if isinstance(expression, Untuple):
            child = self.lower(expression.operand)
            return self._make(UntupleNode, self._type(expression), child)

        if isinstance(expression, Collapse):
            child = self.lower(expression.operand)
            return self._make(CollapseNode, self._type(expression), child)

        if isinstance(expression, Powerset):
            child = self.lower(expression.operand)
            return self._make(PowersetNode, self._type(expression), child)

        raise TypingError(f"unknown algebra expression class {type(expression).__name__}")

    def _build_selection(self, expression: Selection) -> PlanNode:
        # Collect the whole stack of selections down to the first
        # non-selection operand; their conditions form one conjunction.
        conditions: list[SelectionCondition] = []
        base: AlgebraExpression = expression
        while isinstance(base, Selection):
            conditions.extend(conjuncts(base.condition))
            base = base.operand

        if isinstance(base, Product) and self.options.hash_join:
            join_pairs, residual = self._partition_join_conjuncts(base, conditions)
            if join_pairs:
                left = self.lower(base.left)
                right = self.lower(base.right)
                left_keys = tuple(pair[0] for pair in join_pairs)
                right_keys = tuple(pair[1] for pair in join_pairs)
                return self._make(
                    HashJoin,
                    self._type(base),
                    left,
                    right,
                    left_keys,
                    right_keys,
                    conjoin(residual) if residual else None,
                )

        child = self.lower(base)
        return self._make(Filter, child.output_type, child, conjoin(conditions))

    def _partition_join_conjuncts(
        self, product: Product, conditions: list[SelectionCondition]
    ) -> tuple[list[tuple[int, int]], list[SelectionCondition]]:
        """Split conjuncts into cross-side equality pairs and the residual.

        A conjunct qualifies as a join key when it is an equality of two
        coordinates, one falling in the left factor's flattened components
        and one in the right's.  The returned pairs are 1-based into each
        factor's own flattened component list.
        """
        left_width = len(flatten_for_product(self._type(product.left)))
        join_pairs: list[tuple[int, int]] = []
        residual: list[SelectionCondition] = []
        for condition in conditions:
            pair = _cross_side_equality(condition, left_width)
            if pair is not None:
                join_pairs.append(pair)
            else:
                residual.append(condition)
        return join_pairs, residual


def _cross_side_equality(
    condition: SelectionCondition, left_width: int
) -> tuple[int, int] | None:
    if condition.kind != "eq":
        return None
    first, second = condition.operands
    if not (isinstance(first, int) and isinstance(second, int)):
        return None
    low, high = min(first, second), max(first, second)
    if low <= left_width < high:
        return (low, high - left_width)
    return None
