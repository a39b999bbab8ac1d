"""Pipelined execution of physical plans.

Every operator is a Python generator, so tuples stream through filter /
project / join chains without materializing intermediate instances.  Nodes
are materialized in exactly two cases:

* the node has **multiple consumers** (a shared common subexpression): its
  output is computed once into a frozen set and every consumer iterates the
  cached result;
* the operator is **blocking by nature** (hash-join build side, nested-loop
  inner, set-op right inputs, powerset).

The powerset operator honours the same budget as the legacy interpreter in
:mod:`repro.algebra.evaluation` and raises the same error type, so the two
paths are observably equivalent.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, compress

from repro.errors import EvaluationError
from repro.algebra.evaluation import components_hold, condition_holds, flatten_value
from repro.algebra.vectorized import compile_condition
from repro.engine.codegen import codegen_enabled, fragment_for, fused_rows
from repro.engine.join import build_index, hash_join
from repro.objects.columnar import (
    VALUE_DICTIONARY,
    _count,
    columnar_dispatch,
    difference_ids,
    intersect_ids,
    union_ids,
)
from repro.engine.plan import (
    CollapseNode,
    ConstantScan,
    Filter,
    HashJoin,
    Materialize,
    MultiwayHashJoin,
    NestedLoopProduct,
    PhysicalPlan,
    PlanNode,
    PowersetNode,
    Project,
    Scan,
    SetOp,
    UntupleNode,
)
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import Atom, ComplexValue, SetValue, TupleValue, structural_sort_key
from repro.observability.trace import (
    begin_span,
    current_span,
    finish_span,
    tracing_enabled,
)
from repro.types.type_system import TupleType

#: Default bound on the size of a powerset operand, matching
#: :class:`repro.algebra.evaluation.AlgebraEvaluationSettings`.
DEFAULT_POWERSET_BUDGET = 22

#: Sorted-id-array kernels behind the ``SetOp`` columnar fast path.
_SET_OP_KERNELS = {
    "union": union_ids,
    "intersection": intersect_ids,
    "difference": difference_ids,
}


def _components_key(keys: tuple[int, ...]):
    """Build/probe key extractor over a flattened component tuple.

    A single join coordinate keys on the component value itself (its hash
    is cached by the value runtime) instead of allocating a 1-tuple per
    row; composite keys fall back to a key tuple.
    """
    if len(keys) == 1:
        index = keys[0] - 1
        return lambda comps: comps[index]
    indices = tuple(k - 1 for k in keys)
    return lambda comps: tuple(comps[i] for i in indices)


def _is_permutation(node: Project) -> bool:
    """Whether the projection merely reorders all of its input's columns."""
    child_type = node.child.output_type
    if not isinstance(child_type, TupleType):
        return False
    arity = child_type.arity
    coordinates = node.coordinates
    return len(coordinates) == arity and sorted(coordinates) == list(
        range(1, arity + 1)
    )


def execute_plan(
    plan: PhysicalPlan,
    database: DatabaseInstance,
    powerset_budget: int = DEFAULT_POWERSET_BUDGET,
) -> Instance:
    """Run *plan* against *database* and return the result instance."""
    executor = _Executor(database, powerset_budget)
    return Instance(plan.root.output_type, executor.rows(plan.root))


class _Executor:
    def __init__(self, database: DatabaseInstance, powerset_budget: int) -> None:
        self.database = database
        self.powerset_budget = powerset_budget
        self._cache: dict[int, frozenset[ComplexValue]] = {}
        # Snapshot the tracing switch once per plan execution: the per-node
        # hot path pays one attribute check, and a mid-plan flip cannot
        # produce a half-traced span tree.
        self._tracing = tracing_enabled()
        self._active_span = None

    def rows(self, node: PlanNode) -> Iterator[ComplexValue]:
        """Iterate the node's output, materializing shared nodes once."""
        cached = self._cache.get(node.node_id)
        if cached is not None:
            return iter(cached)
        if self._tracing:
            return self._rows_traced(node)
        if node.consumers > 1 or isinstance(node, Materialize):
            materialized = frozenset(self._iterate(node))
            self._cache[node.node_id] = materialized
            return iter(materialized)
        return self._iterate(node)

    def _rows_traced(self, node: PlanNode) -> Iterator[ComplexValue]:
        """The traced twin of :meth:`rows`: every node materializes under
        its own ``plan.*`` span so actual cardinalities are exact.

        Lazy pipelining would attribute a child's work to whichever
        ancestor happened to be iterating, so the traced executor trades
        streaming for attribution (results are identical; the tracing-on
        differential CI cell pins that).  The active span is carried on
        the executor — not the context variable — because child ``rows``
        calls run inside this frame, not inside a ``with span(...)``.
        """
        parent = self._active_span
        if parent is None:
            parent = current_span()
        node_span = begin_span(
            f"plan.{type(node).__name__}", parent=parent, node_id=node.node_id
        )
        previous = self._active_span
        self._active_span = node_span
        try:
            values = list(self._iterate(node))
        except BaseException:
            if node_span is not None:
                node_span.attributes["error"] = True
                finish_span(node_span)
            raise
        finally:
            self._active_span = previous
        if node_span is not None:
            node_span.attributes["act_rows"] = len(values)
            if node.estimated_rows is not None:
                node_span.attributes["est_rows"] = node.estimated_rows
            if codegen_enabled() and fragment_for(node) is not None:
                node_span.attributes["fused"] = True
            finish_span(node_span)
        if node.consumers > 1 or isinstance(node, Materialize):
            materialized = frozenset(values)
            self._cache[node.node_id] = materialized
            return iter(materialized)
        return iter(values)

    def _iterate(self, node: PlanNode) -> Iterator[ComplexValue]:
        """Dispatch one node: the fused-fragment path when codegen is on
        and covers the subtree rooted here, the interpreting generators
        otherwise (:func:`repro.engine.codegen.fused_rows` explains the
        wholesale per-fragment fallback contract)."""
        if codegen_enabled():
            fused = fused_rows(node, self)
            if fused is not None:
                return iter(fused)
        return self._generate(node)

    # -- operator implementations --------------------------------------------
    def _generate(self, node: PlanNode) -> Iterator[ComplexValue]:
        if isinstance(node, Scan):
            return iter(self.database.instance(node.predicate_name).values)
        if isinstance(node, ConstantScan):
            return iter((Atom(node.value),))
        if isinstance(node, Filter):
            return self._filter(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, HashJoin):
            return self._hash_join(node)
        if isinstance(node, MultiwayHashJoin):
            return self._multiway(node)
        if isinstance(node, NestedLoopProduct):
            return self._nested_loop(node)
        if isinstance(node, SetOp):
            return self._set_op(node)
        if isinstance(node, UntupleNode):
            return self._untuple(node)
        if isinstance(node, CollapseNode):
            return self._collapse(node)
        if isinstance(node, PowersetNode):
            return self._powerset(node)
        if isinstance(node, Materialize):
            return self.rows(node.child)
        raise EvaluationError(f"unknown plan operator {type(node).__name__}")

    def _filter(self, node: Filter) -> Iterator[ComplexValue]:
        condition = node.condition
        child = node.child
        if isinstance(child, Scan):
            # Scan fast path: mask the stored instance's cached
            # per-coordinate id columns — no decode of rejected rows (the
            # stored values stream through compress).  Any other child's
            # rows are transient, so they take the per-tuple check below.
            instance = self.database.instance(child.predicate_name)
            if columnar_dispatch(len(instance)):
                compiled = compile_condition(condition, node.output_type)
                if compiled is not None:
                    columns = {
                        coordinate: instance.coordinate_ids(coordinate)
                        for coordinate in compiled.coordinates
                    }
                    yield from compress(instance, compiled.mask(columns, len(instance)))
                    return
        for value in self.rows(child):
            if condition_holds(condition, value):
                yield value

    def _project(self, node: Project) -> Iterator[ComplexValue]:
        coordinates = node.coordinates
        if _is_permutation(node):
            # A permutation of all coordinates (the join-ordering pass emits
            # these to restore the original column order) is injective, so
            # the input set maps to a set — no dedup bookkeeping needed.
            for value in self.rows(node.child):
                yield TupleValue([value.coordinate(c) for c in coordinates])
            return
        seen: set[ComplexValue] = set()
        for value in self.rows(node.child):
            if not isinstance(value, TupleValue):
                raise EvaluationError(f"projection applied to the non-tuple value {value}")
            projected = TupleValue([value.coordinate(c) for c in coordinates])
            if projected not in seen:
                seen.add(projected)
                yield projected

    def _hash_join(self, node: HashJoin) -> Iterator[ComplexValue]:
        left_rows = (flatten_value(value, node.left_type) for value in self.rows(node.left))
        right_rows = (
            flatten_value(value, node.right_type) for value in self.rows(node.right)
        )
        pairs = hash_join(
            left_rows,
            right_rows,
            left_key=_components_key(node.left_keys),
            right_key=_components_key(node.right_keys),
        )
        residual = node.residual
        for left_components, right_components in pairs:
            # The residual reads the combined component row, so a value is
            # built only for the pairs that pass.
            components = left_components + right_components
            if residual is None or components_hold(residual, components):
                yield TupleValue(components)

    def _multiway(self, node: MultiwayHashJoin) -> Iterator[ComplexValue]:
        """One hash index per build input; each probe row walks the stages.

        The accumulated component row grows by one build's components per
        matching stage and a stage without a match drops the row before
        later indexes are even consulted — the early-out that makes probing
        the most selective build first pay off.  Keying mirrors
        :meth:`_hash_join`.
        """
        stages = []
        for build, build_type, build_keys, probe_keys in zip(
            node.builds, node.build_types, node.build_keys, node.probe_keys
        ):
            build_rows = [
                flatten_value(value, build_type) for value in self.rows(build)
            ]
            index = build_index(build_rows, _components_key(build_keys))
            stages.append((index, _components_key(probe_keys)))
        last = len(stages) - 1

        def expand(row: tuple, stage: int) -> Iterator[ComplexValue]:
            index, probe_key = stages[stage]
            bucket = index.get(probe_key(row))
            if not bucket:
                return
            if stage == last:
                for build_row in bucket:
                    yield TupleValue(row + build_row)
                return
            for build_row in bucket:
                yield from expand(row + build_row, stage + 1)

        for value in self.rows(node.probe):
            yield from expand(flatten_value(value, node.probe_type), 0)

    def _nested_loop(self, node: NestedLoopProduct) -> Iterator[ComplexValue]:
        right_components = [
            flatten_value(value, node.right_type) for value in self.rows(node.right)
        ]
        for left_value in self.rows(node.left):
            left_components = flatten_value(left_value, node.left_type)
            for components in right_components:
                yield TupleValue(left_components + components)

    def _set_op(self, node: SetOp) -> Iterator[ComplexValue]:
        columnar = self._columnar_set_op(node)
        if columnar is not None:
            return columnar
        return self._set_op_streaming(node)

    def _columnar_set_op(self, node: SetOp) -> Iterator[ComplexValue] | None:
        """Run the set operation on stored id columns when both inputs are
        predicate scans and the instances clear the size threshold; ``None``
        falls back to the streaming path.  Scans are side-effect free, so
        skipping the generator machinery cannot reorder any observable
        effect (budget errors and the like).
        """
        instances = []
        for child in (node.left, node.right):
            if not isinstance(child, Scan):
                return None
            instances.append(self.database.instance(child.predicate_name))
        left, right = instances
        if not columnar_dispatch(len(left) + len(right)):
            return None
        kernel = _SET_OP_KERNELS.get(node.kind)
        if kernel is None:
            raise EvaluationError(f"unknown set operation kind {node.kind!r}")
        _count("engine_set_ops")
        return iter(VALUE_DICTIONARY.decode_all(kernel(left.ids(), right.ids())))

    def _set_op_streaming(self, node: SetOp) -> Iterator[ComplexValue]:
        if node.kind == "union":
            seen: set[ComplexValue] = set()
            for value in self.rows(node.left):
                seen.add(value)
                yield value
            for value in self.rows(node.right):
                if value not in seen:
                    yield value
            return
        right = frozenset(self.rows(node.right))
        if node.kind == "intersection":
            for value in self.rows(node.left):
                if value in right:
                    yield value
            return
        if node.kind == "difference":
            for value in self.rows(node.left):
                if value not in right:
                    yield value
            return
        raise EvaluationError(f"unknown set operation kind {node.kind!r}")

    def _untuple(self, node: UntupleNode) -> Iterator[ComplexValue]:
        for value in self.rows(node.child):
            if not isinstance(value, TupleValue) or value.arity != 1:
                raise EvaluationError(f"untuple applied to the non-[T] value {value}")
            yield value.coordinate(1)

    def _collapse(self, node: CollapseNode) -> Iterator[ComplexValue]:
        seen: set[ComplexValue] = set()
        for value in self.rows(node.child):
            if not isinstance(value, SetValue):
                raise EvaluationError(f"collapse applied to the non-set value {value}")
            for element in value.elements:
                if element not in seen:
                    seen.add(element)
                    yield element

    def _powerset(self, node: PowersetNode) -> Iterator[ComplexValue]:
        # The blocking sort reuses the values' cached structural sort keys.
        operand = sorted(self.rows(node.child), key=structural_sort_key)
        if len(operand) > self.powerset_budget:
            raise EvaluationError(
                f"powerset applied to an instance of {len(operand)} objects exceeds the "
                f"powerset budget of {self.powerset_budget} (the result would have "
                f"2**{len(operand)} members)"
            )
        for size in range(len(operand) + 1):
            for combo in combinations(operand, size):
                yield SetValue(combo)
