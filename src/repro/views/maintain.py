"""The delta compiler: incremental maintenance over physical plan DAGs.

A materialized algebra view compiles its definition **once** with the
engine's compiler (:func:`repro.engine.compile.compile_expression` — the
same logical-optimizer pass, common-subexpression elimination and
hash-join detection production queries get) and then keeps the plan's
operator DAG alive between update batches.  Each batch of base-table
inserts/deletes flows through the DAG **as a delta**, node by node in the
plan's topological order, and every node derives its own output delta
from its children's:

* **Scan** — the base delta itself;
* **Filter** — the delta batch masked through the vectorized selection
  compiler (:mod:`repro.algebra.vectorized`) when it applies, per-tuple
  ``condition_holds`` otherwise; no state;
* **Project / Collapse** — per-output-row **support counts**: a projected
  row appears when its first witness arrives and disappears only when its
  last witness is deleted;
* **HashJoin** — both sides' :class:`~repro.engine.join.IncrementalIndex`
  es stay alive across batches; the delta probes the *opposite* side's
  index (ΔL ⋈ R  ∪  L ⋈ ΔR  ∪  ΔL ⋈ ΔR, with signed counts so an
  insert-plus-delete batch nets out exactly), then both indexes are
  rolled forward;
* **SetOp** — per-side membership transitions, with the state columns of
  flat operands maintained by the columnar id-delta kernels
  (:func:`repro.objects.columnar.apply_delta` /
  :func:`~repro.objects.columnar.subtract_sorted`);
* **Powerset** (and any operator without a delta rule) — **scoped
  recompute**: only that node is re-evaluated from its children's
  maintained states, and its old/new outputs are diffed back into a
  delta so the rest of the DAG stays incremental.

The module-level counters (:func:`views_stats`) record which path each
node application took; the differential sweep in ``tests/test_views.py``
asserts the delta counters move (and the recompute ones don't) on
incrementalizable plans, so a silent fall-back to recomputation cannot
fake a pass.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from itertools import combinations

from repro.errors import EvaluationError
from repro.algebra.evaluation import condition_holds, flatten_value
from repro.algebra.expressions import AlgebraExpression
from repro.algebra.vectorized import compile_condition, vectorized_dispatch
from repro.engine.codegen import compiled_predicate
from repro.engine.compile import CompileOptions, compile_expression
from repro.engine.execute import DEFAULT_POWERSET_BUDGET, _components_key
from repro.engine.join import IncrementalIndex
from repro.objects.columnar import (
    ID_TYPECODE,
    VALUE_DICTIONARY,
    apply_delta,
    columnar_dispatch,
    difference_ids,
    intersect_ids,
    union_ids,
)
from repro.objects.instance import DatabaseInstance
from repro.objects.values import Atom, SetValue, TupleValue
from repro.engine.plan import (
    CollapseNode,
    ConstantScan,
    Filter,
    HashJoin,
    Materialize,
    MultiwayHashJoin,
    NestedLoopProduct,
    PlanNode,
    PowersetNode,
    Project,
    Scan,
    SetOp,
    UntupleNode,
)
from repro.reliability.faults import fault_point, register_fault_site
from repro.types.schema import DatabaseSchema
from repro.types.type_system import TupleType

# The named fault sites of the maintenance path (see
# :mod:`repro.reliability.faults`): each stateful delta rule announces
# itself, so the reliability sweep can fail any rule mid-batch and check
# that the undo journal restores every structure it had already touched.
SITE_MAINTAIN_FILTER = register_fault_site(
    "maintain.filter", "a filter node's delta rule"
)
SITE_MAINTAIN_PROJECT = register_fault_site(
    "maintain.project", "a projection node's support-count fold"
)
SITE_MAINTAIN_COLLAPSE = register_fault_site(
    "maintain.collapse", "a collapse node's support-count fold"
)
SITE_MAINTAIN_JOIN = register_fault_site(
    "maintain.join", "between a hash join's left and right index rolls"
)
SITE_MAINTAIN_SETOP = register_fault_site(
    "maintain.setop", "a set-operation node's membership transition"
)
SITE_MAINTAIN_RECOMPUTE = register_fault_site(
    "maintain.recompute", "a scoped recompute (powerset) node"
)


class _ViewsState:
    """Process-wide maintenance counters (no switch: views are opt-in)."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = {
            "delta_batches": 0,
            "delta_node_applications": 0,
            "recompute_node_applications": 0,
            "full_recomputes": 0,
            "rows_delta_in": 0,
            "rows_delta_out": 0,
            "datalog_resumes": 0,
            "datalog_recomputes": 0,
            "views_quarantined": 0,
            "degraded_reads": 0,
            "view_repairs": 0,
            # MVCC epoch lifecycle (see repro.views.database).
            "epoch_pins": 0,
            "epoch_releases": 0,
            "epochs_frozen": 0,
            "epochs_collected": 0,
            "epoch_reads_frozen": 0,
        }


_VIEWS = _ViewsState()


def views_stats() -> dict[str, int]:
    """A snapshot of the maintenance counters (tests assert deltas)."""
    return dict(_VIEWS.stats)


def _count(counter: str, amount: int = 1) -> None:
    _VIEWS.stats[counter] += amount


class Delta:
    """One node's output change for one batch: added and removed values.

    Both sides are duplicate-free, disjoint, and consistent with the
    node's maintained state (added values were absent, removed values
    present) — the invariant every delta rule below both relies on and
    re-establishes.
    """

    __slots__ = ("added", "removed")

    def __init__(self, added=(), removed=()) -> None:
        self.added = tuple(added)
        self.removed = tuple(removed)

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.removed)

    def __repr__(self) -> str:
        return f"Delta(+{len(self.added)}, -{len(self.removed)})"


_EMPTY_DELTA = Delta()


def _encode_sorted_delta(values) -> array:
    """A sorted duplicate-free id column for one side of a delta batch."""
    encode = VALUE_DICTIONARY.encode
    return array(ID_TYPECODE, sorted({encode(value) for value in values}))


class _MaintainedColumn:
    """A sorted id column rolled forward by :func:`apply_delta`.

    Built lazily from the owning set the first time columnar dispatch
    engages; marked stale (and rebuilt on next use) if a batch is applied
    while columnar storage is disabled, so mode toggles mid-life never
    serve a column that missed an update.
    """

    __slots__ = ("ids",)

    def __init__(self) -> None:
        self.ids: array | None = None

    def seed(self, members) -> array:
        """The current column, built from the (pre-batch) *members* on
        first use."""
        if self.ids is None:
            self.ids = _encode_sorted_delta(members)
        return self.ids

    def apply(self, delta: Delta, members, enabled: bool) -> array | None:
        """Roll the column forward by one batch.  *members* must be the
        **pre-batch** membership (used only to seed a missing column)."""
        if not enabled:
            self.ids = None
            return None
        self.seed(members)
        if delta:
            self.ids = apply_delta(
                self.ids,
                _encode_sorted_delta(delta.added),
                _encode_sorted_delta(delta.removed),
            )
        return self.ids


class _Supports:
    """Per-output-value derivation counts (deletions on flat views).

    ``apply`` folds a signed contribution map into the counts and returns
    the *set-level* delta: values whose support crossed zero.  It runs in
    two phases — validate everything, then mutate — so an inconsistent
    contribution map raises with the counts untouched, and the mutation
    phase can log one exact inverse into the batch's undo journal.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[object, int] = {}

    def apply(self, contributions: dict[object, int], journal=None) -> Delta:
        added: list = []
        removed: list = []
        counts = self.counts
        updates: list[tuple[object, int, int]] = []
        for value, change in contributions.items():
            if not change:
                continue
            before = counts.get(value, 0)
            after = before + change
            if after < 0:
                raise EvaluationError(
                    f"view maintenance drove the support of {value} negative "
                    f"({before} {change:+d}); the base delta is inconsistent"
                )
            updates.append((value, before, after))
            if before == 0 and after > 0:
                added.append(value)
            elif before > 0 and after == 0:
                removed.append(value)
        for value, _, after in updates:
            if after:
                counts[value] = after
            else:
                del counts[value]
        if journal is not None and updates:
            def undo(counts=counts, updates=updates) -> None:
                for value, before, _ in updates:
                    if before:
                        counts[value] = before
                    else:
                        counts.pop(value, None)
            journal.record(undo)
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)


_SETOP_KERNELS = {"union": union_ids, "intersection": intersect_ids, "difference": difference_ids}


class _Maintainer:
    """The per-view maintenance state over one compiled physical plan."""

    def __init__(
        self,
        expression: AlgebraExpression,
        schema: DatabaseSchema,
        powerset_budget: int = DEFAULT_POWERSET_BUDGET,
        options: CompileOptions | None = None,
    ) -> None:
        self.expression = expression
        self.schema = schema
        self.powerset_budget = powerset_budget
        # View plans are compiled without statistics and with join
        # reordering pinned off: maintenance keeps per-node state
        # (support counts, incremental join indexes) alive for the plan's
        # lifetime, so the plan must not depend on data-distribution
        # snapshots that updates would invalidate — and the delta rules
        # below deliberately do not handle MultiwayHashJoin (binary joins
        # maintain incrementally; the fused operator would need N-way
        # index bookkeeping for no maintenance benefit).
        options = replace(options, join_ordering=False) if options else None
        self.plan = compile_expression(expression, schema, options)
        self.root = self.plan.root
        # Per-node state, keyed by node_id.
        self._supports: dict[int, _Supports] = {}
        self._joins: dict[int, tuple[IncrementalIndex, IncrementalIndex]] = {}
        self._sides: dict[int, tuple[set, set]] = {}
        self._columns: dict[int, tuple[_MaintainedColumn, _MaintainedColumn, _MaintainedColumn]] = {}
        self._outputs: dict[int, set] = {}
        self._filters: dict[int, object] = {}
        # Nodes whose full output must stay materialized: the root (it is
        # served), and the children of scoped-recompute operators.
        keep = {self.root.node_id}
        for node in self.plan.nodes:
            if isinstance(node, PowersetNode):
                keep.add(node.node_id)
                keep.add(node.child.node_id)
        self._keep_output = keep

    # -- initialization -------------------------------------------------------
    def initialize(self, database: DatabaseInstance) -> set:
        """Evaluate every node bottom-up once, retaining the per-node state
        the delta rules need; returns the root's output set."""
        outputs: dict[int, set] = {}
        for node in self.plan.nodes:
            outputs[node.node_id] = self._initial_output(node, outputs, database)
        for node_id in self._keep_output:
            self._outputs[node_id] = set(outputs[node_id])
        # The caller gets (an alias of) the root's kept output set: the
        # delta loop updates it in place, so a view can serve from it
        # without copying per batch.
        return self._outputs[self.root.node_id]

    def _initial_output(self, node: PlanNode, outputs: dict[int, set], database) -> set:
        if isinstance(node, Scan):
            return set(database.instance(node.predicate_name).values)
        if isinstance(node, ConstantScan):
            return {Atom(node.value)}
        if isinstance(node, Filter):
            child_rows = outputs[node.child.node_id]
            return set(self._filter_rows(node, child_rows))
        if isinstance(node, Project):
            supports = self._supports.setdefault(node.node_id, _Supports())
            contributions: dict[object, int] = {}
            for row in outputs[node.child.node_id]:
                projected = _project_row(row, node.coordinates)
                contributions[projected] = contributions.get(projected, 0) + 1
            delta = supports.apply(contributions)
            return set(delta.added)
        if isinstance(node, UntupleNode):
            return {_untuple_row(row) for row in outputs[node.child.node_id]}
        if isinstance(node, CollapseNode):
            supports = self._supports.setdefault(node.node_id, _Supports())
            contributions = {}
            for value in outputs[node.child.node_id]:
                for element in _collapse_elements(value):
                    contributions[element] = contributions.get(element, 0) + 1
            delta = supports.apply(contributions)
            return set(delta.added)
        if isinstance(node, HashJoin):
            left_rows = [
                flatten_value(value, node.left_type)
                for value in outputs[node.left.node_id]
            ]
            right_rows = [
                flatten_value(value, node.right_type)
                for value in outputs[node.right.node_id]
            ]
            # No dictionary encode (unlike the executor's transient
            # per-join dictionary): these indexes outlive the batch, so
            # they key on the component values themselves, whose
            # structural hashes the value runtime caches.
            left_index = IncrementalIndex(left_rows, key=_components_key(node.left_keys))
            right_index = IncrementalIndex(right_rows, key=_components_key(node.right_keys))
            self._joins[node.node_id] = (left_index, right_index)
            result = set()
            right_lookup = right_index.get
            left_key = left_index.key
            for left_row in left_rows:
                for right_row in right_lookup(left_key(left_row)):
                    combined = TupleValue(left_row + right_row)
                    if node.residual is None or condition_holds(node.residual, combined):
                        result.add(combined)
            return result
        if isinstance(node, NestedLoopProduct):
            left_rows = {
                flatten_value(value, node.left_type)
                for value in outputs[node.left.node_id]
            }
            right_rows = {
                flatten_value(value, node.right_type)
                for value in outputs[node.right.node_id]
            }
            self._sides[node.node_id] = (left_rows, right_rows)
            return {
                TupleValue(left + right) for left in left_rows for right in right_rows
            }
        if isinstance(node, SetOp):
            left = set(outputs[node.left.node_id])
            right = set(outputs[node.right.node_id])
            self._sides[node.node_id] = (left, right)
            self._columns[node.node_id] = (
                _MaintainedColumn(),
                _MaintainedColumn(),
                _MaintainedColumn(),
            )
            if node.kind == "union":
                return left | right
            if node.kind == "intersection":
                return left & right
            if node.kind == "difference":
                return left - right
            raise EvaluationError(f"unknown set operation kind {node.kind!r}")
        if isinstance(node, PowersetNode):
            return self._powerset_output(outputs[node.child.node_id])
        if isinstance(node, Materialize):
            return set(outputs[node.child.node_id])
        raise EvaluationError(
            f"unknown plan operator {type(node).__name__} in view maintenance"
        )

    # -- delta propagation ----------------------------------------------------
    def apply(self, base_deltas: dict[str, Delta], journal=None) -> Delta:
        """Propagate one base-table batch through the DAG; returns the
        root's output delta (states updated in place).

        When *journal* (an :class:`~repro.reliability.staging.UndoJournal`)
        is given, every in-place mutation logs its exact inverse first, so
        a failure anywhere mid-DAG can rewind this maintainer to its
        pre-batch state instead of leaving it desynchronized.
        """
        _count("delta_batches")
        _count(
            "rows_delta_in",
            sum(len(d.added) + len(d.removed) for d in base_deltas.values()),
        )
        deltas: dict[int, Delta] = {}
        for node in self.plan.nodes:
            delta = self._node_delta(node, deltas, base_deltas, journal)
            deltas[node.node_id] = delta
            output = self._outputs.get(node.node_id)
            if output is not None and delta:
                output.difference_update(delta.removed)
                output.update(delta.added)
                if journal is not None:
                    def undo(output=output, delta=delta) -> None:
                        output.difference_update(delta.added)
                        output.update(delta.removed)
                    journal.record(undo)
        root_delta = deltas[self.root.node_id]
        _count("rows_delta_out", len(root_delta.added) + len(root_delta.removed))
        return root_delta

    def _node_delta(
        self,
        node: PlanNode,
        deltas: dict[int, Delta],
        base_deltas: dict[str, Delta],
        journal=None,
    ) -> Delta:
        if isinstance(node, Scan):
            return base_deltas.get(node.predicate_name, _EMPTY_DELTA)
        if isinstance(node, ConstantScan):
            return _EMPTY_DELTA
        if isinstance(node, Materialize):
            return deltas[node.child.node_id]
        if isinstance(node, PowersetNode):
            return self._recompute_delta(node, deltas)
        child_deltas = [deltas[child.node_id] for child in node.children()]
        if not any(child_deltas):
            return _EMPTY_DELTA
        _count("delta_node_applications")
        if isinstance(node, Filter):
            fault_point(SITE_MAINTAIN_FILTER)
            return self._filter_delta(node, child_deltas[0])
        if isinstance(node, Project):
            fault_point(SITE_MAINTAIN_PROJECT)
            return self._project_delta(node, child_deltas[0], journal)
        if isinstance(node, UntupleNode):
            return Delta(
                [_untuple_row(row) for row in child_deltas[0].added],
                [_untuple_row(row) for row in child_deltas[0].removed],
            )
        if isinstance(node, CollapseNode):
            fault_point(SITE_MAINTAIN_COLLAPSE)
            return self._collapse_delta(node, child_deltas[0], journal)
        if isinstance(node, HashJoin):
            return self._join_delta(node, child_deltas[0], child_deltas[1], journal)
        if isinstance(node, NestedLoopProduct):
            return self._product_delta(node, child_deltas[0], child_deltas[1], journal)
        if isinstance(node, SetOp):
            fault_point(SITE_MAINTAIN_SETOP)
            return self._setop_delta(node, child_deltas[0], child_deltas[1], journal)
        if isinstance(node, MultiwayHashJoin):
            # Unreachable through the public API: view plans pin
            # join_ordering off in __init__ (the conservative bypass), so a
            # multiway operator here means a hand-built plan was injected.
            raise EvaluationError(
                "view maintenance does not support MultiwayHashJoin; compile "
                "view definitions with join_ordering disabled"
            )
        raise EvaluationError(
            f"unknown plan operator {type(node).__name__} in view maintenance"
        )

    # -- per-operator delta rules ---------------------------------------------
    def _filter_rows(self, node: Filter, rows) -> list:
        """The rows of *rows* passing the node's condition — vectorized over
        the delta batch when the compiled mask program and the dispatch
        threshold allow, per-tuple otherwise."""
        rows = rows if isinstance(rows, list) else list(rows)
        compiled = self._compiled_condition(node)
        if compiled is not None and vectorized_dispatch(len(rows)):
            return compiled.filter_values(rows)
        condition = node.condition
        # Sub-threshold batches reuse the engine's process-wide compiled
        # predicate cache (the same inline expressions fused fragments
        # run) instead of the per-tuple condition_holds tree walk.
        predicate = compiled_predicate(condition, node.output_type)
        if predicate is not None:
            return [row for row in rows if predicate(row.components)]
        return [row for row in rows if condition_holds(condition, row)]

    def _compiled_condition(self, node: Filter):
        cached = self._filters.get(node.node_id, _UNSET)
        if cached is _UNSET:
            output_type = node.output_type
            cached = (
                compile_condition(node.condition, output_type)
                if isinstance(output_type, TupleType)
                else None
            )
            self._filters[node.node_id] = cached
        return cached

    def _filter_delta(self, node: Filter, child: Delta) -> Delta:
        return Delta(
            self._filter_rows(node, list(child.added)),
            self._filter_rows(node, list(child.removed)),
        )

    def _project_delta(self, node: Project, child: Delta, journal=None) -> Delta:
        contributions: dict[object, int] = {}
        coordinates = node.coordinates
        for row in child.added:
            projected = _project_row(row, coordinates)
            contributions[projected] = contributions.get(projected, 0) + 1
        for row in child.removed:
            projected = _project_row(row, coordinates)
            contributions[projected] = contributions.get(projected, 0) - 1
        return self._supports[node.node_id].apply(contributions, journal)

    def _collapse_delta(self, node: CollapseNode, child: Delta, journal=None) -> Delta:
        contributions: dict[object, int] = {}
        for value in child.added:
            for element in _collapse_elements(value):
                contributions[element] = contributions.get(element, 0) + 1
        for value in child.removed:
            for element in _collapse_elements(value):
                contributions[element] = contributions.get(element, 0) - 1
        return self._supports[node.node_id].apply(contributions, journal)

    def _join_delta(self, node: HashJoin, left: Delta, right: Delta, journal=None) -> Delta:
        left_index, right_index = self._joins[node.node_id]
        left_type, right_type = node.left_type, node.right_type
        added_left = [flatten_value(v, left_type) for v in left.added]
        removed_left = [flatten_value(v, left_type) for v in left.removed]
        added_right = [flatten_value(v, right_type) for v in right.added]
        removed_right = [flatten_value(v, right_type) for v in right.removed]
        left_key, right_key = left_index.key, right_index.key

        # Signed pair counts: ΔL ⋈ R_old  +  L_old ⋈ ΔR  +  ΔL ⋈ ΔR.  The
        # persistent indexes still hold the pre-batch state here, so each
        # term probes exactly the relation version the formula names.
        contributions: dict[object, int] = {}
        residual = node.residual
        residual_predicate = (
            compiled_predicate(residual, node.output_type) if residual is not None else None
        )

        def contribute(left_row, right_row, sign: int) -> None:
            row = left_row + right_row
            if residual_predicate is not None:
                # Compiled residual over the raw component row: the output
                # TupleValue is built only for surviving pairs.
                if not residual_predicate(row):
                    return
                combined = TupleValue(row)
            else:
                combined = TupleValue(row)
                if residual is not None and not condition_holds(residual, combined):
                    return
            contributions[combined] = contributions.get(combined, 0) + sign

        for rows, sign in ((added_left, 1), (removed_left, -1)):
            for left_row in rows:
                for right_row in right_index.get(left_key(left_row)):
                    contribute(left_row, right_row, sign)
        for rows, sign in ((added_right, 1), (removed_right, -1)):
            for right_row in rows:
                for left_row in left_index.get(right_key(right_row)):
                    contribute(left_row, right_row, sign)
        delta_right = IncrementalIndex(added_right, key=right_key)
        removed_right_index = IncrementalIndex(removed_right, key=right_key)
        for left_row, left_sign in ((row, 1) for row in added_left):
            key = left_key(left_row)
            for right_row in delta_right.get(key):
                contribute(left_row, right_row, left_sign)
            for right_row in removed_right_index.get(key):
                contribute(left_row, right_row, -left_sign)
        for left_row in removed_left:
            key = left_key(left_row)
            for right_row in delta_right.get(key):
                contribute(left_row, right_row, -1)
            for right_row in removed_right_index.get(key):
                contribute(left_row, right_row, 1)

        # Roll the persistent indexes forward to the post-batch state.
        # The fault site sits between the two rolls: a failure there
        # leaves the hardest possible half-applied state (one index new,
        # one old), which is exactly what the undo journal must rewind.
        undo_left = left_index.apply_batch(added_left, removed_left)
        if journal is not None:
            journal.record(undo_left)
        fault_point(SITE_MAINTAIN_JOIN)
        undo_right = right_index.apply_batch(added_right, removed_right)
        if journal is not None:
            journal.record(undo_right)

        added = [value for value, count in contributions.items() if count > 0]
        removed = [value for value, count in contributions.items() if count < 0]
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)

    def _product_delta(
        self, node: NestedLoopProduct, left: Delta, right: Delta, journal=None
    ) -> Delta:
        left_rows, right_rows = self._sides[node.node_id]
        left_type, right_type = node.left_type, node.right_type
        added_left = [flatten_value(v, left_type) for v in left.added]
        removed_left = [flatten_value(v, left_type) for v in left.removed]
        added_right = [flatten_value(v, right_type) for v in right.added]
        removed_right = [flatten_value(v, right_type) for v in right.removed]

        contributions: dict[object, int] = {}

        def contribute(left_row, right_row, sign: int) -> None:
            combined = TupleValue(left_row + right_row)
            contributions[combined] = contributions.get(combined, 0) + sign

        for left_row, sign in [(r, 1) for r in added_left] + [(r, -1) for r in removed_left]:
            for right_row in right_rows:
                contribute(left_row, right_row, sign)
        for right_row, sign in [(r, 1) for r in added_right] + [(r, -1) for r in removed_right]:
            for left_row in left_rows:
                contribute(left_row, right_row, sign)
        for left_row, left_sign in [(r, 1) for r in added_left] + [(r, -1) for r in removed_left]:
            for right_row, right_sign in (
                [(r, 1) for r in added_right] + [(r, -1) for r in removed_right]
            ):
                contribute(left_row, right_row, left_sign * right_sign)

        self._update_side_set(left_rows, added_left, removed_left, journal)
        self._update_side_set(right_rows, added_right, removed_right, journal)

        added = [value for value, count in contributions.items() if count > 0]
        removed = [value for value, count in contributions.items() if count < 0]
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)

    def _setop_delta(self, node: SetOp, left: Delta, right: Delta, journal=None) -> Delta:
        left_members, right_members = self._sides[node.node_id]
        left_column, right_column, out_column = self._columns[node.node_id]
        if journal is not None:
            # The columns are rolled forward by whole-array replacement,
            # so restoring the old references is an exact rewind.
            def undo_columns(
                columns=(left_column, right_column, out_column),
                ids=(left_column.ids, right_column.ids, out_column.ids),
            ) -> None:
                for column, old in zip(columns, ids):
                    column.ids = old
            journal.record(undo_columns)
        columnar = columnar_dispatch(len(left_members) + len(right_members))
        result: Delta
        if columnar:
            # Kernel path: roll both side columns forward with apply_delta,
            # recompute the output column with the galloping set kernel and
            # diff it against the maintained output column — only the diff
            # (the delta) is ever decoded back to values.
            if out_column.ids is None:
                out_column.ids = _encode_sorted_delta(
                    self._setop_members(node.kind, left_members, right_members)
                )
            old_out = out_column.ids
            new_left = left_column.apply(left, left_members, True)
            new_right = right_column.apply(right, right_members, True)
            new_out = _SETOP_KERNELS[node.kind](new_left, new_right)
            added_ids = difference_ids(new_out, old_out)
            removed_ids = difference_ids(old_out, new_out)
            out_column.ids = new_out
            decode = VALUE_DICTIONARY.decode_all
            result = (
                Delta(decode(added_ids), decode(removed_ids))
                if len(added_ids) or len(removed_ids)
                else _EMPTY_DELTA
            )
            self._apply_side_sets(left_members, right_members, left, right, journal)
            return result
        result = self._setop_delta_members(node.kind, left_members, right_members, left, right)
        self._apply_side_sets(left_members, right_members, left, right, journal)
        left_column.apply(left, left_members, False)
        right_column.apply(right, right_members, False)
        out_column.ids = None
        return result

    @staticmethod
    def _setop_members(kind: str, left_members, right_members):
        """The *pre-batch* output members (for seeding the output column
        lazily the first time the kernel path engages)."""
        if kind == "union":
            return left_members | right_members
        if kind == "intersection":
            return left_members & right_members
        return left_members - right_members

    @staticmethod
    def _update_side_set(members: set, added, removed, journal=None) -> None:
        """Apply one side's delta to its membership set, journaling the
        exact inverse (sound because of the delta invariant: *added* rows
        were absent, *removed* rows present)."""
        members.difference_update(removed)
        members.update(added)
        if journal is not None and (added or removed):
            def undo(members=members, added=tuple(added), removed=tuple(removed)) -> None:
                members.difference_update(added)
                members.update(removed)
            journal.record(undo)

    @classmethod
    def _apply_side_sets(
        cls, left_members, right_members, left: Delta, right: Delta, journal=None
    ) -> None:
        cls._update_side_set(left_members, left.added, left.removed, journal)
        cls._update_side_set(right_members, right.added, right.removed, journal)

    @staticmethod
    def _setop_delta_members(
        kind: str, left_members, right_members, left: Delta, right: Delta
    ) -> Delta:
        """Membership-transition delta over the side sets (object path):
        O(|delta|) probes, no column in sight."""
        affected = set(left.added) | set(left.removed) | set(right.added) | set(right.removed)
        added_left, removed_left = set(left.added), set(left.removed)
        added_right, removed_right = set(right.added), set(right.removed)
        if kind == "union":
            judge = lambda in_left, in_right: in_left or in_right
        elif kind == "intersection":
            judge = lambda in_left, in_right: in_left and in_right
        elif kind == "difference":
            judge = lambda in_left, in_right: in_left and not in_right
        else:
            raise EvaluationError(f"unknown set operation kind {kind!r}")
        added: list = []
        removed: list = []
        for value in affected:
            old_left = value in left_members
            old_right = value in right_members
            new_left = (old_left and value not in removed_left) or value in added_left
            new_right = (old_right and value not in removed_right) or value in added_right
            before = judge(old_left, old_right)
            after = judge(new_left, new_right)
            if after and not before:
                added.append(value)
            elif before and not after:
                removed.append(value)
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)

    # -- scoped recompute -----------------------------------------------------
    def _recompute_delta(self, node: PlanNode, deltas: dict[int, Delta]) -> Delta:
        """Re-evaluate one non-incrementalizable node from its children's
        maintained outputs and express the change as a delta — the rest of
        the DAG stays on the delta path."""
        if not any(deltas[child.node_id] for child in node.children()):
            return _EMPTY_DELTA
        _count("recompute_node_applications")
        fault_point(SITE_MAINTAIN_RECOMPUTE)
        if isinstance(node, PowersetNode):
            new_output = self._powerset_output(self._outputs[node.child.node_id])
        else:  # pragma: no cover - no other recompute operators today
            raise EvaluationError(
                f"no recompute rule for plan operator {type(node).__name__}"
            )
        old_output = self._outputs[node.node_id]
        added = new_output - old_output
        removed = old_output - new_output
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)

    def _powerset_output(self, operand: set) -> set:
        if len(operand) > self.powerset_budget:
            raise EvaluationError(
                f"powerset applied to an instance of {len(operand)} objects exceeds the "
                f"powerset budget of {self.powerset_budget} (the result would have "
                f"2**{len(operand)} members)"
            )
        members = sorted(operand, key=lambda value: value.sort_key())
        result = set()
        for size in range(len(members) + 1):
            for combo in combinations(members, size):
                result.add(SetValue(combo))
        return result


_UNSET = object()


def _project_row(row, coordinates) -> TupleValue:
    if not isinstance(row, TupleValue):
        raise EvaluationError(f"projection applied to the non-tuple value {row}")
    return TupleValue([row.coordinate(c) for c in coordinates])


def _untuple_row(row):
    if not isinstance(row, TupleValue) or row.arity != 1:
        raise EvaluationError(f"untuple applied to the non-[T] value {row}")
    return row.coordinate(1)


def _collapse_elements(value):
    if not isinstance(value, SetValue):
        raise EvaluationError(f"collapse applied to the non-set value {value}")
    return value.elements
