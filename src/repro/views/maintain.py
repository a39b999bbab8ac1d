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
* **Filter** — the delta's rows that pass the condition, checked by the
  engine's cached compiled predicate (the inline expression fused
  fragments run) or, outside codegen's family, per-tuple
  ``condition_holds``; no state;
* **Project / Collapse** — per-output-row **support counts**: a projected
  row appears when its first witness arrives and disappears only when its
  last witness is deleted;
* **HashJoin** — both sides' :class:`~repro.engine.join.IncrementalIndex`
  es stay alive across batches; the delta probes the *opposite* side's
  index (ΔL ⋈ R  ∪  L ⋈ ΔR  ∪  ΔL ⋈ ΔR, with signed counts so an
  insert-plus-delete batch nets out exactly), then both indexes are
  rolled forward;
* **SetOp** — per-side membership sets and an O(|delta|) membership
  transition: only values in some side's delta are probed;
* **Powerset** (and any operator without a delta rule) — **scoped
  recompute**: only that node is re-evaluated from its children's
  maintained states, and its old/new outputs are diffed back into a
  delta so the rest of the DAG stays incremental.

No rule dictionary-encodes a row.  Delta rows and maintained state
belong to no stored container, and the process-wide value dictionary is
append-only, so encoding them would pin every value a view ever saw.

**Loading is the first batch.**  A maintainer starts as the empty view —
empty support counts, join indexes, side sets and kept outputs — and a
view over a database *D* is loaded by one :meth:`_Maintainer.apply` of
every scanned predicate's instance as an insert-only delta, since the
view over *D* is the empty view plus the delta of inserting *D*.  Only
that first batch treats two operators specially: a constant scan emits
its one row, and a powerset recomputes even when its child delta is
empty (P(∅) = {∅}).

The module-level counters (:func:`views_stats`) record which path each
node application took; the differential sweep in ``tests/test_views.py``
asserts the delta counters move (and the recompute ones don't) on
incrementalizable plans, so a silent fall-back to recomputation cannot
fake a pass.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from operator import itemgetter

from repro.errors import EvaluationError
from repro.algebra.evaluation import components_hold, condition_holds, flatten_value
from repro.algebra.expressions import AlgebraExpression
from repro.engine.codegen import compiled_predicate
from repro.engine.compile import CompileOptions, compile_expression
from repro.engine.execute import DEFAULT_POWERSET_BUDGET, _components_key
from repro.engine.join import IncrementalIndex
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
    """A snapshot of the maintenance counters (tests assert deltas).

    A view load is its first delta batch, so defining or repairing an
    algebra view counts one ``delta_batches`` and moves the node and row
    counters like any other batch."""
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


class _Supports:
    """Per-output-value derivation counts (deletions on flat views), keyed
    by the value itself or, for a projection, by its component tuple.

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
        # View plans are compiled without statistics, so join ordering
        # never reorders them: maintenance keeps per-node state (support
        # counts, incremental join indexes) alive for the plan's lifetime,
        # so the plan must not depend on data-distribution snapshots that
        # updates would invalidate — and the delta rules below deliberately
        # do not handle MultiwayHashJoin (binary joins maintain
        # incrementally; the fused operator would need N-way index
        # bookkeeping for no maintenance benefit).
        self.plan = compile_expression(expression, schema, options)
        self.root = self.plan.root
        # Per-node state for the empty view, keyed by node_id; the load
        # (initialize) fills it like any later batch.
        self._supports: dict[int, _Supports] = {}
        self._joins: dict[int, tuple[IncrementalIndex, IncrementalIndex]] = {}
        self._sides: dict[int, tuple[set, set]] = {}
        # Nodes whose full output must stay materialized: the root (it is
        # served), and the children of scoped-recompute operators.
        keep = {self.root.node_id}
        for node in self.plan.nodes:
            if isinstance(node, (Project, CollapseNode)):
                self._supports[node.node_id] = _Supports()
            elif isinstance(node, HashJoin):
                # No dictionary encode (unlike the executor's transient
                # per-join dictionary): these indexes outlive the batch,
                # so they key on the component values themselves, whose
                # structural hashes the value runtime caches.
                self._joins[node.node_id] = (
                    IncrementalIndex((), key=_components_key(node.left_keys)),
                    IncrementalIndex((), key=_components_key(node.right_keys)),
                )
            elif isinstance(node, (NestedLoopProduct, SetOp)):
                self._sides[node.node_id] = (set(), set())
            elif isinstance(node, PowersetNode):
                keep.add(node.node_id)
                keep.add(node.child.node_id)
        self._outputs: dict[int, set] = {node_id: set() for node_id in keep}
        self._loaded = False

    def initialize(self, database: DatabaseInstance) -> set:
        """Load the view over *database* as its first delta batch — every
        scanned predicate's instance inserted into the empty view — and
        return the root's output set.

        The caller gets (an alias of) the root's kept output set: the
        delta loop updates it in place, so a view can serve from it
        without copying per batch.
        """
        scanned = {node.predicate_name for node in self.plan.nodes if isinstance(node, Scan)}
        self.apply({name: Delta(database.instance(name).values) for name in scanned})
        self._loaded = True
        return self._outputs[self.root.node_id]

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
            # The constant's one row is in the view from the start, so
            # the load (the first batch) inserts it.
            return _EMPTY_DELTA if self._loaded else Delta((Atom(node.value),))
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
            # Unreachable through the public API: view plans are compiled
            # without statistics in __init__, so a multiway operator here
            # means a hand-built plan was injected.
            raise EvaluationError(
                "view maintenance does not support MultiwayHashJoin; compile "
                "view definitions without statistics"
            )
        raise EvaluationError(
            f"unknown plan operator {type(node).__name__} in view maintenance"
        )

    # -- per-operator delta rules ---------------------------------------------
    def _filter_delta(self, node: Filter, child: Delta) -> Delta:
        condition = node.condition
        # The engine's process-wide compiled predicate cache (the same
        # inline expressions fused fragments run) instead of the
        # per-tuple condition_holds tree walk, when codegen covers it.
        predicate = compiled_predicate(condition, node.output_type)
        if predicate is not None:
            passing = lambda rows: [row for row in rows if predicate(row.components)]
        else:
            passing = lambda rows: [row for row in rows if condition_holds(condition, row)]
        return Delta(passing(child.added), passing(child.removed))

    def _project_delta(self, node: Project, child: Delta, journal=None) -> Delta:
        # Supports key on the projected component tuple (equal exactly
        # when the projected values are); a TupleValue is built only for
        # a value whose support crosses zero.
        key = _projection_key(node.coordinates)
        contributions: dict[tuple, int] = {}
        for rows, sign in ((child.added, 1), (child.removed, -1)):
            for row in rows:
                try:
                    projected = key(row.components)
                except AttributeError:
                    raise EvaluationError(
                        f"projection applied to the non-tuple value {row}"
                    ) from None
                contributions[projected] = contributions.get(projected, 0) + sign
        delta = self._supports[node.node_id].apply(contributions, journal)
        if not delta:
            return delta
        return Delta(map(TupleValue, delta.added), map(TupleValue, delta.removed))

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
        residual_holds = None
        if residual is not None:
            residual_holds = compiled_predicate(
                residual, node.output_type
            ) or partial(components_hold, residual)

        def contribute(left_row, right_row, sign: int) -> None:
            row = left_row + right_row
            # The residual reads the raw component row: the output
            # TupleValue is built only for surviving pairs.
            if residual_holds is not None and not residual_holds(row):
                return
            combined = TupleValue(row)
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

        left_changes = [(r, 1) for r in added_left] + [(r, -1) for r in removed_left]
        right_changes = [(r, 1) for r in added_right] + [(r, -1) for r in removed_right]
        for left_row, sign in left_changes:
            for right_row in right_rows:
                contribute(left_row, right_row, sign)
        for right_row, sign in right_changes:
            for left_row in left_rows:
                contribute(left_row, right_row, sign)
        for left_row, left_sign in left_changes:
            for right_row, right_sign in right_changes:
                contribute(left_row, right_row, left_sign * right_sign)

        self._update_side_set(left_rows, added_left, removed_left, journal)
        self._update_side_set(right_rows, added_right, removed_right, journal)

        added = [value for value, count in contributions.items() if count > 0]
        removed = [value for value, count in contributions.items() if count < 0]
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)

    def _setop_delta(self, node: SetOp, left: Delta, right: Delta, journal=None) -> Delta:
        """The membership transition of each value in some side's delta:
        O(|delta|) probes of the pre-batch side sets, which then roll
        forward."""
        left_members, right_members = self._sides[node.node_id]
        kind = node.kind
        if kind == "union":
            judge = lambda in_left, in_right: in_left or in_right
        elif kind == "intersection":
            judge = lambda in_left, in_right: in_left and in_right
        elif kind == "difference":
            judge = lambda in_left, in_right: in_left and not in_right
        else:
            raise EvaluationError(f"unknown set operation kind {kind!r}")
        added_left, removed_left = set(left.added), set(left.removed)
        added_right, removed_right = set(right.added), set(right.removed)
        added: list = []
        removed: list = []
        for value in added_left | removed_left | added_right | removed_right:
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
        self._update_side_set(left_members, left.added, left.removed, journal)
        self._update_side_set(right_members, right.added, right.removed, journal)
        if not added and not removed:
            return _EMPTY_DELTA
        return Delta(added, removed)

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

    # -- scoped recompute -----------------------------------------------------
    def _recompute_delta(self, node: PlanNode, deltas: dict[int, Delta]) -> Delta:
        """Re-evaluate one non-incrementalizable node from its children's
        maintained outputs and express the change as a delta — the rest of
        the DAG stays on the delta path.  The load recomputes even with no
        child delta: a powerset of the empty set is not empty."""
        if self._loaded and not any(deltas[child.node_id] for child in node.children()):
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


def _projection_key(coordinates):
    """A row's components → its projected component tuple."""
    if len(coordinates) == 1:
        index = coordinates[0] - 1
        return lambda components: (components[index],)
    return itemgetter(*(c - 1 for c in coordinates))


def _untuple_row(row):
    if not isinstance(row, TupleValue) or row.arity != 1:
        raise EvaluationError(f"untuple applied to the non-[T] value {row}")
    return row.coordinate(1)


def _collapse_elements(value):
    if not isinstance(value, SetValue):
        raise EvaluationError(f"collapse applied to the non-set value {value}")
    return value.elements
