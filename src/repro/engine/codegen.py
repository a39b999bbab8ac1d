"""Plan-to-Python code generation: fused single-loop pipeline fragments.

The interpreting executor (:mod:`repro.engine.execute`) streams rows
through one Python generator frame per plan node — clean, but the frame
switches and the per-row re-dispatch dominate the hot path once selections
are vectorized and bulk storage is columnar.  This module removes that
interpreter overhead the way raco lowers the same logical plans through
``compilePipeline``: a plan subtree is translated to *textual Python
source* — one flat loop per pipeline, no generator hops — which is
``compile()``-d once and cached process-wide.

**Fragments.**  A fragment is a maximal pipelined subtree rooted at a
fusable operator (``Filter``, ``Project``, ``Untuple``, ``HashJoin``,
``NestedLoopProduct``, ``SetOp``).  Emission walks producer-to-consumer:
each operator contributes loop/branch lines and hands the current row to
its consumer's emitter, so a scan→filter→project chain becomes literally

    for _v1 in _b0:                  # Scan (instance bound via env)
        _r2 = _v1.components
        if _r2[2] == _b1:            # Filter, constants hoisted to env
            _k3 = (_r2[1],)
            if _k3 not in _seen0:    # Project, streaming dedup
                _seen0.add(_k3)
                _append(_TupleValue(_k3))   # survivor-only construction

Fragment *boundaries* are the places the emitter stops inlining and
instead loops over ``executor.rows(child)``: blocking inputs (hash-join
build sides, set-op right inputs) when the subtree is not itself fusable,
operators codegen does not cover (powerset, collapse, materialize), and
shared DAG nodes (``consumers > 1`` — the executor materializes those
once; inlining would duplicate work).  Scans are always inlined: reading
a stored instance is pure and side-effect free.  Each boundary child is
dispatched through the executor again, so it gets its own independent
chance to fuse.

**Fast paths mirrored.**  The emitted source keeps the representation
fast paths of the interpreter, hoisted out of the row loop: a filter over
a scan emits the vectorized mask call over the instance's cached id
columns (per-row inline predicate below the dispatch threshold), and a
set operation over two scans emits the columnar id-array kernel with the
streaming loop as its runtime ``else`` branch.  Both branches are always
emitted and :func:`~repro.objects.columnar.columnar_dispatch` picks one
per execution, so one compiled fragment serves every threshold.

**Fallback contract.**  Fusion is wholesale per fragment: if *any*
construct inside a candidate fragment is not inlinable (a condition that
does not validate, a non-flat membership, an unknown operator), the whole
fragment declines and the interpreting generators run instead — there is
no partially-fused hybrid.  ``codegen_stats()['fallbacks']`` counts those
declines; trivial roots (bare scans, constants, materialize markers) are
not fallbacks, they simply have nothing to fuse.

**Caching.**  Two levels.  The emitted source text is a deterministic
function of plan *structure* (names, constants and mask programs are
bound through an ``env`` dict, not embedded), so the source string itself
is the structural cache key: fragments compile through
:func:`repro.utils.pysource.compiled`, the process-wide cache the calculus
and second-order evaluators share, keyed by the source and bounded in
entries and source size — structurally identical plans from different
source expressions hit the same function (``cache_hits``).  ``_PREPARED``
additionally memoizes the emission per concrete plan node so repeated
executions of a cached plan skip the emitter entirely.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from hashlib import sha256
from itertools import compress

from repro.errors import TypingError
from repro.algebra.expressions import ConstantOperand, SelectionCondition, condition_key
from repro.algebra.vectorized import compile_condition
from repro.engine.plan import (
    ConstantScan,
    Filter,
    HashJoin,
    Materialize,
    MultiwayHashJoin,
    NestedLoopProduct,
    PhysicalPlan,
    PlanNode,
    Project,
    Scan,
    SetOp,
    UntupleNode,
)
from repro.objects.columnar import (
    VALUE_DICTIONARY,
    _count,
    columnar_dispatch,
    difference_ids,
    intersect_ids,
    union_ids,
)
from repro.objects.values import Atom, TupleValue
from repro.types.type_system import TupleType
from repro.utils import pysource


class _CodegenState:
    """The process-wide codegen switch and engagement counters."""

    __slots__ = ("enabled", "stats")

    def __init__(self) -> None:
        self.enabled = True
        self.stats = {
            "fragments_compiled": 0,
            "fragments_fused": 0,
            "cache_hits": 0,
            "rows_emitted": 0,
            "fallbacks": 0,
            "predicates_compiled": 0,
            "predicate_cache_hits": 0,
        }


_CODEGEN = _CodegenState()


def codegen_enabled() -> bool:
    """Whether the executor may dispatch plan subtrees to fused fragments."""
    return _CODEGEN.enabled


def set_codegen(enabled: bool) -> bool:
    """Enable/disable fused codegen; returns the previous setting.

    Disabling restores the interpreting generator executor everywhere (the
    differential oracle); answers are identical in both modes.
    """
    previous = _CODEGEN.enabled
    _CODEGEN.enabled = bool(enabled)
    return previous


@contextmanager
def codegen(enabled: bool = True):
    """Context-manager form of :func:`set_codegen`."""
    previous = set_codegen(enabled)
    try:
        yield
    finally:
        set_codegen(previous)


def codegen_stats() -> dict[str, int]:
    """A snapshot of the engagement counters (tests assert deltas)."""
    return dict(_CODEGEN.stats)


class _Unsupported(Exception):
    """Internal: the candidate fragment contains a non-inlinable construct."""


#: Helper objects the emitted source reaches through ``env`` (bound into
#: locals in the fragment prologue; only the ones a fragment uses).
_HELPERS = {
    "compress": compress,
    "TupleValue": TupleValue,
    "cdispatch": columnar_dispatch,
    "decode_all": VALUE_DICTIONARY.decode_all,
    "count_setop": partial(_count, "engine_set_ops"),
    "union_ids": union_ids,
    "intersect_ids": intersect_ids,
    "difference_ids": difference_ids,
}

_SET_OP_HELPERS = {
    "union": "union_ids",
    "intersection": "intersect_ids",
    "difference": "difference_ids",
}

#: Operators a fragment may be rooted at / inline.  Everything else
#: (powerset, collapse, materialize, unknown nodes) is a boundary.
_FUSABLE = (
    Filter,
    Project,
    UntupleNode,
    HashJoin,
    MultiwayHashJoin,
    NestedLoopProduct,
    SetOp,
)

#: Roots with nothing to fuse: not fallbacks, just trivially interpreted.
_TRIVIAL = (Scan, ConstantScan, Materialize)


class _Row:
    """The value flowing through the fragment at one emission point.

    Tracks which local variables currently hold it — as a runtime value,
    as a flattened component tuple, or both — and emits the conversion
    lazily exactly when a consumer first needs the other form, so a
    filter→project chain touches ``.components`` once and a join probe
    builds the output ``TupleValue`` only for surviving rows.
    """

    __slots__ = ("emitter", "type", "value_var", "components_var")

    def __init__(self, emitter, type_, value_var=None, components_var=None):
        self.emitter = emitter
        self.type = type_
        self.value_var = value_var
        self.components_var = components_var

    def value(self) -> str:
        if self.value_var is None:
            emitter = self.emitter
            var = emitter.fresh("_t")
            if isinstance(self.type, TupleType):
                emitter.line(f"{var} = {emitter.helper('TupleValue')}({self.components_var})")
            else:
                emitter.line(f"{var} = {self.components_var}[0]")
            self.value_var = var
        return self.value_var

    def components(self) -> str:
        if self.components_var is None:
            emitter = self.emitter
            if not isinstance(self.type, TupleType):
                raise _Unsupported
            var = emitter.fresh("_r")
            emitter.line(f"{var} = {self.value_var}.components")
            self.components_var = var
        return self.components_var


class _Emitter(pysource.Emitter):
    """Producer-to-consumer source emitter for one fragment.

    ``produce(node, consume)`` emits the loops/branches that stream the
    node's rows and invokes *consume* once per emission site with a
    :class:`_Row`; consumers may be invoked more than once when a runtime
    representation branch (mask vs per-row, kernel vs streaming)
    duplicates the downstream body, so consumers must allocate fresh row
    variables per invocation (they do, via :meth:`fresh`).
    """

    def __init__(self) -> None:
        super().__init__("_fragment(env)", indent=1, blocks=0)
        self.bindings: list[tuple[str, str, object]] = []
        self._binding_slots: dict[object, str] = {}
        self.helpers_used: set[str] = set()
        self.fused_node_ids: list[int] = []
        self.boundary_nodes: list[PlanNode] = []
        self.fused_operators = 0

    # -- low-level emission ------------------------------------------------
    def helper(self, name: str) -> str:
        self.helpers_used.add(name)
        return f"_{name}"

    def bind(self, kind: str, payload, dedup_key=None) -> str:
        """Reserve an ``env`` slot resolved at execution time (see
        :func:`_build_env`); *dedup_key* shares slots between references
        to the same scan/constant so the source stays canonical."""
        if dedup_key is not None:
            slot = self._binding_slots.get(dedup_key)
            if slot is not None:
                return slot
        slot = f"_b{len(self.bindings)}"
        self.bindings.append((slot, kind, payload))
        if dedup_key is not None:
            self._binding_slots[dedup_key] = slot
        return slot

    def _bind_scan(self, node: Scan) -> str:
        return self.bind("scan", node.predicate_name, ("scan", node.predicate_name))

    def _bind_constant(self, value) -> str:
        try:
            dedup_key = ("const", value)
            hash(value)
        except TypeError:
            dedup_key = None
        return self.bind("const", value, dedup_key)

    # -- fragment roots ----------------------------------------------------
    def build(self, node: PlanNode) -> None:
        """Emit the whole fragment body rooted at *node* into ``lines``."""
        if not isinstance(node, _FUSABLE):
            raise _Unsupported
        self.fused_node_ids.append(node.node_id)

        def append_output(row: _Row) -> None:
            self.line(f"_append({row.value()})")

        self.produce(node, append_output)
        if self.fused_operators == 0:
            raise _Unsupported

    # -- producers ---------------------------------------------------------
    def source(self, node: PlanNode, consume) -> None:
        """Stream *node*'s rows into the fragment: inline when fusable,
        otherwise loop over an executor-supplied boundary iterator."""
        if self._can_inline(node):
            self.fused_node_ids.append(node.node_id)
            self.produce(node, consume)
            return
        self.boundary_nodes.append(node)
        slot = self.bind("rows", node, ("rows", id(node)))
        var = self.fresh("_v")
        with self.block(f"for {var} in {slot}():"):
            consume(_Row(self, node.output_type, value_var=var))

    def _can_inline(self, node: PlanNode) -> bool:
        if isinstance(node, (Scan, ConstantScan)):
            return True
        # Shared nodes are materialized once by the executor; inlining
        # them here would re-evaluate the subtree per consumer.
        return isinstance(node, _FUSABLE) and node.consumers <= 1

    def produce(self, node: PlanNode, consume) -> None:
        if isinstance(node, Scan):
            slot = self._bind_scan(node)
            var = self.fresh("_v")
            with self.block(f"for {var} in {slot}:"):
                consume(_Row(self, node.output_type, value_var=var))
            return
        if isinstance(node, ConstantScan):
            slot = self._bind_constant(node.value)
            consume(_Row(self, node.output_type, value_var=slot))
            return
        self.fused_operators += 1
        if isinstance(node, Filter):
            return self._emit_filter(node, consume)
        if isinstance(node, Project):
            return self._emit_project(node, consume)
        if isinstance(node, UntupleNode):
            return self._emit_untuple(node, consume)
        if isinstance(node, HashJoin):
            return self._emit_hash_join(node, consume)
        if isinstance(node, MultiwayHashJoin):
            return self._emit_multiway(node, consume)
        if isinstance(node, NestedLoopProduct):
            return self._emit_nested_loop(node, consume)
        if isinstance(node, SetOp):
            return self._emit_set_op(node, consume)
        raise _Unsupported

    # -- operator emitters -------------------------------------------------
    def _emit_filter(self, node: Filter, consume) -> None:
        expression = self.predicate(node.condition, node.output_type)
        child = node.child
        compiled = (
            compile_condition(node.condition, node.output_type)
            if isinstance(child, Scan)
            else None
        )
        if compiled is not None:
            # Scan fast path, hoisted out of the loop: one mask call over
            # the instance's cached id columns, survivors streamed through
            # compress; the per-row inline predicate serves sub-threshold
            # instances.  The consumer body is emitted under both branches.
            self.fused_node_ids.append(child.node_id)
            instance = self._bind_scan(child)
            mask_slot = self.bind("mask", compiled)
            count = self.fresh("_n")
            self.line(f"{count} = len({instance})")
            with self.block(f"if {self.helper('cdispatch')}({count}):"):
                columns = ", ".join(
                    f"{c}: {instance}.coordinate_ids({c})" for c in compiled.coordinates
                )
                mask = self.fresh("_m")
                self.line(f"{mask} = {mask_slot}({{{columns}}}, {count})")
                var = self.fresh("_v")
                with self.block(f"for {var} in {self.helper('compress')}({instance}, {mask}):"):
                    consume(_Row(self, node.output_type, value_var=var))
            with self.block("else:"):
                var = self.fresh("_v")
                with self.block(f"for {var} in {instance}:"):
                    row = _Row(self, node.output_type, value_var=var)
                    with self.block(f"if {expression(row.components())}:"):
                        consume(row)
            return

        def filtered(row: _Row) -> None:
            with self.block(f"if {expression(row.components())}:"):
                consume(row)

        self.source(child, filtered)

    def _emit_project(self, node: Project, consume) -> None:
        child_type = node.child.output_type
        if not isinstance(child_type, TupleType):
            raise _Unsupported
        if any(not 1 <= c <= child_type.arity for c in node.coordinates):
            raise _Unsupported
        seen = self.fresh("_seen")
        add = self.fresh("_add")
        self.line(f"{seen} = set()")
        self.line(f"{add} = {seen}.add")

        def projected(row: _Row) -> None:
            # Dedup on the raw component tuple (same equality/hash as the
            # interned TupleValue); the output value is constructed only
            # for rows that survive the dedup.
            comps = row.components()
            key = self.fresh("_k")
            items = ", ".join(f"{comps}[{c - 1}]" for c in node.coordinates)
            self.line(f"{key} = ({items},)")
            with self.block(f"if {key} not in {seen}:"):
                self.line(f"{add}({key})")
                consume(_Row(self, node.output_type, components_var=key))

        self.source(node.child, projected)

    def _emit_untuple(self, node: UntupleNode, consume) -> None:
        child_type = node.child.output_type
        if not isinstance(child_type, TupleType) or child_type.arity != 1:
            raise _Unsupported

        def stripped(row: _Row) -> None:
            var = self.fresh("_u")
            self.line(f"{var} = {row.components()}[0]")
            consume(_Row(self, node.output_type, value_var=var))

        self.source(node.child, stripped)

    def _key_expression(self, comps: str, keys: tuple[int, ...]) -> str:
        if len(keys) == 1:
            return f"{comps}[{keys[0] - 1}]"
        return "(" + ", ".join(f"{comps}[{k - 1}]" for k in keys) + ",)"

    def _emit_hash_join(self, node: HashJoin, consume) -> None:
        if not isinstance(node.output_type, TupleType):
            raise _Unsupported
        residual = (
            self.predicate(node.residual, node.output_type)
            if node.residual is not None
            else None
        )
        index = self.fresh("_idx")
        self.line(f"{index} = {{}}")

        def build(row: _Row) -> None:
            comps = row.components()
            key = self.fresh("_k")
            self.line(f"{key} = {self._key_expression(comps, node.right_keys)}")
            bucket = self.fresh("_bk")
            self.line(f"{bucket} = {index}.get({key})")
            with self.block(f"if {bucket} is None:"):
                self.line(f"{index}[{key}] = [{comps}]")
            with self.block("else:"):
                self.line(f"{bucket}.append({comps})")

        self.source(node.right, build)
        get = self.fresh("_get")
        self.line(f"{get} = {index}.get")

        def probe(row: _Row) -> None:
            comps = row.components()
            key = self.fresh("_k")
            self.line(f"{key} = {self._key_expression(comps, node.left_keys)}")
            bucket = self.fresh("_bk")
            self.line(f"{bucket} = {get}({key})")
            with self.block(f"if {bucket} is not None:"):
                build_row = self.fresh("_br")
                with self.block(f"for {build_row} in {bucket}:"):
                    out = self.fresh("_o")
                    self.line(f"{out} = {comps} + {build_row}")
                    if residual is None:
                        consume(_Row(self, node.output_type, components_var=out))
                    else:
                        # In-loop residual over the raw component row: the
                        # output TupleValue is built only for survivors.
                        with self.block(f"if {residual(out)}:"):
                            consume(_Row(self, node.output_type, components_var=out))

        self.source(node.left, probe)

    def _emit_multiway(self, node: MultiwayHashJoin, consume) -> None:
        """All build indexes first, then one fused nested probe loop.

        Each stage contributes an index lookup plus a ``for`` over the
        bucket; a probe row that misses any stage's index falls out before
        later stages run, and the accumulated component tuple only becomes
        a ``TupleValue`` at the innermost level — the whole chain is one
        loop nest with no intermediate tuple construction.
        """
        if not isinstance(node.output_type, TupleType):
            raise _Unsupported
        getters = []
        for build, build_keys in zip(node.builds, node.build_keys):
            index = self.fresh("_idx")
            self.line(f"{index} = {{}}")

            def build_consumer(row: _Row, index=index, build_keys=build_keys) -> None:
                comps = row.components()
                key = self.fresh("_k")
                self.line(f"{key} = {self._key_expression(comps, build_keys)}")
                bucket = self.fresh("_bk")
                self.line(f"{bucket} = {index}.get({key})")
                with self.block(f"if {bucket} is None:"):
                    self.line(f"{index}[{key}] = [{comps}]")
                with self.block("else:"):
                    self.line(f"{bucket}.append({comps})")

            self.source(build, build_consumer)
            get = self.fresh("_get")
            self.line(f"{get} = {index}.get")
            getters.append(get)

        def stage(accumulated: str, index: int) -> None:
            if index == len(getters):
                consume(_Row(self, node.output_type, components_var=accumulated))
                return
            key = self.fresh("_k")
            self.line(
                f"{key} = {self._key_expression(accumulated, node.probe_keys[index])}"
            )
            bucket = self.fresh("_bk")
            self.line(f"{bucket} = {getters[index]}({key})")
            with self.block(f"if {bucket} is not None:"):
                build_row = self.fresh("_br")
                with self.block(f"for {build_row} in {bucket}:"):
                    out = self.fresh("_o")
                    self.line(f"{out} = {accumulated} + {build_row}")
                    stage(out, index + 1)

        self.source(node.probe, lambda row: stage(row.components(), 0))

    def _emit_nested_loop(self, node: NestedLoopProduct, consume) -> None:
        if not isinstance(node.output_type, TupleType):
            raise _Unsupported
        inner = self.fresh("_rs")
        self.line(f"{inner} = []")
        collect = self.fresh("_ra")
        self.line(f"{collect} = {inner}.append")
        self.source(node.right, lambda row: self.line(f"{collect}({row.components()})"))

        def outer(row: _Row) -> None:
            comps = row.components()
            inner_row = self.fresh("_br")
            with self.block(f"for {inner_row} in {inner}:"):
                out = self.fresh("_o")
                self.line(f"{out} = {comps} + {inner_row}")
                consume(_Row(self, node.output_type, components_var=out))

        self.source(node.left, outer)

    def _emit_set_op(self, node: SetOp, consume) -> None:
        kernel = _SET_OP_HELPERS.get(node.kind)
        if kernel is None:
            raise _Unsupported
        left, right = node.left, node.right
        if isinstance(left, Scan) and isinstance(right, Scan):
            # Columnar fast path over two stored instances: the id-array
            # kernel plus a decode loop, with the streaming pipeline as
            # the runtime branch for sub-threshold inputs.
            self.fused_node_ids.extend((left.node_id, right.node_id))
            left_instance = self._bind_scan(left)
            right_instance = self._bind_scan(right)
            with self.block(
                f"if {self.helper('cdispatch')}"
                f"(len({left_instance}) + len({right_instance})):"
            ):
                self.line(f"{self.helper('count_setop')}()")
                var = self.fresh("_v")
                with self.block(
                    f"for {var} in {self.helper('decode_all')}({self.helper(kernel)}"
                    f"({left_instance}.ids(), {right_instance}.ids())):"
                ):
                    consume(_Row(self, node.output_type, value_var=var))
            with self.block("else:"):
                self._emit_set_op_streaming(node, consume)
            return
        self._emit_set_op_streaming(node, consume)

    def _emit_set_op_streaming(self, node: SetOp, consume) -> None:
        if node.kind == "union":
            seen = self.fresh("_seen")
            add = self.fresh("_add")
            self.line(f"{seen} = set()")
            self.line(f"{add} = {seen}.add")

            def left_side(row: _Row) -> None:
                self.line(f"{add}({row.value()})")
                consume(row)

            self.source(node.left, left_side)

            def right_side(row: _Row) -> None:
                with self.block(f"if {row.value()} not in {seen}:"):
                    consume(row)

            self.source(node.right, right_side)
            return
        # Intersection/difference materialize the right side first, same
        # consumption order as the interpreter.
        members = self.fresh("_rset")
        collect = self.fresh("_radd")
        self.line(f"{members} = set()")
        self.line(f"{collect} = {members}.add")
        self.source(node.right, lambda row: self.line(f"{collect}({row.value()})"))
        test = "in" if node.kind == "intersection" else "not in"

        def left_side(row: _Row) -> None:
            with self.block(f"if {row.value()} {test} {members}:"):
                consume(row)

        self.source(node.left, left_side)

    # -- inline predicate compilation --------------------------------------
    def predicate(self, condition: SelectionCondition, tuple_type) -> object:
        """An expression builder for *condition* over a component-tuple
        variable, or raise :class:`_Unsupported`.

        Validation against *tuple_type* is the totality certificate (as in
        :func:`repro.algebra.vectorized.compile_condition`): over
        type-conforming rows no inlined atom can raise, so the flat Python
        expression is observationally identical to the recursive
        ``condition_holds`` walk.  The supported family is exactly the
        vectorized classifier's: ``eq`` over coordinates/constants, ``in``
        with a coordinate container, ``not``/``and``/``or``.
        """
        if not isinstance(tuple_type, TupleType):
            raise _Unsupported
        try:
            condition.validate(tuple_type)
        except TypingError:
            raise _Unsupported from None
        return self._condition_expression(condition)

    def _condition_expression(self, condition):
        if not isinstance(condition, SelectionCondition):
            raise _Unsupported
        kind = condition.kind
        if kind == "eq":
            left, right = condition.operands
            if isinstance(left, ConstantOperand) and isinstance(right, ConstantOperand):
                # Row-independent: folded at emission (constants are part
                # of the structural identity only through this verdict).
                verdict = "True" if Atom(left.value) == Atom(right.value) else "False"
                return lambda comps: verdict
            left_expr = self._operand_expression(left)
            right_expr = self._operand_expression(right)
            return lambda comps: f"{left_expr(comps)} == {right_expr(comps)}"
        if kind == "in":
            element, container = condition.operands
            if not isinstance(container, int):
                # Constant containers fail with a per-row type error on
                # the scalar path; keep those semantics there.
                raise _Unsupported
            element_expr = self._operand_expression(element)
            index = container - 1
            return lambda comps: f"{element_expr(comps)} in {comps}[{index}]"
        if kind == "not":
            inner = self._condition_expression(condition.operands[0])
            return lambda comps: f"not ({inner(comps)})"
        if kind in ("and", "or"):
            left_expr = self._condition_expression(condition.operands[0])
            right_expr = self._condition_expression(condition.operands[1])
            return lambda comps, op=kind: f"({left_expr(comps)}) {op} ({right_expr(comps)})"
        raise _Unsupported

    def _operand_expression(self, operand):
        if isinstance(operand, int):
            index = operand - 1
            return lambda comps: f"{comps}[{index}]"
        if isinstance(operand, ConstantOperand):
            slot = self._bind_constant(operand.value)
            return lambda comps: slot
        raise _Unsupported


class _Fragment:
    """A prepared fragment: the compiled function plus its env recipe."""

    __slots__ = (
        "function",
        "bindings",
        "helpers",
        "fused_node_ids",
        "boundary_nodes",
        "source",
        "digest",
    )

    def __init__(self, function, bindings, helpers, fused_node_ids, boundary_nodes, source):
        self.function = function
        self.bindings = bindings
        self.helpers = helpers
        self.fused_node_ids = fused_node_ids
        self.boundary_nodes = boundary_nodes
        self.source = source
        self.digest = sha256(source.encode()).hexdigest()[:10]


def _assemble(emitter: _Emitter) -> str:
    lines = ["def _fragment(env):"]
    for name in sorted(emitter.helpers_used):
        lines.append(f"    _{name} = env[{'@' + name!r}]")
    for slot, _kind, _payload in emitter.bindings:
        lines.append(f"    {slot} = env[{slot!r}]")
    lines.append("    _out = []")
    lines.append("    _append = _out.append")
    lines.extend(emitter.out.lines)
    lines.append("    return _out")
    return "\n".join(lines) + "\n"


#: Per-plan-node emission memo: ``id(node) -> (node, fragment)``.
#: The node is pinned in the entry so the id stays valid for the cache's
#: lifetime (plan nodes use __slots__ without __weakref__).
_PREPARED: dict[int, tuple[PlanNode, "_Fragment | None"]] = {}
_PREPARED_LIMIT = 4096


def _prepare(node: PlanNode, count: bool = True):
    key = id(node)
    entry = _PREPARED.get(key)
    if entry is not None and entry[0] is node:
        return entry[1]
    fragment = _emit_fragment(node, count)
    pysource.remember(_PREPARED, key, (node, fragment), _PREPARED_LIMIT)
    return fragment


def _emit_fragment(node: PlanNode, count: bool):
    emitter = _Emitter()
    try:
        emitter.build(node)
    except _Unsupported:
        return None
    source = _assemble(emitter)
    function, fresh = pysource.compiled("fused", source, "_fragment")
    if count:
        _CODEGEN.stats["fragments_compiled" if fresh else "cache_hits"] += 1
    return _Fragment(
        function,
        tuple(emitter.bindings),
        tuple(sorted(emitter.helpers_used)),
        tuple(dict.fromkeys(emitter.fused_node_ids)),
        tuple(emitter.boundary_nodes),
        source,
    )


def _build_env(fragment: _Fragment, executor) -> dict:
    env = {}
    for name in fragment.helpers:
        env["@" + name] = _HELPERS[name]
    database = executor.database
    for slot, kind, payload in fragment.bindings:
        if kind == "scan":
            env[slot] = database.instance(payload)
        elif kind == "rows":
            env[slot] = partial(executor.rows, payload)
        elif kind == "const":
            env[slot] = Atom(payload)
        elif kind == "mask":
            env[slot] = payload.mask
        else:  # pragma: no cover - emitter and env builder move together
            raise RuntimeError(f"unknown binding kind {kind!r}")
    return env


def fused_rows(node: PlanNode, executor) -> "list | None":
    """Run *node* as a fused fragment, or return ``None`` to interpret.

    The returned list is fully materialized — every fragment is one flat
    loop appending to a list, which is what all call sites do with
    generator output anyway (frozensets, instances, batches).
    """
    fragment = _prepare(node)
    stats = _CODEGEN.stats
    if fragment is None:
        if not isinstance(node, _TRIVIAL):
            stats["fallbacks"] += 1
        return None
    result = fragment.function(_build_env(fragment, executor))
    stats["fragments_fused"] += 1
    stats["rows_emitted"] += len(result)
    return result


def fragment_for(node: PlanNode) -> "_Fragment | None":
    """The prepared fragment for *node*, or ``None`` (trivial or
    unsupported).  Counter-neutral — for tests and :func:`analyze_plan`."""
    return _prepare(node, count=False)


def analyze_plan(plan: PhysicalPlan) -> dict[int, dict]:
    """Fusion status per node id, mirroring executor dispatch exactly.

    Statuses: ``fused-root`` (fragment entry point, carries the structural
    ``key`` digest), ``fused`` (inlined into an enclosing fragment),
    ``fallback`` (declined — interpreted; these are what
    ``codegen_stats()['fallbacks']`` counts, once per execution),
    ``trivial`` (bare scan/constant/materialize — nothing to fuse) and
    ``codegen-off`` (switch disabled).
    """
    statuses: dict[int, dict] = {}
    if not codegen_enabled():
        return {node.node_id: {"status": "codegen-off"} for node in plan.nodes}

    def visit(node: PlanNode) -> None:
        if node.node_id in statuses:
            return
        fragment = _prepare(node, count=False)
        if fragment is None:
            status = "trivial" if isinstance(node, _TRIVIAL) else "fallback"
            statuses[node.node_id] = {"status": status}
            for child in node.children():
                visit(child)
            return
        statuses[node.node_id] = {"status": "fused-root", "key": fragment.digest}
        for node_id in fragment.fused_node_ids:
            if node_id != node.node_id and node_id not in statuses:
                statuses[node_id] = {"status": "fused", "key": fragment.digest}
        for boundary in fragment.boundary_nodes:
            visit(boundary)

    visit(plan.root)
    for node in plan.nodes:
        statuses.setdefault(node.node_id, {"status": "trivial"})
    return statuses


#: Compiled per-row predicates keyed by (condition structure, operand type).
_PREDICATES: dict[tuple, object] = {}
_PREDICATE_LIMIT = 2048


def compiled_predicate(condition: SelectionCondition, tuple_type):
    """A compiled row predicate over flattened component tuples, or ``None``.

    This is the delta-batch face of the fragment cache: the views
    maintainer (:mod:`repro.views.maintain`) pushes small delta batches
    through the same plan DAGs the executor fuses, and reuses these
    cached predicate functions for its per-row filter and join-residual
    checks — same inline expressions, same process-wide cache, no
    per-row ``condition_holds`` tree walk.  Returns ``None`` when codegen
    is off or the condition/type is outside the inlinable family.
    """
    if not codegen_enabled() or not isinstance(tuple_type, TupleType):
        return None
    key = (condition_key(condition), tuple_type)
    cached = _PREDICATES.get(key)
    if cached is not None:
        _CODEGEN.stats["predicate_cache_hits"] += 1
        return cached
    emitter = _Emitter()
    try:
        expression = emitter.predicate(condition, tuple_type)
    except _Unsupported:
        return None
    lines = ["def _make(env):"]
    for slot, _kind, _payload in emitter.bindings:
        lines.append(f"    {slot} = env[{slot!r}]")
    lines.append("    def _predicate(_r):")
    lines.append(f"        return {expression('_r')}")
    lines.append("    return _predicate")
    make, _ = pysource.compiled("fused predicate", "\n".join(lines) + "\n", "_make")
    predicate = make({slot: Atom(payload) for slot, _kind, payload in emitter.bindings})
    pysource.remember(_PREDICATES, key, predicate, _PREDICATE_LIMIT)
    _CODEGEN.stats["predicates_compiled"] += 1
    return predicate
