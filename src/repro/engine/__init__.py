"""The unified physical-plan execution engine.

This package compiles logical algebra expressions
(:mod:`repro.algebra.expressions`) into physical plan DAGs and executes
them with pipelined, hash-join-aware operators.  It is the shared execution
core of three layers:

* the complex-object algebra — :func:`repro.algebra.evaluation.
  evaluate_expression` routes here by default (the legacy tree-walking
  interpreter remains available as an equivalence oracle);
* the flat relational algebra — :func:`repro.relational.algebra.join` uses
  the same :mod:`repro.engine.join` hash-join core;
* Datalog — rule-body literals are joined against the current bindings
  with the same core in :mod:`repro.datalog.evaluation`.

See ``ARCHITECTURE.md`` at the repository root for the layer diagram.
"""

from __future__ import annotations

import time
from hashlib import sha256

from repro.algebra.expressions import AlgebraExpression
from repro.engine.codegen import (
    codegen,
    codegen_enabled,
    codegen_stats,
    fragment_for,
    set_codegen,
)
from repro.engine.compile import CompileOptions, compile_expression
from repro.engine.cost import annotate_estimates
from repro.engine.execute import DEFAULT_POWERSET_BUDGET, execute_plan
from repro.engine.explain import analyze_plan, explain_plan
from repro.engine.join import build_index, hash_join, probe
from repro.engine.joinorder import (
    join_ordering,
    joinorder_enabled,
    joinorder_stats,
    reorder_plan,
    set_join_ordering,
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
from repro.engine.stats import PlanStatistics, RelationStats, signature_stale
from repro.objects.instance import DatabaseInstance, Instance
from repro.observability.metrics import METRICS
from repro.observability.querylog import record_query
from repro.observability.trace import span, tracing_enabled

#: Upper bound on the number of cached compiled plans.  Fixpoint programs
#: re-evaluate the same expression objects every iteration; caching their
#: plans makes compilation a one-time cost.  The cache pins the expression
#: objects it keys on, so a bound keeps that pinning finite.
_PLAN_CACHE_LIMIT = 512

_plan_cache: dict[tuple, tuple] = {}


def run_expression(
    expression: AlgebraExpression,
    database: DatabaseInstance,
    powerset_budget: int = DEFAULT_POWERSET_BUDGET,
    options: CompileOptions | None = None,
) -> Instance:
    """Compile (with caching) and execute *expression* on *database*.

    When join ordering is enabled, compilation receives a
    :class:`~repro.engine.stats.PlanStatistics` provider over *database*
    and the cache entry records the statistics fingerprint the plan
    depends on; a later call whose data has drifted past
    :func:`~repro.engine.stats.signature_stale` recompiles once (fixpoint
    loops therefore re-plan O(log growth) times, not per iteration).

    With tracing on (:func:`repro.observability.tracing_enabled`) the call
    runs under an ``engine.query`` span, per-node execution spans carry
    estimated/actual cardinalities (a traced compile gets statistics with
    join ordering off too, and is cached apart from an untraced one),
    and one structured query-log record is
    appended (:mod:`repro.observability.querylog`).  The off path takes a
    separate branch so steady-state traffic pays one guard check.
    """
    options = options or CompileOptions()
    if tracing_enabled():
        return _run_traced(expression, database, powerset_budget, options)
    plan = _cached_plan(expression, database, options)
    return execute_plan(plan, database, powerset_budget=powerset_budget)


def _cached_plan(
    expression: AlgebraExpression,
    database: DatabaseInstance,
    options: CompileOptions,
):
    """The compiled (and possibly cached) plan for *expression*."""
    schema = database.schema
    # Expressions and schemas are immutable; key on identity and pin both
    # objects in the cache entry so their ids cannot be recycled underneath.
    # Tracing is in the key too: a traced plan carries the estimates its
    # spans report, which an untraced compile may have skipped.  So is the
    # join-ordering switch, which decides whether the plan is reordered.
    traced = tracing_enabled()
    ordering = joinorder_enabled()
    key = (id(expression), id(schema), options, traced, ordering)
    entry = _plan_cache.get(key)
    if entry is not None:
        signature = entry[3]
        if signature is not None and signature_stale(signature, database):
            from repro.engine.joinorder import _JOINORDER

            _JOINORDER.stats["stale_plan_recompiles"] += 1
            del _plan_cache[key]
            entry = None
    if entry is None:
        # Statistics feed join ordering and, with tracing on, the estimates
        # every ``plan.*`` span carries.  Only join ordering's choices
        # depend on them, so only a plan compiled with it keeps a
        # staleness signature.
        statistics = PlanStatistics(database) if ordering or traced else None
        plan = compile_expression(expression, schema, options, statistics=statistics)
        signature = statistics.signature() if ordering else None
        if len(_plan_cache) >= _PLAN_CACHE_LIMIT:
            # Evict the oldest entry (dict preserves insertion order) so the
            # hot fixpoint expressions the cache exists for stay compiled.
            del _plan_cache[next(iter(_plan_cache))]
        _plan_cache[key] = (expression, schema, plan, signature)
    else:
        plan = entry[2]
    return plan


def _run_traced(
    expression: AlgebraExpression,
    database: DatabaseInstance,
    powerset_budget: int,
    options: CompileOptions,
) -> Instance:
    """The traced twin of :func:`run_expression`'s body: same compile
    cache, same execution, plus the ``engine.query`` span, the latency
    histogram observation and one query-log record."""
    with span("engine.query") as root:
        plan = _cached_plan(expression, database, options)
        start = time.perf_counter()
        result = execute_plan(plan, database, powerset_budget=powerset_budget)
        duration = time.perf_counter() - start
        key = plan_structural_key(plan)
        fused = codegen_enabled() and fragment_for(plan.root) is not None
        if root is not None:
            root.attributes["plan_key"] = key
            root.attributes["act_rows"] = len(result)
            root.attributes["fused"] = fused
        METRICS.histogram("repro_engine_query_seconds").observe(duration)
        record_query(
            trace_id=root.trace_id if root is not None else None,
            plan_key=key,
            nodes=len(plan.nodes),
            duration=duration,
            est_rows=plan.root.estimated_rows,
            act_rows=len(result),
            fused=fused,
        )
    return result


def plan_structural_key(plan: PhysicalPlan) -> str:
    """A structural digest of the plan DAG (the query log's ``plan_key``).

    Two plans share a key exactly when their operator trees — labels,
    output types, and sharing structure — coincide; the CSE pass already
    canonicalizes shared subtrees, so counting keys across the query log
    is the sub-plan-frequency signal the view-selection miner needs.
    """
    parts: list[str] = []
    numbering: dict[int, int] = {}

    def visit(node: PlanNode) -> None:
        number = numbering.get(node.node_id)
        if number is not None:
            parts.append(f"^{number}")
            return
        numbering[node.node_id] = len(numbering)
        parts.append(f"{node.label()}:{node.output_type}(")
        for child in node.children():
            visit(child)
        parts.append(")")

    visit(plan.root)
    return sha256("".join(parts).encode()).hexdigest()[:12]


def clear_plan_cache() -> None:
    """Drop all cached compiled plans (mainly for tests and benchmarks)."""
    _plan_cache.clear()


__all__ = [
    "CompileOptions",
    "compile_expression",
    "execute_plan",
    "explain_plan",
    "run_expression",
    "plan_structural_key",
    "clear_plan_cache",
    "analyze_plan",
    "annotate_estimates",
    "codegen",
    "codegen_enabled",
    "codegen_stats",
    "set_codegen",
    "join_ordering",
    "joinorder_enabled",
    "joinorder_stats",
    "reorder_plan",
    "set_join_ordering",
    "PlanStatistics",
    "RelationStats",
    "signature_stale",
    "build_index",
    "hash_join",
    "probe",
    "DEFAULT_POWERSET_BUDGET",
    "PhysicalPlan",
    "PlanNode",
    "Scan",
    "ConstantScan",
    "Filter",
    "Project",
    "HashJoin",
    "MultiwayHashJoin",
    "NestedLoopProduct",
    "SetOp",
    "PowersetNode",
    "CollapseNode",
    "UntupleNode",
    "Materialize",
]
