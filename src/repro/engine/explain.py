"""Human-readable rendering and instrumentation of physical plans.

``explain_plan`` prints the DAG as an indented tree.  A node shared by
several consumers is printed in full the first time it is reached and as a
back-reference (``↩ #id``) afterwards, so common subexpressions are visible
at a glance.  ``verbose=True`` additionally annotates every node with its
codegen fusion status and — when the plan was compiled with statistics —
the optimizer's estimated output cardinality (``est≈N``); passing a
*database* also executes the plan node-by-node and appends the actual
cardinality (``act=N``), which is how the worked examples in
``docs/optimizer.md`` compare the cost model against reality.

``analyze_plan`` is the structured form of the same information: one dict
per node id carrying the operator label, the fusion status (and fragment
cache key) of :func:`repro.engine.codegen.analyze_plan`, the estimated
row count, and — with a database — the actual row count.
"""

from __future__ import annotations

from repro.engine.plan import PhysicalPlan, PlanNode
from repro.objects.instance import DatabaseInstance


def _fusion_suffix(annotation: dict | None) -> str:
    if annotation is None:
        return ""
    status = annotation["status"]
    key = annotation.get("key")
    if key is not None:
        return f" ⟦{status} key={key}⟧"
    return f" ⟦{status}⟧"


def _cardinality_suffix(node: PlanNode, actuals: dict[int, int] | None) -> str:
    parts = []
    if node.estimated_rows is not None:
        parts.append(f"est≈{node.estimated_rows}")
    if actuals is not None and node.node_id in actuals:
        parts.append(f"act={actuals[node.node_id]}")
    if not parts:
        return ""
    return f" ⟨{' '.join(parts)}⟩"


def actual_cardinalities(
    plan: PhysicalPlan, database: DatabaseInstance, powerset_budget: int | None = None
) -> dict[int, int]:
    """Execute *plan* on *database*, materializing every node once.

    Returns the actual output cardinality per node id.  Nodes are
    evaluated in topological order with each child's result pre-cached in
    the executor, so the per-node counts reflect exactly one evaluation of
    the DAG (codegen fusion is deliberately not engaged — fused interior
    nodes would otherwise never surface a count).
    """
    from repro.engine.execute import DEFAULT_POWERSET_BUDGET, _Executor

    if powerset_budget is None:
        powerset_budget = DEFAULT_POWERSET_BUDGET
    executor = _Executor(database, powerset_budget)
    actuals: dict[int, int] = {}
    for node in plan.nodes:  # topological: children cached before parents
        materialized = frozenset(executor._generate(node))
        executor._cache[node.node_id] = materialized
        actuals[node.node_id] = len(materialized)
    return actuals


def analyze_plan(
    plan: PhysicalPlan,
    database: DatabaseInstance | None = None,
    powerset_budget: int | None = None,
) -> dict[int, dict]:
    """Per-node instrumentation of *plan*: fusion status + cardinalities.

    Returns ``{node_id: {"operator", "status", "key"?, "estimated",
    "actual"?}}``.  ``status``/``key`` mirror the codegen dispatch the
    executor will take (see :func:`repro.engine.codegen.analyze_plan` for
    the status vocabulary); ``estimated`` is the statistics layer's
    predicted row count (``None`` when the plan was compiled without
    statistics or the node is outside the cost model); ``actual`` appears
    only when *database* is given and is the true cardinality from one
    node-by-node execution.
    """
    from repro.engine.codegen import analyze_plan as fusion_statuses

    annotations = {
        node_id: dict(status) for node_id, status in fusion_statuses(plan).items()
    }
    actuals = (
        actual_cardinalities(plan, database, powerset_budget)
        if database is not None
        else None
    )
    for node in plan.nodes:
        annotation = annotations.setdefault(node.node_id, {})
        annotation["operator"] = type(node).__name__
        annotation["estimated"] = node.estimated_rows
        if actuals is not None:
            annotation["actual"] = actuals[node.node_id]
    return annotations


def explain_plan(
    plan: PhysicalPlan,
    types: bool = True,
    verbose: bool = False,
    database: DatabaseInstance | None = None,
    powerset_budget: int | None = None,
) -> str:
    """Render *plan* as an indented operator tree with DAG back-references.

    With *verbose*, each node carries its fusion status — ``fused-root``
    (with the fragment's structural cache key), ``fused``, ``fallback``,
    ``trivial`` or ``codegen-off`` — the exact dispatch the executor will
    take, so the annotations line up with the ``codegen_stats()`` counters
    of a subsequent execution; nodes the cost model priced additionally
    show ``⟨est≈N⟩``.  Passing *database*
    (implies cardinality display) runs the plan once and appends the
    actual per-node counts: ``⟨est≈N act=M⟩``.  See ``docs/explain.md``
    for a full reference of the output format.
    """
    annotations: dict[int, dict] = {}
    if verbose:
        from repro.engine.codegen import analyze_plan as fusion_statuses

        annotations = fusion_statuses(plan)
    actuals = (
        actual_cardinalities(plan, database, powerset_budget)
        if database is not None
        else None
    )
    lines: list[str] = []
    printed: set[int] = set()

    def render(node: PlanNode, depth: int) -> None:
        indent = "  " * depth
        if node.node_id in printed:
            lines.append(f"{indent}↩ #{node.node_id} {node.label()}")
            return
        printed.add(node.node_id)
        shared = " [shared]" if node.consumers > 1 else ""
        type_suffix = f" : {node.output_type}" if types else ""
        cardinality = (
            _cardinality_suffix(node, actuals) if verbose or actuals is not None else ""
        )
        fusion = _fusion_suffix(annotations.get(node.node_id)) if verbose else ""
        lines.append(
            f"{indent}#{node.node_id} {node.label()}{type_suffix}{cardinality}{shared}{fusion}"
        )
        for child in node.children():
            render(child, depth + 1)

    render(plan.root, 0)
    if plan.applied_rules:
        lines.append(f"logical rewrites: {', '.join(plan.applied_rules)}")
    if plan.physical_rewrites:
        lines.append(f"physical rewrites: {', '.join(plan.physical_rewrites)}")
    return "\n".join(lines)
