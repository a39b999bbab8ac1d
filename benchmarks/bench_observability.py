"""X29 — engineering ablation: observability off-path overhead.

The eighth switch family (``REPRO_TRACE`` /
:func:`repro.observability.set_tracing`) instruments the engine, the
write path and the serving layer.  Its contract is asymmetric: tracing
**on** may pay for attribution (the traced executor materializes each
plan node to stamp exact actual cardinalities), but tracing **off** must
cost nearly nothing — one predicate check at each seam, no context
managers, no allocation.

This benchmark prices that contract on the X25 fused-pipeline chain
workload (``π_3(σ_{2='y'}(R))`` over 10k rows, codegen on, masks pinned
off by a columnar threshold of ``sys.maxsize`` — the fastest steady-state
path, where a fixed per-query overhead is proportionally largest):

* **direct** — ``execute_plan`` on a precompiled plan: the guard-free
  baseline an uninstrumented engine would run;
* **off** — ``run_expression`` with tracing off: the production entry
  point, paying the ``tracing_enabled()`` guard and the plan-cache hit;
* **on** — ``run_expression`` with tracing on: spans per plan node, a
  latency-histogram observation and a query-log record per query.

Acceptance: the off path stays within **1.05×** of direct, recorded as
``tracing_off_efficiency = direct/off ≥ 0.952`` so the floor composes
with ``check_regressions.py``'s below-floor convention.  The on-path
ratio is recorded as informational context (no floor — attribution is
allowed to cost).  ``test_observability_report`` writes
``benchmarks/BENCH_observability.json``; directly runnable::

    PYTHONPATH=src python benchmarks/bench_observability.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_codegen import ROW_COUNT, _best_of, chain_workload
from benchmarks.conftest import write_bench_report
from repro.engine import (
    clear_plan_cache,
    codegen,
    compile_expression,
    execute_plan,
    run_expression,
)
from repro.objects.columnar import columnar_settings
from repro.observability import (
    clear_query_log,
    clear_traces,
    query_log,
    tracing,
)

#: Acceptance floor: the tracing-off entry point must retain ≥95.2% of the
#: guard-free throughput (overhead ≤1.05×).
FLOORS = {
    "tracing_off_efficiency": 0.952,
}

#: Timing repeats; the measured deltas are one guard + one dict hit, so
#: best-of filtering matters more than averaging here.
REPEATS = 7


def measure_chain() -> dict:
    """The three timings on the X25 chain workload, plus sanity counts."""
    expression, database = chain_workload()
    clear_plan_cache()
    clear_traces()
    clear_query_log()
    seconds: dict[str, float] = {}
    cardinality: dict[str, int] = {}
    with columnar_settings(threshold=sys.maxsize), codegen(True):
        plan = compile_expression(expression, database.schema)
        direct = lambda: execute_plan(plan, database)
        cardinality["direct"] = len(direct())  # warm fragment cache
        seconds["direct"] = _best_of(direct, REPEATS)

        off = lambda: run_expression(expression, database)
        with tracing(False):
            cardinality["off"] = len(off())  # warm plan cache
            seconds["off"] = _best_of(off, REPEATS)

        with tracing(True):
            cardinality["on"] = len(off())
            seconds["on"] = _best_of(off, REPEATS)
            logged = len(query_log())
    assert cardinality["direct"] == cardinality["off"] == cardinality["on"]
    assert logged >= REPEATS, "traced runs must append query-log records"
    clear_traces()
    clear_query_log()
    return {
        "workload": (
            f"engine π_3(σ_(2='y')(R)) over {ROW_COUNT} rows "
            "(codegen on, vectorized off — the X25 fused chain)"
        ),
        "result_cardinality": cardinality["direct"],
        "seconds": seconds,
        "tracing_off_overhead_x": seconds["off"] / seconds["direct"],
        "tracing_on_cost_x": seconds["on"] / seconds["off"],
    }


def test_observability_report():
    """Measure the three paths, assert the off-path bar, emit the report."""
    chain = measure_chain()
    metrics = {
        "tracing_off_efficiency": chain["seconds"]["direct"] / chain["seconds"]["off"],
        "tracing_on_cost_x": chain["tracing_on_cost_x"],
    }
    path = write_bench_report(
        "observability",
        {
            "experiment": (
                "X29 observability overhead: tracing off must be free, "
                "tracing on prices attribution"
            ),
            "results": {"fused_chain": chain},
            "metrics": metrics,
            "floors": FLOORS,
        },
    )
    for metric, floor in FLOORS.items():
        assert metrics[metric] >= floor, (path, metric, metrics[metric])


if __name__ == "__main__":
    test_observability_report()
    for line in Path(__file__).with_name("BENCH_observability.json").read_text().splitlines():
        print(line)
