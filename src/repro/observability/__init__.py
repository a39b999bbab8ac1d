"""End-to-end observability: tracing, metrics, and the query log.

Three pieces, one switch:

* :mod:`repro.observability.trace` — nested spans with propagated trace
  ids, collected into a bounded ring with a JSONL exporter.  The
  instrumented seams are the serving request layer (one span per wire
  verb), the write path (``transact`` phases plus one child span per
  maintained view) and the engine (compile, join-order rewrite, one span
  per executed plan node carrying ``est_rows``/``act_rows``);
* :mod:`repro.observability.metrics` — the :data:`METRICS` registry:
  log-bucketed latency histograms, callback gauges, and a Prometheus
  text exposition that folds in all eight runtime counter families;
* :mod:`repro.observability.querylog` — one structured record per engine
  query with the plan key / cardinality / fusion fields the future
  sub-plan-mining pass consumes, plus a slow-query threshold.

Everything is gated by :func:`set_tracing` / :func:`tracing` /
``REPRO_TRACE`` — the third ablation switch and the **eighth counter
family**, counted by :func:`observability_stats` and aggregated by
:func:`repro.objects.stats.runtime_stats`.  Unlike the other two switches
this one defaults **off**; its differential contract is that tracing on
changes no answer (the ``REPRO_TRACE=1`` CI cell) and tracing off costs
nearly nothing (``benchmarks/bench_observability.py``).

See ``docs/observability.md`` for the span taxonomy, metric names and
query-log schema.
"""

from repro.observability.metrics import (
    BUCKET_BOUNDS,
    METRICS,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.observability.querylog import (
    clear_query_log,
    export_query_log,
    query_log,
    record_query,
    set_slow_query_threshold,
    slow_queries,
    slow_query_threshold,
)
from repro.observability.trace import (
    Span,
    activate_span,
    begin_span,
    clear_traces,
    current_span,
    export_traces,
    finish_span,
    get_trace,
    latest_trace,
    maybe_span,
    observability_stats,
    recent_trace_ids,
    render_span_tree,
    set_tracing,
    span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "Span",
    "activate_span",
    "begin_span",
    "clear_query_log",
    "clear_traces",
    "current_span",
    "export_query_log",
    "export_traces",
    "finish_span",
    "get_trace",
    "latest_trace",
    "maybe_span",
    "observability_stats",
    "parse_exposition",
    "query_log",
    "recent_trace_ids",
    "record_query",
    "render_span_tree",
    "set_slow_query_threshold",
    "set_tracing",
    "slow_queries",
    "slow_query_threshold",
    "span",
    "tracing",
    "tracing_enabled",
]
