"""Structured tracing: nested spans, trace ids, and a bounded trace ring.

One **span** is one timed operation — a served request, a `transact`
phase, one plan node's execution — with a monotonic start/end
(:func:`time.perf_counter`), a name, free-form attributes, and a parent.
Spans belonging to one root form a **trace**, identified by a process-
unique trace id that propagates to every descendant; finished traces land
in a bounded in-memory ring (:func:`get_trace`, :func:`latest_trace`)
with a JSONL exporter (:func:`export_traces`) for offline inspection by
``tools/metrics_dump.py``.

Propagation uses a :mod:`contextvars` context variable, so a span opened
in an asyncio connection task parents everything awaited inside that task
without threading span objects through call signatures.  Two seams need
explicit handoff and get it:

* the serving **writer queue** — a write is applied by the writer task,
  a different asyncio task from the connection that enqueued it, so
  :meth:`repro.serving.server.DatabaseServer.submit_write` captures
  :func:`current_span` into the queue entry and the write loop re-roots
  it with :func:`activate_span`;
* the engine's **lazy generators** — a plan node's rows are pulled while
  the *parent* node's span is the innermost context, so the traced
  executor (:class:`repro.engine.execute._Executor`) carries the active
  span itself and parents child node spans explicitly.

This module is the **eighth counter family** and the third ablation switch
(:func:`set_tracing` / :func:`tracing` / ``REPRO_TRACE``, counters via
:func:`observability_stats`, aggregated by
:func:`repro.objects.stats.runtime_stats`).  The off path is near-free by
construction: every instrumentation site guards on
:func:`tracing_enabled` (one attribute read) before touching any of the
machinery here, and the hot per-plan-node sites branch to entirely
separate traced code paths so the steady-state interpreter never pays
for a context manager it does not use.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import count

#: Spans retained per trace; a runaway plan (thousands of nodes) must not
#: hold the ring hostage.  Overflowing spans are timed but not recorded
#: (counted in ``spans_dropped``).
MAX_SPANS_PER_TRACE = 512

#: Finished traces retained in the ring (FIFO eviction).
TRACE_RING_ENTRIES = 128


class _ObservabilityState:
    """The process-wide tracing switch and engagement counters (the same
    shape as ``_CODEGEN`` and the other ablation toggles)."""

    __slots__ = ("enabled", "stats")

    def __init__(self) -> None:
        self.enabled = bool(os.environ.get("REPRO_TRACE"))
        self.stats = {
            "spans_started": 0,
            "spans_finished": 0,
            "spans_dropped": 0,
            "traces_recorded": 0,
            "traces_evicted": 0,
            "traces_exported": 0,
            "queries_logged": 0,
            "slow_queries_logged": 0,
            "query_log_evictions": 0,
            "metrics_expositions": 0,
        }


_OBSERVABILITY = _ObservabilityState()


def tracing_enabled() -> bool:
    """Whether instrumentation sites emit spans, metrics and query-log
    records (the guard every site checks first)."""
    return _OBSERVABILITY.enabled


def set_tracing(enabled: bool) -> bool:
    """Enable/disable tracing process-wide; returns the previous setting.

    Unlike the other switches this one defaults **off** — tracing is a
    diagnosis tool, not a performance mechanism, and the contract the
    ``REPRO_TRACE=1`` CI cell pins is that turning it *on* changes no
    answer anywhere.
    """
    previous = _OBSERVABILITY.enabled
    _OBSERVABILITY.enabled = bool(enabled)
    return previous


@contextmanager
def tracing(enabled: bool = True):
    """Context-manager form of :func:`set_tracing` (mirrors ``codegen(...)``
    and ``join_ordering(...)``)."""
    previous = set_tracing(enabled)
    try:
        yield
    finally:
        set_tracing(previous)


def observability_stats() -> dict[str, int]:
    """A snapshot of the engagement counters (tests assert deltas)."""
    return dict(_OBSERVABILITY.stats)


# -- spans and traces ---------------------------------------------------------

_trace_ids = count(1)
_span_ids = count(1)


class _Trace:
    """The per-trace span collector: finished spans accumulate here until
    the root finishes, then the whole list enters the ring."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []


class Span:
    """One timed operation.  ``attributes`` is mutable until
    :func:`finish_span`; instrumentation sites stamp results (actual
    cardinalities, batch sizes) onto it as they become known."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "_trace",
    )

    def __init__(self, name: str, parent: "Span | None", attributes: dict) -> None:
        if parent is not None:
            self._trace = parent._trace
            self.parent_id = parent.span_id
        else:
            self._trace = _Trace(f"t{next(_trace_ids):08d}")
            self.parent_id = None
        self.trace_id = self._trace.trace_id
        self.span_id = next(_span_ids)
        self.name = name
        self.attributes = attributes
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_data(self) -> dict:
        """The span's JSON-compatible record (the ring/export shape)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id})"


#: The innermost active span of the current (asyncio/thread) context.
_ACTIVE: ContextVar[Span | None] = ContextVar("repro_active_span", default=None)

#: Finished traces: trace id -> span records, FIFO-bounded.  The lock
#: guards the ring's insert/evict pair — readers (TRACE verb, exports)
#: take it too, so a snapshot is never half-evicted.
_TRACES: dict[str, list[dict]] = {}
_TRACES_LOCK = threading.Lock()


def current_span() -> Span | None:
    """The innermost active span of this context, or ``None``."""
    return _ACTIVE.get()


def begin_span(name: str, parent: Span | None = None, **attributes) -> Span | None:
    """Start one span (``None`` when tracing is off).

    *parent* defaults to :func:`current_span`; a parentless span roots a
    new trace.  Callers using ``begin_span``/``finish_span`` directly
    (the traced executor) manage nesting themselves — the context
    variable is untouched.
    """
    if not _OBSERVABILITY.enabled:
        return None
    if parent is None:
        parent = _ACTIVE.get()
    _OBSERVABILITY.stats["spans_started"] += 1
    return Span(name, parent, attributes)


def finish_span(span: Span | None) -> None:
    """Stamp the end time and collect the span into its trace; a finished
    **root** span publishes the whole trace into the ring."""
    if span is None:
        return
    span.end = time.perf_counter()
    stats = _OBSERVABILITY.stats
    stats["spans_finished"] += 1
    trace = span._trace
    if len(trace.spans) < MAX_SPANS_PER_TRACE:
        trace.spans.append(span.to_data())
    else:
        stats["spans_dropped"] += 1
    if span.parent_id is None:
        with _TRACES_LOCK:
            if len(_TRACES) >= TRACE_RING_ENTRIES:
                _TRACES.pop(next(iter(_TRACES)))
                stats["traces_evicted"] += 1
            _TRACES[trace.trace_id] = trace.spans
            stats["traces_recorded"] += 1


@contextmanager
def span(name: str, **attributes):
    """Open a span as the innermost context: children started inside the
    block (including across ``await``) parent here.  Yields the span, or
    ``None`` when tracing is off."""
    if not _OBSERVABILITY.enabled:
        yield None
        return
    opened = begin_span(name, **attributes)
    token = _ACTIVE.set(opened)
    try:
        yield opened
    finally:
        _ACTIVE.reset(token)
        finish_span(opened)


@contextmanager
def activate_span(parent: Span | None):
    """Re-root the current context under *parent* without timing anything
    — the explicit handoff for work that crosses a task boundary (the
    serving writer queue)."""
    token = _ACTIVE.set(parent)
    try:
        yield parent
    finally:
        _ACTIVE.reset(token)


class _NullContext:
    """The shared no-op context :func:`maybe_span` returns when tracing is
    off — cheaper than a generator-based context manager per call."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()


def maybe_span(name: str, **attributes):
    """``span(...)`` when tracing is on, a shared null context otherwise.

    The convenience guard for per-batch/per-request sites (transact
    phases, view maintenance) where one branch per call is negligible;
    per-row and per-node hot paths use hard ``tracing_enabled()`` branches
    instead.
    """
    if not _OBSERVABILITY.enabled:
        return _NULL_CONTEXT
    return span(name, **attributes)


# -- the trace ring -----------------------------------------------------------

def get_trace(trace_id: str) -> list[dict] | None:
    """The finished trace's span records (insertion order), or ``None``."""
    with _TRACES_LOCK:
        spans = _TRACES.get(trace_id)
        return list(spans) if spans is not None else None


def latest_trace() -> tuple[str, list[dict]] | None:
    """The most recently finished trace as ``(trace_id, spans)``."""
    with _TRACES_LOCK:
        if not _TRACES:
            return None
        trace_id = next(reversed(_TRACES))
        return trace_id, list(_TRACES[trace_id])


def recent_trace_ids(limit: int = 16) -> list[str]:
    """The newest *limit* finished trace ids, newest first."""
    with _TRACES_LOCK:
        ids = list(_TRACES)
    return ids[::-1][:limit]


def clear_traces() -> None:
    """Drop every finished trace (tests and benchmarks)."""
    with _TRACES_LOCK:
        _TRACES.clear()


def export_traces(path) -> int:
    """Write every finished trace to *path* as JSONL — one line per trace,
    ``{"trace_id": ..., "spans": [...]}`` — and return the trace count.
    The shape ``tools/metrics_dump.py --trace-file`` reads back."""
    with _TRACES_LOCK:
        traces = [(trace_id, list(spans)) for trace_id, spans in _TRACES.items()]
    with open(path, "w", encoding="utf-8") as handle:
        for trace_id, spans in traces:
            handle.write(
                json.dumps({"trace_id": trace_id, "spans": spans}, sort_keys=True)
            )
            handle.write("\n")
    _OBSERVABILITY.stats["traces_exported"] += len(traces)
    return len(traces)


def render_span_tree(spans: list[dict]) -> str:
    """Pretty-print one trace's spans as an indented tree with durations.

    Shared by the ``metrics_dump`` CLI and the observability tour; spans
    whose parent was dropped (per-trace cap) render as extra roots.
    """
    by_parent: dict[int | None, list[dict]] = {}
    ids = {record["span_id"] for record in spans}
    for record in spans:
        parent = record["parent_id"]
        by_parent.setdefault(parent if parent in ids else None, []).append(record)
    lines: list[str] = []

    def render(record: dict, depth: int) -> None:
        duration = record["duration"]
        timing = f"{duration * 1e3:.3f}ms" if duration is not None else "?"
        attributes = record["attributes"]
        suffix = (
            " {%s}" % ", ".join(f"{k}={v!r}" for k, v in sorted(attributes.items()))
            if attributes
            else ""
        )
        lines.append(f"{'  ' * depth}{record['name']}  [{timing}]{suffix}")
        for child in sorted(
            by_parent.get(record["span_id"], ()), key=lambda r: r["start"]
        ):
            render(child, depth + 1)

    for root in sorted(by_parent.get(None, ()), key=lambda r: r["start"]):
        render(root, 0)
    return "\n".join(lines)


__all__ = [
    "MAX_SPANS_PER_TRACE",
    "TRACE_RING_ENTRIES",
    "Span",
    "activate_span",
    "begin_span",
    "clear_traces",
    "current_span",
    "export_traces",
    "finish_span",
    "get_trace",
    "latest_trace",
    "maybe_span",
    "observability_stats",
    "recent_trace_ids",
    "render_span_tree",
    "set_tracing",
    "span",
    "tracing",
    "tracing_enabled",
]
