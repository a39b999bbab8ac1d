"""Benchmark-side tracing: spans around calls into each layer's public
functions, recorded by wrappers this file installs.

The program's own tracing (``REPRO_TRACE``) is not used: it swaps in a
materializing executor, so its numbers describe a different program.
Instead :class:`SpanRecorder` replaces each name below *where callers look
it up* — ``repro.serving.server`` imports ``parse_request``,
``encode_result``, ``encode_ok`` and ``evaluate_expression`` directly, and
``run_expression`` finds ``compile_expression`` and ``execute_plan`` in
``repro.engine`` — and restores the originals on :meth:`uninstall`, so an
untraced window runs exactly the untraced program.

A span is ``[name, start, end, parent, request, attributes]``: ``parent``
is the index of the enclosing span (``-1`` for a root) and ``request`` is
``"<session>:<seq>"``, the session task's order of first appearance and
the request's sequence number within that session's traced requests.  A
commit runs in the server's writer task, not in the session that sent it,
so the ``submit_write`` wrapper hands the request id to the
``Database.transact`` span through the change set's identity.  Spans stay
in memory until :meth:`dump`.  Wrapped functions are synchronous and the
server runs one event loop thread, so open spans always form one stack.
"""

from __future__ import annotations

import asyncio
import json
from bisect import bisect_right
from importlib import import_module
from time import perf_counter

#: ``(module, attribute, layer)`` for every wrapped name, per process kind.
SERVED_TARGETS = (
    ("repro.serving.server", "parse_request", "serving"),
    ("repro.serving.server", "encode_result", "serving"),
    ("repro.serving.server", "encode_ok", "serving"),
    ("repro.serving.server", "evaluate_expression", "engine"),
    ("repro.views.catalog", "evaluate_expression", "engine"),
    ("repro.algebra.evaluation", "evaluate_expression", "engine"),
    ("repro.engine", "run_expression", "engine"),
    ("repro.engine", "compile_expression", "engine"),
    ("repro.engine", "execute_plan", "engine"),
    ("repro.views.database", "Database.transact", "views"),
    ("repro.views.catalog", "ViewCatalog.maintain", "views"),
    ("repro.reliability.durable", "DurabilityController.log_batch", "reliability"),
    ("repro.reliability.wal", "WriteAheadLog.append", "reliability"),
)

SEMANTICS_TARGETS = (
    ("repro.calculus.evaluation", "evaluate_query_detailed", "calculus"),
    ("repro.second_order.evaluation", "evaluate_query", "second_order"),
    ("repro.second_order.evaluation", "evaluate_sentence", "second_order"),
    ("repro.fixpoint.programs", "Program.run", "fixpoint"),
    ("repro.fixpoint.programs", "evaluate_expression", "engine"),
    ("repro.engine", "run_expression", "engine"),
    ("repro.engine", "compile_expression", "engine"),
    ("repro.engine", "execute_plan", "engine"),
    ("repro.datalog.evaluation", "evaluate_program", "datalog"),
)

#: Span names whose wrapper records the size of the result.
_COUNTS_RESULT = frozenset({"run_expression"})


class SpanRecorder:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self, targets, served: bool) -> None:
        self.targets = targets
        self.served = served
        self.spans: list[list] = []
        self.layers = {attribute: layer for _module, attribute, layer in targets}
        #: The in-process request id (the semantics loop sets it per op).
        self.request: str | None = None
        self._stack: list[int] = []
        self._sessions: dict = {}
        self._session_seq: dict[int, int] = {}
        self._task_request: dict = {}
        self._pending_writes: dict[int, str | None] = {}
        self._installed: list[tuple] = []

    # -- request ids -----------------------------------------------------------
    def _current_request(self):
        if self._stack:
            return self.spans[self._stack[-1]][4]
        if self.served:
            return self._task_request.get(asyncio.current_task())
        return self.request

    def _new_request(self) -> str:
        task = asyncio.current_task()
        session = self._sessions.setdefault(task, len(self._sessions))
        seq = self._session_seq.get(session, 0) + 1
        self._session_seq[session] = seq
        request = f"{session}:{seq}"
        self._task_request[task] = request
        return request

    # -- wrappers --------------------------------------------------------------
    def _wrap(self, name: str, function):
        recorder = self
        spans = self.spans
        stack = self._stack
        opens_request = self.served and name == "parse_request"
        from_writer = self.served and name == "Database.transact"
        counts_result = name in _COUNTS_RESULT

        def traced(*args, **kwargs):
            if opens_request:
                request = recorder._new_request()
            elif from_writer:
                request = recorder._pending_writes.pop(id(args[1]), None)
            else:
                request = recorder._current_request()
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, request, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counts_result:
                record[5] = {"rows": len(result)}
            return result

        traced.__wrapped__ = function
        return traced

    def _wrap_submit_write(self, function):
        recorder = self

        async def submit_write(server, changes):
            recorder._pending_writes[id(changes)] = recorder._current_request()
            return await function(server, changes)

        submit_write.__wrapped__ = function
        return submit_write

    def install(self) -> None:
        if self._installed:
            return
        for module_name, attribute, _layer in self.targets:
            owner, leaf = _resolve(module_name, attribute)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(attribute, original))
            self._installed.append((owner, leaf, original))
        if self.served:
            from repro.serving.server import DatabaseServer

            original = DatabaseServer.submit_write
            DatabaseServer.submit_write = self._wrap_submit_write(original)
            self._installed.append((DatabaseServer, "submit_write", original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"layers": self.layers, "spans": self.spans}, handle)


def _resolve(module_name: str, attribute: str):
    owner = import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


# -- analysis (client side) -------------------------------------------------------

def load(path) -> tuple[dict, list[list]]:
    with open(path) as handle:
        payload = json.load(handle)
    return payload["layers"], payload["spans"]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover.  Children of
    one span never overlap: they ran one after another in one thread."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _request, _attributes in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[index] for index, (_n, start, end, *_rest) in enumerate(spans)]


def layer_self_seconds(layers: dict, spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layers.get(span[0], "other")
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def covered_seconds(spans: list[list]) -> float:
    """Time under at least one span: root spans never overlap, so this is the
    sum of their durations."""
    return sum(end - start for _n, start, end, parent, *_rest in spans if parent < 0)


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for span_name, start, end, *_rest in spans if span_name == name]


def request_extents(spans: list[list]) -> dict[str, tuple[float, float]]:
    """Per request id, the first start and the last end of its spans."""
    extents: dict[str, tuple[float, float]] = {}
    for _name, start, end, _parent, request, _attributes in spans:
        if request is None:
            continue
        known = extents.get(request)
        if known is None:
            extents[request] = (start, end)
        else:
            extents[request] = (min(known[0], start), max(known[1], end))
    return extents


def match_requests(client: list[list[tuple]], extents: dict[str, tuple[float, float]]):
    """Pair each server request with the client request it answered.

    *client* holds, per connection, the ``(sent, received, ...)`` records
    of the traced windows in send order.  Every request line reaches
    ``parse_request`` once, so the k-th traced request of a session is
    sequence number k.  A session belongs to the connection whose client
    intervals contain its requests (both processes read the same monotonic
    clock).  Returns ``{(connection, index): request id}``.
    """
    sessions: dict[str, dict[int, str]] = {}
    for request in extents:
        session, seq = request.split(":")
        sessions.setdefault(session, {})[int(seq) - 1] = request

    def contained(connection: int, requests: dict[int, str]) -> int:
        records = client[connection]
        return sum(
            1
            for index, request in requests.items()
            if index < len(records)
            and records[index][0] <= extents[request][0]
            and extents[request][1] <= records[index][1]
        )

    matched = {}
    for requests in sessions.values():
        connection = max(range(len(client)), key=lambda c: contained(c, requests))
        for index, request in requests.items():
            if index < len(client[connection]):
                matched[(connection, index)] = request
    return matched


def overlaps_any(intervals: list[tuple[float, float]], start: float, end: float) -> bool:
    """Whether [start, end] overlaps one of the sorted, disjoint *intervals*."""
    position = bisect_right(intervals, (end, float("inf"))) - 1
    return position >= 0 and intervals[position][1] > start
