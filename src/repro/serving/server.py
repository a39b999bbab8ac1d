"""The asyncio serving front door: many readers, one writer queue.

One :class:`DatabaseServer` wraps one :class:`repro.views.Database` and
speaks the line protocol of :mod:`repro.serving.protocol` over TCP.
Every connection is an asyncio task; reads answer directly from the
shared database — either live or at the session's pinned MVCC epoch
(:meth:`~repro.views.database.Database.pin`), which is what makes
thousands of concurrent readers safe against the writer.  Writes never
touch the database from a connection task: they are enqueued on the
**writer queue** and applied by the single writer task in arrival order,
so the serving layer preserves the database's serialized-writer
contract structurally (the database's own writer lock is then
uncontended).

The server is deliberately single-process/single-loop — the paper's
workload is read-dominated (the benchmark drives a 99:1 mix) and every
read of a pinned epoch is reference-chasing over immutable objects, so
the interesting concurrency is *logical* (epoch isolation), not
parallelism.
"""

from __future__ import annotations

import asyncio
import time

from repro.algebra.evaluation import evaluate_expression
from repro.calculus.evaluation import evaluate_query
from repro.calculus.parser import parse_query
from repro.errors import ReproError, ServingError
from repro.observability.metrics import METRICS
from repro.observability.querylog import slow_queries
from repro.observability.trace import (
    activate_span,
    current_span,
    get_trace,
    latest_trace,
    observability_stats,
    recent_trace_ids,
    span,
    tracing_enabled,
)
from repro.reliability import reliability_stats
from repro.types.parser import parse_type
from repro.views import Database, views_stats

from repro.serving.protocol import (
    encode_error,
    encode_ok,
    encode_result,
    parse_request,
)

#: Line length cap, both ways — a read of a huge relation must not wedge
#: the event loop building an unbounded string, and a request line
#: longer than this is answered ``ERR too_large`` (the session then
#: closes: the rest of that line is still arriving, so the next request
#: boundary cannot be found).
MAX_RESPONSE_BYTES = 16 * 1024 * 1024

#: Bound on the epoch-keyed read cache (FIFO eviction).  At the 99:1
#: mix most requests re-read the same few names at the same epoch, so
#: the encoded response line is reused until the writer advances.
RESULT_CACHE_ENTRIES = 512

#: Default record count for a bare ``SLOWLOG`` request.
SLOWLOG_DEFAULT_ENTRIES = 32


class DatabaseServer:
    """Serve one database over the line protocol.

    *queries* optionally registers named algebra expressions for the
    ``QUERY`` verb; a name that matches a maintained view answers from
    the view (the fast path), anything else falls through to the engine
    over the session's snapshot.

    Usable as an async context manager::

        async with DatabaseServer(database).serve() as server:
            ... connect to ("127.0.0.1", server.port) ...
    """

    def __init__(self, database: Database, queries=None) -> None:
        self.database = database
        self.queries = dict(queries or {})
        self.stats = {
            "sessions_opened": 0,
            "sessions_closed": 0,
            "requests_served": 0,
            "reads_served": 0,
            "writes_applied": 0,
            "errors_returned": 0,
            "read_cache_hits": 0,
        }
        self._result_cache: dict = {}
        self._server: asyncio.AbstractServer | None = None
        self._writer_queue: asyncio.Queue | None = None
        self._writer_task: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise ServingError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "DatabaseServer":
        """Bind and start accepting connections (``port=0`` picks a free
        one; read it back from :attr:`port`)."""
        if self._server is not None:
            raise ServingError("server is already started")
        self._writer_queue = asyncio.Queue()
        self._writer_task = asyncio.ensure_future(self._write_loop())
        self._server = await asyncio.start_server(
            self._handle_session, host, port, limit=MAX_RESPONSE_BYTES
        )
        self._register_gauges()
        return self

    async def stop(self) -> None:
        """Stop accepting, cancel the writer task, drop the sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
            self._writer_task = None
        self._writer_queue = None
        self._remove_gauges()

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """``async with server.serve() as server:`` — start/stop bracket."""
        return _ServeContext(self, host, port)

    # -- gauges ----------------------------------------------------------------
    #: Gauge names this server registers on start and removes on stop.
    _GAUGE_NAMES = (
        "repro_current_epoch",
        "repro_pinned_readers",
        "repro_wal_bytes",
        "repro_quarantined_views",
        "repro_result_cache_entries",
        "repro_plan_cache_entries",
    )

    def _register_gauges(self) -> None:
        """Expose the live serving state as callback gauges — sampled at
        METRICS exposition time, zero cost between expositions."""
        from repro.engine import _plan_cache

        database = self.database
        METRICS.set_gauge(
            "repro_current_epoch",
            lambda: database.current_epoch,
            "epoch of the live database state",
        )
        METRICS.set_gauge(
            "repro_pinned_readers",
            lambda: sum(database.pinned_epochs().values()),
            "live epoch pins held by readers",
        )
        METRICS.set_gauge("repro_wal_bytes", self._wal_bytes, "write-ahead log size")
        METRICS.set_gauge(
            "repro_quarantined_views",
            lambda: len(database.views.quarantined()),
            "views serving degraded after a maintainer failure",
        )
        METRICS.set_gauge(
            "repro_result_cache_entries",
            lambda: len(self._result_cache),
            "epoch-keyed encoded read responses held",
        )
        METRICS.set_gauge(
            "repro_plan_cache_entries",
            lambda: len(_plan_cache),
            "compiled plans held by the engine cache",
        )

    def _remove_gauges(self) -> None:
        for name in self._GAUGE_NAMES:
            METRICS.remove_gauge(name)

    def _wal_bytes(self) -> int:
        controller = self.database.durability
        if controller is None:
            return 0
        path = controller.wal.path
        return path.stat().st_size if path.exists() else 0

    # -- the writer queue ------------------------------------------------------
    async def _write_loop(self) -> None:
        """The single writer: applies queued batches in arrival order.

        Each entry carries the span active where the write was submitted:
        the writer task is a *different* asyncio task, so the trace
        context does not propagate by itself — :func:`activate_span`
        re-roots the commit under the submitting request's span, which is
        how a served INSERT's trace reaches the ``db.transact`` phases
        and per-view maintenance spans.
        """
        queue = self._writer_queue
        while True:
            changes, future, parent = await queue.get()
            if future.cancelled():
                continue
            try:
                with activate_span(parent):
                    batch = self.database.transact(changes)
            except BaseException as error:  # noqa: BLE001 — relayed to the caller
                future.set_exception(error)
                if not isinstance(error, Exception):
                    raise
            else:
                future.set_result(batch)

    async def submit_write(self, changes) -> object:
        """Enqueue one batch and wait for its commit (public so the
        workload driver can write in-process, like a connection would)."""
        if self._writer_queue is None:
            raise ServingError("server is not started")
        future = asyncio.get_event_loop().create_future()
        await self._writer_queue.put((changes, future, current_span()))
        return await future

    # -- sessions --------------------------------------------------------------
    async def _handle_session(self, reader, writer) -> None:
        self.stats["sessions_opened"] += 1
        handle = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran the stream limit
                    self.stats["errors_returned"] += 1
                    writer.write(
                        encode_error("too_large", "request exceeds the line cap").encode("utf-8")
                        + b"\n"
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    response, handle, closing = await self._dispatch(
                        line.decode("utf-8", errors="replace"), handle
                    )
                except ServingError as error:
                    response, closing = encode_error(error.code, str(error)), False
                    self.stats["errors_returned"] += 1
                except ReproError as error:
                    response, closing = (
                        encode_error(type(error).__name__, str(error)),
                        False,
                    )
                    self.stats["errors_returned"] += 1
                except Exception as error:  # noqa: BLE001 — a server must answer
                    response, closing = (
                        encode_error("internal", f"{type(error).__name__}: {error}"),
                        False,
                    )
                    self.stats["errors_returned"] += 1
                if len(response) > MAX_RESPONSE_BYTES:
                    response = encode_error("too_large", "response exceeds the line cap")
                    self.stats["errors_returned"] += 1
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
                self.stats["requests_served"] += 1
                if closing:
                    break
        finally:
            if handle is not None:
                handle.release()
            self.stats["sessions_closed"] += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, line: str, handle):
        """One request to one ``(response, handle, closing)`` triple.

        With tracing on, the whole dispatch runs under a ``serve.<VERB>``
        span — the root every engine/transact child span hangs off — and
        the per-verb ``repro_serving_request_seconds`` histogram observes
        the wall clock (errors included: the span finishes in the
        ``finally`` of the context manager, and the histogram records
        before the exception propagates to the session loop).
        """
        request = parse_request(line)
        if not tracing_enabled():
            return await self._dispatch_request(request, handle)
        start = time.perf_counter()
        histogram = METRICS.histogram(
            "repro_serving_request_seconds", labels={"verb": request.verb}
        )
        try:
            with span(f"serve.{request.verb}"):
                return await self._dispatch_request(request, handle)
        finally:
            histogram.observe(time.perf_counter() - start)

    async def _dispatch_request(self, request, handle):
        """The verb switch proper (untimed; see :meth:`_dispatch`)."""
        verb = request.verb
        if verb == "PING":
            return encode_ok("pong"), handle, False
        if verb == "QUIT":
            return encode_ok("bye"), handle, True
        if verb == "PIN":
            epoch = int(request.operand) if request.operand is not None else None
            new_handle = self.database.pin(epoch)
            if handle is not None:
                handle.release()
            return encode_ok({"epoch": new_handle.epoch}), new_handle, False
        if verb == "UNPIN":
            if handle is not None:
                handle.release()
            return encode_ok({"epoch": self.database.current_epoch}), None, False
        if verb in ("INSERT", "DELETE"):
            rows = request.rows or []
            changes = (
                {request.operand: (rows, ())}
                if verb == "INSERT"
                else {request.operand: ((), rows)}
            )
            batch = await self.submit_write(changes)
            self.stats["writes_applied"] += 1
            return (
                encode_ok(
                    {"epoch": self.database.current_epoch, "applied": batch.size()}
                ),
                handle,
                False,
            )
        # Everything below is a read.
        self.stats["reads_served"] += 1
        if verb == "EPOCH":
            epoch = handle.epoch if handle is not None else self.database.current_epoch
            return encode_ok({"epoch": epoch}), handle, False
        if verb == "STATS":
            payload = {
                "server": dict(self.stats),
                "views": views_stats(),
                "reliability": reliability_stats(),
                "epoch": self.database.current_epoch,
                "observability": {
                    "tracing": tracing_enabled(),
                    "counters": observability_stats(),
                    "latency": METRICS.latency_summaries(),
                    "recent_traces": recent_trace_ids(8),
                },
            }
            return encode_ok(payload), handle, False
        if verb == "METRICS":
            return encode_ok(METRICS.render_exposition()), handle, False
        if verb == "SLOWLOG":
            limit = (
                int(request.operand)
                if request.operand is not None
                else SLOWLOG_DEFAULT_ENTRIES
            )
            return encode_ok(slow_queries(limit)), handle, False
        if verb == "TRACE":
            if request.operand == "last":
                latest = latest_trace()
                if latest is None:
                    raise ServingError("no finished traces", code="unknown_trace")
                trace_id, spans = latest
            else:
                trace_id = request.operand
                spans = get_trace(trace_id)
                if spans is None:
                    raise ServingError(
                        f"no finished trace {trace_id!r}", code="unknown_trace"
                    )
            return encode_ok({"trace_id": trace_id, "spans": spans}), handle, False
        if verb in ("GET", "VIEW", "QUERY"):
            return self._cached_read(verb, request.operand, handle), handle, False
        if verb == "CALC":
            query = parse_query(request.operand, self.database.schema)
            snapshot = (
                handle.snapshot() if handle is not None else self.database.snapshot()
            )
            return encode_ok(encode_result(evaluate_query(query, snapshot))), handle, False
        if verb == "TYPE":
            return encode_ok(str(parse_type(request.operand))), handle, False
        raise ServingError(f"verb {verb} is not implemented", code="bad_request")

    def _cached_read(self, verb: str, name: str, handle) -> str:
        """GET/VIEW/QUERY with the epoch-keyed response cache.

        A named read at a fixed epoch is immutable — pinned handles
        answer from a frozen snapshot, and the live state cannot change
        at a given epoch (every commit advances it) — so the encoded
        response line is reused verbatim.  A pinned read keys on the
        handle's epoch.  An unpinned read keys on the *current* epoch and
        re-checks it after encoding: if a write slipped in mid-read the
        entry is not stored rather than poisoning the new epoch's key.
        """
        pinned = handle is not None
        epoch = handle.epoch if pinned else self.database.current_epoch
        key = (verb, name, epoch)
        cached = self._result_cache.get(key)
        if cached is not None:
            self.stats["read_cache_hits"] += 1
            return cached
        if verb == "GET":
            result = (
                handle.instance(name)
                if handle is not None
                else self.database.instance(name)
            )
        elif verb == "VIEW":
            result = (
                handle.view(name)
                if handle is not None
                else self.database.views.view(name).value()
            )
        else:
            result = self._query(name, handle)
        response = encode_ok(encode_result(result))
        if pinned or self.database.current_epoch == epoch:
            if len(self._result_cache) >= RESULT_CACHE_ENTRIES:
                self._result_cache.pop(next(iter(self._result_cache)))
            self._result_cache[key] = response
        return response

    def _query(self, name: str, handle):
        """The QUERY verb: maintained view when one matches, else the
        registered expression through the engine (fall-through)."""
        if name in self.database.views:
            if handle is not None:
                return handle.view(name)
            return self.database.views.view(name).value()
        expression = self.queries.get(name)
        if expression is None:
            raise ServingError(f"no view or registered query named {name!r}", code="unknown_query")
        if handle is not None:
            return handle.query(expression)
        return evaluate_expression(expression, self.database.snapshot())


class _ServeContext:
    __slots__ = ("_server", "_host", "_port")

    def __init__(self, server: DatabaseServer, host: str, port: int) -> None:
        self._server = server
        self._host = host
        self._port = port

    async def __aenter__(self) -> DatabaseServer:
        return await self._server.start(self._host, self._port)

    async def __aexit__(self, *exc_info) -> None:
        await self._server.stop()


__all__ = ["DatabaseServer", "MAX_RESPONSE_BYTES"]
