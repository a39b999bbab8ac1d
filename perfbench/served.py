"""The client of the served workloads: one process, two connections.

Each connection runs a closed loop in its own thread over a blocking
socket: send one request line, read the whole response line, repeat, with
one request in flight at a time.  A paced loop sends its k-th request no
earlier than k periods after it started, so its schedule, not the server's
speed, sets its rate.  The timed interval of a request runs from just
before the send to just after the last byte of its response line.  Replies
are kept as bytes and decoded only after the timed region.
"""

from __future__ import annotations

import json
import socket
import threading
from time import perf_counter, sleep

#: Seconds a request may take before the run is declared hung.
REPLY_TIMEOUT = 60.0

#: serve_rw pacing periods (seconds).  They keep both processes below a
#: full core: a flat-out reader makes the client the bottleneck.  The
#: reader's shorter period makes most reads hit the epoch-keyed response
#: cache.  The ratio of the periods is not a whole number, so writes do not
#: lock onto one phase of the reads.
RW_WRITER_PERIOD = 0.0241
RW_READER_PERIOD = 0.00197

#: A paced loop that falls more than this many periods behind (a long
#: stall) drops the missed slots instead of sending them back to back.
CATCH_UP = 8

#: Warm-up, a fixed number of requests per connection.
RW_WARMUP_WRITES = 50
RW_WARMUP_READS = 200
ADHOC_WARMUP_READS = 20


class Feed:
    """A thread-safe, never-wrapping source of request lines."""

    def __init__(self, items) -> None:
        self._items = iter(items)
        self._lock = threading.Lock()
        self.exhausted = False

    def next(self):
        with self._lock:
            item = next(self._items, None)
            if item is None:
                self.exhausted = True
            return item


class CountTrigger:
    """Calls *action* once, from the loop that completes the *count*-th
    request over all the loops sharing it."""

    def __init__(self, count: int, action) -> None:
        self.count = count
        self.action = action
        self._done = 0
        self._lock = threading.Lock()

    def tick(self) -> None:
        with self._lock:
            self._done += 1
            if self._done != self.count:
                return
        self.action()


class Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.reader.readline()

    def close(self) -> None:
        try:
            self.call(b"QUIT\n")
        except OSError:
            pass
        self.reader.close()
        self.sock.close()


def closed_loop(connection: Connection, feed: Feed, period: float, records: list,
                deadline: float | None = None, count: int | None = None,
                trigger: CountTrigger | None = None) -> None:
    """Send lines from *feed* one at a time until *deadline* or *count*,
    paced to one per *period* (0: back to back); append
    ``(sent, received, line, reply)`` to *records* and tick *trigger*."""
    clock = perf_counter
    call = connection.call
    append = records.append
    done = 0
    due = clock()
    while count is None or done < count:
        now = clock()
        if now - due > CATCH_UP * period:
            due = now
        if deadline is not None and max(due, now) >= deadline:
            return
        if due > now:
            sleep(due - now)
        line = feed.next()
        if line is None:
            return
        sent = clock()
        reply = call(line)
        append((sent, clock(), line, reply))
        if trigger is not None:
            trigger.tick()
        done += 1
        due += period


def run_loops(loops) -> None:
    """Run ``(connection, feed, period, records, deadline, count, trigger)``
    loops in parallel threads; re-raise the first error any of them hit."""
    errors: list[BaseException] = []

    def body(arguments) -> None:
        try:
            closed_loop(*arguments)
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(arguments,)) for arguments in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def request(connection: Connection, line: bytes):
    """One request outside the timed region, decoded."""
    from repro.serving.protocol import decode_response

    return decode_response(connection.call(line).decode())


def server_counters(connection: Connection) -> dict[str, float]:
    """The server's own counters, read through ``STATS`` and ``METRICS``:
    ``stats.<section>.<name>`` and ``metrics.<exposition name>``."""
    from repro.observability.metrics import parse_exposition

    counters: dict[str, float] = {}
    stats = request(connection, b"STATS\n")
    for section in ("server", "views", "reliability"):
        for name, value in stats[section].items():
            counters[f"stats.{section}.{name}"] = value
    counters["stats.epoch"] = stats["epoch"]
    exposition = parse_exposition(request(connection, b"METRICS\n"))
    for name, values in exposition.items():
        if name != "#types" and "" in values:
            counters[f"metrics.{name}"] = values[""]
    return counters


def ok(reply: bytes) -> bool:
    return reply.startswith(b"OK ")


def write_payloads(records: list) -> list[dict | None]:
    """Decoded write replies (``None`` for an ``ERR``)."""
    return [json.loads(reply[3:]) if ok(reply) else None for _s, _r, _l, reply in records]
