"""One benchmark run: set up the program, drive a workload, check the
answers, report the metrics and write the run's record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
program is set up :data:`SETUPS` times (``setup_s`` is the median) and the
last set-up runs one timed region.  ``--trace 1`` reports the per-layer
metrics: one set-up, then four equal windows — untraced, traced,
untraced, traced — whose comparison gives the tracing overhead.

The end-to-end times are rescaled to the reference host
(:func:`perfbench.common.reference_kernel`): each time is multiplied by
the speed factor measured beside it, and a rate the program's speed sets
is divided by it (a paced loop's rate is set by its schedule and is not).
The figures as observed are printed and recorded too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

from perfbench import common, data, served, tracing
from perfbench.common import Metric, mean, median, percentile, ratio

WORKLOADS = ("serve_rw", "serve_adhoc", "semantics")

#: The workloads ``BENCHMARK.json`` gates.  ``serve_adhoc`` runs by hand
#: only: its rescaled figures move with the host by more than any bound
#: the benchmark may set (see ``README.md``).
GATED_WORKLOADS = ("serve_rw", "semantics")

#: Program set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: ``serve_adhoc``'s peak RSS is read once this many timed queries are
#: answered: the server's heap grows with the number of distinct queries,
#: so a fixed count keeps a throughput gain from reading as more memory.
#: Every host seen so far answers it within 15 s.
RSS_AT_QUERIES = 1000

#: Seconds to wait for the program's handshake, and for a command's answer.
HANDSHAKE_TIMEOUT = 120.0
COMMAND_TIMEOUT = 60.0

#: One timed response in this many (by parameterization) is re-evaluated
#: by the client and compared byte for byte.
ADHOC_SAMPLE_EVERY = 40

#: End-to-end metrics (``--trace 0``), as in ``BENCHMARK.json``.
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

#: The suite entries' per-layer timing metrics, ``<layer>.evaluate_ms.<query>``.
SEMANTICS_ENTRIES = (
    "calculus.grandparent_chain6",
    "calculus.closure_chain3",
    "calculus.superset_chain3",
    "calculus.even_persons3",
    "calculus.even_persons4",
    "second_order.even_persons4",
    "second_order.colourable_cycle4",
    "second_order.reach_chain3",
    "fixpoint.closure_chain3",
    "datalog.closure_chain3",
)

#: Layers whose self time the traced run reports.
LAYERS = ("serving", "views", "reliability", "engine", "calculus", "second_order",
          "fixpoint", "datalog")

#: Per-layer metrics (``--trace 1``), as in ``BENCHMARK.json``.  A layer
#: a workload does not exercise reports 0.
PER_LAYER = {
    "serving.parse_us": "us",
    "serving.wire_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.server_cpu_us_per_op": "us/op",
    "serving.read_stall_share": "ratio",
    "serving.write_wait_ms": "ms",
    "serving.encode_ms": "ms",
    "views.transact_self_ms": "ms",
    "views.maintain_ms": "ms",
    "views.delta_rows_per_commit": "rows",
    "reliability.wal_append_ms": "ms",
    "reliability.fsyncs_per_commit": "count",
    "reliability.wal_bytes_per_row": "B/row",
    "engine.compile_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.rows_out": "rows",
    "engine.fused_ratio": "ratio",
    "engine.multiway_joins": "count/plan",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.stale_plan_recompiles": "count",
    **{
        f"{key.split('.')[0]}.evaluate_ms.{key.split('.')[1]}": "ms"
        for key in SEMANTICS_ENTRIES
    },
    "calculus.memo_hit_ratio": "ratio",
    "calculus.bindings_tried": "count/pass",
    "calculus.satisfaction_calls": "count/pass",
    "objects.intern_hit_ratio": "ratio",
    "objects.sets_interned_per_op": "count/op",
    **{f"{layer}.self_ms_per_op": "ms/op" for layer in LAYERS},
    "trace.uncovered_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The run could not be carried out (as opposed to a wrong answer)."""


class ProgramProcess:
    """The program under test in its own process (:mod:`perfbench.program`)."""

    def __init__(self, root: Path, workload: str, seed: int, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(root / "src"), str(root), env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.program", "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self, timeout: float):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchmarkError(f"program process gave no answer within {timeout:.0f} s") from None
        if line is None:
            raise BenchmarkError(f"program process exited with code {self.process.wait()}")
        kind, _, payload = line.rstrip("\n").partition(" ")
        value = json.loads(payload) if payload else None
        if kind == "ERR":
            raise BenchmarkError(f"program process: {value}")
        return value

    def command(self, text: str, timeout: float = COMMAND_TIMEOUT):
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self.receive(timeout)

    def stop(self) -> None:
        """Ask the process to exit, kill it if it does not, and wait."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write("EXIT\n")
                self.process.stdin.flush()
            except OSError:
                pass
            try:
                self.process.wait(timeout=COMMAND_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._pump.join(timeout=COMMAND_TIMEOUT)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Run:
    """One invocation's settings, failures and record."""

    def __init__(self, args, root: Path, workdir: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.root = root
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, Metric] = {}
        self.extras: dict[str, Metric] = {}
        self.record: dict = {}
        runs = root / ".perfbench" / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        #: Path prefix of this run's record and spans files.
        self.stem = runs / f"{self.workload}-seed{self.seed}-trace{args.trace}-{time.time_ns()}"
        #: Every warm-up request line sent, over all set-ups.
        self.warmup_lines: list[bytes] = []
        #: The client's copy of the inputs (see :func:`served_inputs`).
        self.rw_rows: dict = {}
        self.rw_writes: list = []
        self.adhoc_rows: dict = {}
        self.adhoc_position: dict[str, int] = {}

    def windows(self) -> list[tuple[bool, float]]:
        """``(traced, seconds)`` of each timed window."""
        if not self.traced:
            return [(False, float(self.seconds))]
        quarter = self.seconds / 4
        return [(False, quarter), (True, quarter), (False, quarter), (True, quarter)]

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)


def spans_file(run: Run) -> Path:
    """Where the program writes a traced run's spans: beside the run's record."""
    return Path(f"{run.stem}-spans.json")


def setup_kernel() -> float:
    """The reference kernel's duration in this process, best of three."""
    return min(common.reference_kernel() for _ in range(3))


def timed_records(windows: list[dict]) -> list[tuple]:
    """Every ``(sent, received, line, reply)`` record of the timed windows."""
    return [record for window in windows for records in window["records"] for record in records]


def is_write(record: tuple) -> bool:
    return record[2].startswith((b"INSERT", b"DELETE"))


def latency(values: list[float], fraction: float) -> Metric:
    """A percentile of *values* (seconds) in milliseconds, with its sample count."""
    return Metric(percentile(values, fraction) * 1000, "ms", len(values))


# -- served workloads ---------------------------------------------------------------

class ServedSetup:
    """A running program process plus the client's two connections."""

    def __init__(self, program: ProgramProcess, connections: list, feeds: list, periods: tuple,
                 seconds: tuple[float, float], counters: dict, warmup: list[list]) -> None:
        self.program = program
        self.connections = connections
        self.feeds = feeds
        self.periods = periods
        #: Set-up time as observed, and the speed factor measured around it.
        self.seconds = seconds
        self.counters = counters
        self.warmup = warmup

    def close(self) -> None:
        try:
            for connection in self.connections:
                connection.close()
        finally:
            self.program.stop()


def served_inputs(run: Run):
    """The client's inputs, made before any set-up is timed.  Returns a
    function giving each set-up its ``(feeds, periods, warm-up counts)``.
    A paced loop sends at most one request per period, plus one per window
    for rounding, so the inputs made here always last the timed region."""
    seed = run.seed
    if run.workload == "serve_rw":
        slack = len(run.windows())
        rows = data.rw_rows(seed)
        writes = data.rw_writes(
            seed, rows["F"],
            served.RW_WARMUP_WRITES + math.ceil(run.seconds / served.RW_WRITER_PERIOD) + slack,
        )
        reads = data.rw_read_lines(
            seed,
            served.RW_WARMUP_READS + math.ceil(run.seconds / served.RW_READER_PERIOD) + slack,
        )
        run.rw_rows = rows
        run.rw_writes = writes
        lines = [write.line for write in writes]

        def per_setup():
            # Every set-up starts a fresh database, so its writes start over.
            return (
                [served.Feed(lines), served.Feed(reads)],
                (served.RW_WRITER_PERIOD, served.RW_READER_PERIOD),
                (served.RW_WARMUP_WRITES, served.RW_WARMUP_READS),
            )

        return per_setup
    order = data.adhoc_order(seed)
    run.adhoc_rows = data.adhoc_rows(seed)
    run.adhoc_position = {name: index for index, name in enumerate(order)}
    # One feed for the whole run: no parameterization is ever requested twice.
    feed = served.Feed(f"QUERY {name}\n".encode() for name in order)
    warmup = served.ADHOC_WARMUP_READS

    def per_setup():
        return ([feed, feed], (0.0, 0.0), (warmup, warmup))

    return per_setup


def start_served(run: Run, attempt: int, per_setup) -> ServedSetup:
    """Launch → handshake → connect → fixed-count warm-up → counters → GC."""
    feeds, periods, counts = per_setup()
    kernel = setup_kernel()
    start = perf_counter()
    program = ProgramProcess(run.root, run.workload, run.seed, run.workdir / f"setup{attempt}")
    connections: list = []
    try:
        port = program.receive(HANDSHAKE_TIMEOUT)["port"]
        for _ in range(2):
            connection = served.Connection(port)
            served.request(connection, b"PING\n")
            connections.append(connection)
        # The warm-up sends a fixed count back to back.
        warmup: list[list] = [[], []]
        served.run_loops(
            (connections[i], feeds[i], 0.0, warmup[i], None, counts[i], None) for i in range(2)
        )
        counters = served.server_counters(connections[0])
        program.command("GC")
        gc.collect()
        seconds = (perf_counter() - start, common.speed_factor((kernel + setup_kernel()) / 2))
    except BaseException:
        for connection in connections:
            connection.close()
        program.stop()
        raise
    run.warmup_lines.extend(record[2] for records in warmup for record in records)
    return ServedSetup(program, connections, feeds, periods, seconds, counters, warmup)


def served_windows(run: Run, setup: ServedSetup) -> list[dict]:
    """The timed windows.  Each reads the server's peak RSS before any
    answer check: on ``serve_adhoc`` once :data:`RSS_AT_QUERIES` queries are
    answered (at the end if they never are), on ``serve_rw`` at the end."""
    program = setup.program
    pid = program.process.pid
    windows = []
    for traced, seconds in run.windows():
        if traced:
            program.command("TRACE on")
        usage = program.command("USAGE")
        steal = common.cpu_ticks()
        records: list[list] = [[], []]
        peak: list[int] = []
        trigger = None
        if run.workload == "serve_adhoc":
            trigger = served.CountTrigger(
                RSS_AT_QUERIES, lambda: peak.append(common.peak_rss_kb(pid))
            )
        start = perf_counter()
        deadline = start + seconds
        served.run_loops(
            (setup.connections[i], setup.feeds[i], setup.periods[i], records[i], deadline, None,
             trigger)
            for i in range(2)
        )
        end = perf_counter()
        at_end = common.peak_rss_kb(pid)
        windows.append({
            "peak_rss_kb": peak[0] if peak else at_end,
            "peak_rss_kb_at_end": at_end,
            "traced": traced,
            "start": start,
            "end": end,
            "records": records,
            "steal": common.steal_share(steal, common.cpu_ticks()),
            "cpu_s": program.command("USAGE")["cpu_s"] - usage["cpu_s"],
        })
        if traced:
            program.command("TRACE off")
    return windows


def run_served(run: Run) -> None:
    per_setup = served_inputs(run)
    setups = 1 if run.traced else SETUPS
    setup_seconds = []
    setup = None
    try:
        for attempt in range(setups):
            setup = start_served(run, attempt, per_setup)
            setup_seconds.append(setup.seconds)
            if attempt < setups - 1:
                setup.close()
                setup = None
        gc.freeze()
        windows = served_windows(run, setup)
        gc.unfreeze()
        counters = served.server_counters(setup.connections[0])
        diff = {name: value - setup.counters.get(name, 0) for name, value in counters.items()}
        samples = [tuple(sample) for sample in setup.program.command("SPEED")["samples"]]
        check_served(run, setup, windows, counters)
        spans_path = spans_file(run)
        if run.traced:
            setup.program.command(f"DUMP {spans_path}")
        paced = any(setup.periods)
    finally:
        if setup is not None:
            setup.close()
    run.record["setup_seconds"] = setup_seconds
    run.record["counters"] = diff
    run.record["steal_share"] = window_steal(windows)
    run.attempted = len(timed_records(windows))
    if run.traced:
        layers, spans = tracing.load(spans_path)
        run.metrics = served_layers(run, windows, layers, spans, diff)
    else:
        served_end_to_end(run, windows[0], setup_seconds, samples, paced)


def served_end_to_end(run: Run, window: dict, setup_seconds: list, samples: list,
                      paced: bool) -> None:
    """The end-to-end metrics of an untraced served run (one window)."""
    timed = timed_records([window])
    reads = [r[1] - r[0] for r in timed if not is_write(r)]
    writes = [r[1] - r[0] for r in timed if is_write(r)]
    ops = Metric(len(timed) / (window["end"] - window["start"]), "1/s", len(timed))
    # The commit path is serve_rw's work; a query is serve_adhoc's.
    gated = [r for r in timed if is_write(r) == (run.workload == "serve_rw")]
    observed = [r[1] - r[0] for r in gated]
    factors = common.speed_factors(samples, [r[0] for r in gated])
    times = [seconds * f for seconds, f in zip(observed, factors)]
    # Each request's time is rescaled by the kernel timed beside it.  On
    # serve_adhoc both connections are always busy, so the timed region is
    # the requests' summed time over two and the rate rescales with that
    # sum; a paced rate is set by its schedule.
    factor = sum(times) / sum(observed)
    run.metrics = {
        "ops_per_s": Metric(ops.value if paced else ops.value / factor, "1/s", ops.samples),
        "latency_p50_ms": Metric(median(times) * 1000, "ms", len(gated)),
        "setup_s": Metric(median([s * f for s, f in setup_seconds]), "s", len(setup_seconds)),
        "peak_rss_mb": Metric(window["peak_rss_kb"] / 1024, "MB"),
    }
    run.record["speed_factor"] = factor
    run.record["peak_rss_mb_at_end"] = window["peak_rss_kb_at_end"] / 1024
    run.extras = {"ops_per_s": ops}
    if reads:
        run.extras["read_p50_ms"] = latency(reads, 0.5)
        run.extras["read_p99_ms"] = latency(reads, 0.99)
    if writes:
        run.extras["write_p50_ms"] = latency(writes, 0.5)
        run.extras["write_p99_ms"] = latency(writes, 0.99)
    run.extras["setup_s"] = Metric(median([s for s, _f in setup_seconds]), "s", len(setup_seconds))


def check_served(run: Run, setup: ServedSetup, windows: list[dict], counters: dict) -> None:
    """Every reply OK, plus the workload's own answer checks."""
    timed = timed_records(windows)
    run.fail(sum(1 for record in timed if not served.ok(record[3])), "requests answered ERR")
    if any(feed.exhausted for feed in setup.feeds):
        run.fail(1, "inputs ran out before the timed region ended")
    if run.workload == "serve_rw":
        check_rw(run, setup, windows, counters)
    else:
        check_adhoc(run, setup, windows)


def check_rw(run: Run, setup: ServedSetup, windows: list[dict], counters: dict) -> None:
    """Each acknowledged write is in the final ``GET F`` as the client's model
    says, and the epoch rose by exactly 1 per commit."""
    records = setup.warmup[0] + [record for window in windows for record in window["records"][0]]
    model = set(run.rw_rows["F"])
    epoch = 0
    bad_epochs = bad_sizes = 0
    for write, payload in zip(run.rw_writes, served.write_payloads(records)):
        if payload is None:
            continue
        epoch += 1
        bad_epochs += payload["epoch"] != epoch
        bad_sizes += payload["applied"] != len(write.rows)
        if write.verb == "INSERT":
            model.update(write.rows)
        else:
            model.difference_update(write.rows)
    run.fail(bad_epochs, "write epochs did not rise by 1 per commit")
    run.fail(bad_sizes, "writes applied a different number of rows than sent")
    run.fail(int(counters["stats.epoch"] != epoch), "final epoch differs from the commit count")
    final = served.request(setup.connections[0], b"GET F\n")
    served_rows = {
        tuple(item["value"] for item in value["items"]) for value in final["values"]
    }
    run.fail(len(model ^ served_rows), "final GET F differs from the acknowledged writes")
    timed_writes = sum(len(window["records"][0]) for window in windows)
    run.record["rows_applied"] = sum(
        payload["applied"]
        for payload in served.write_payloads(records[len(records) - timed_writes:])
        if payload is not None
    )


def check_adhoc(run: Run, setup: ServedSetup, windows: list[dict]) -> None:
    """No parameterization requested twice; a deterministic sample of the
    responses equals the client's own evaluation byte for byte, and holds
    the rows a plain-Python join computes without the engine."""
    from repro.algebra.evaluation import evaluate_expression
    from repro.objects.instance import DatabaseInstance
    from repro.serving.protocol import encode_ok, encode_result

    timed = timed_records(windows)
    lines = [record[2] for record in timed] + run.warmup_lines
    run.fail(len(lines) - len(set(lines)), "a parameterization was requested twice")
    database = DatabaseInstance(data.ADHOC_SCHEMA, run.adhoc_rows)
    checked = 0
    for _sent, _received, line, reply in timed:
        name = line.decode().split()[1]
        if run.adhoc_position[name] % ADHOC_SAMPLE_EVERY:
            continue
        answer = evaluate_expression(data.adhoc_expression(name), database)
        expected = encode_ok(encode_result(answer)).encode() + b"\n"
        checked += 1
        run.fail(int(reply != expected), f"response to {name} differs")
        served_rows = {
            tuple(item["value"] for item in value["items"])
            for value in json.loads(reply[3:])["values"]
        } if served.ok(reply) else set()
        run.fail(
            int(served_rows != data.adhoc_answer(run.adhoc_rows, name)),
            f"response to {name} differs from the plain-Python join",
        )
    run.record["responses_reevaluated"] = checked


def window_steal(windows: list[dict]) -> float:
    total = sum(window["end"] - window["start"] for window in windows)
    return sum(window["steal"] * (window["end"] - window["start"]) for window in windows) / total


def served_layers(run: Run, windows: list[dict], layers: dict, spans: list, diff: dict):
    """Per-layer metrics of a traced served run."""
    traced = [window for window in windows if window["traced"]]
    untraced = [window for window in windows if not window["traced"]]
    client = [[r for window in traced for r in window["records"][c]] for c in range(2)]
    extents = tracing.request_extents(spans)
    matched = tracing.match_requests(client, extents)
    by_request: dict[str, list] = {}
    for span in spans:
        if span[4] is not None:
            by_request.setdefault(span[4], []).append(span)
    own = tracing.self_times(spans)
    wire, write_wait = [], []
    for (connection, index), request in matched.items():
        record = client[connection][index]
        start, end = extents[request]
        wire.append((record[1] - record[0]) - (end - start))
        if is_write(record):
            commits = [s for s in by_request[request] if s[0] == "Database.transact"]
            if commits:
                write_wait.append((record[1] - record[0]) - (commits[0][2] - commits[0][1]))
    commits = sorted((s[1], s[2]) for s in spans if s[0] == "Database.transact")
    reads = [r for records in client for r in records if not is_write(r)]
    stalled = sum(1 for r in reads if tracing.overlaps_any(commits, r[0], r[1]))
    encodes = [
        sum(s[2] - s[1] for s in group if s[0] in ("encode_result", "encode_ok"))
        for group in by_request.values()
        if any(s[0] == "encode_result" for s in group)
    ]
    transact_self = [own[i] for i, s in enumerate(spans) if s[0] == "Database.transact"]
    counter = lambda name: diff.get(name, 0)  # noqa: E731
    metrics = {
        "serving.parse_us": mean(tracing.durations(spans, "parse_request")) * 1e6,
        "serving.wire_ms": median(wire) * 1000 if wire else 0.0,
        "serving.cache_hit_ratio": ratio(
            counter("stats.server.read_cache_hits"), counter("stats.server.reads_served") - 2
        ),
        "serving.server_cpu_us_per_op": (
            ratio(sum(window["cpu_s"] for window in untraced), len(timed_records(untraced))) * 1e6
        ),
        "serving.read_stall_share": ratio(stalled, len(reads)),
        "serving.write_wait_ms": median(write_wait) * 1000 if write_wait else 0.0,
        "serving.encode_ms": mean(encodes) * 1000,
        "views.transact_self_ms": mean(transact_self) * 1000,
        "views.maintain_ms": mean(tracing.durations(spans, "ViewCatalog.maintain")) * 1000,
        "views.delta_rows_per_commit": ratio(
            counter("stats.views.rows_delta_in"), counter("stats.views.delta_batches")
        ),
        "reliability.wal_append_ms": mean(tracing.durations(spans, "WriteAheadLog.append")) * 1000,
        "reliability.fsyncs_per_commit": ratio(
            counter("stats.reliability.wal_fsyncs"), counter("stats.server.writes_applied")
        ),
        "reliability.wal_bytes_per_row": ratio(
            counter("stats.reliability.wal_bytes_written"), run.record.get("rows_applied", 0)
        ),
    }
    ops = sum(len(records) for records in client)
    metrics.update(engine_layers(
        spans, lambda family, name: counter(f"metrics.repro_{family}_{name}_total"), ops
    ))
    metrics.update(trace_layers(layers, spans, traced, ops))
    metrics["trace.overhead_ratio"] = ratio(
        median([r[1] - r[0] for records in client for r in records]),
        median([r[1] - r[0] for r in timed_records(untraced)]),
    )
    return finish_layers(metrics, ops)


def engine_layers(spans: list, counter, ops: int) -> dict[str, float]:
    """Engine and object-layer metrics: span timings plus counter ratios
    (``counter(family, name)`` is a counter diffed over the timed region)."""
    runs = [s for s in spans if s[0] == "run_expression"]
    interned_hits = counter("interning", "set_hits")
    interned = interned_hits + counter("interning", "set_misses")
    compiles = tracing.durations(spans, "compile_expression")
    fused = counter("codegen", "fragments_fused")
    return {
        "engine.compile_ms": mean(compiles) * 1000,
        "engine.execute_ms": mean(tracing.durations(spans, "execute_plan")) * 1000,
        "engine.rows_out": mean([s[5]["rows"] for s in runs]),
        "engine.fused_ratio": ratio(fused, fused + counter("codegen", "fallbacks")),
        "engine.multiway_joins": ratio(
            counter("joinorder", "multiway_joins"), counter("joinorder", "plans_considered")
        ),
        "engine.plan_cache_hit_ratio": 1 - len(compiles) / len(runs) if runs else 0.0,
        "engine.stale_plan_recompiles": counter("joinorder", "stale_plan_recompiles"),
        "objects.intern_hit_ratio": ratio(interned_hits, interned),
        "objects.sets_interned_per_op": ratio(interned, ops),
    }


def trace_layers(layers: dict, spans: list, traced: list[dict], ops: int) -> dict[str, float]:
    """Each layer's self time per op, and the share of traced time no span covers."""
    seconds = tracing.layer_self_seconds(layers, spans)
    traced_seconds = sum(window["end"] - window["start"] for window in traced)
    metrics = {
        f"{layer}.self_ms_per_op": ratio(seconds.get(layer, 0.0), ops) * 1000 for layer in LAYERS
    }
    metrics["trace.uncovered_share"] = 1 - ratio(tracing.covered_seconds(spans), traced_seconds)
    return metrics


def finish_layers(values: dict, ops: int) -> dict[str, Metric]:
    """Every per-layer metric, 0 for a layer the workload leaves idle;
    the sample count is the number of traced ops."""
    return {name: Metric(values.get(name, 0.0), unit, ops) for name, unit in PER_LAYER.items()}


# -- semantics --------------------------------------------------------------------

def run_semantics(run: Run) -> None:
    setups = 1 if run.traced else SETUPS
    setup_seconds = []
    program = None
    try:
        for attempt in range(setups):
            kernel = setup_kernel()
            start = perf_counter()
            program = ProgramProcess(run.root, run.workload, run.seed, run.workdir)
            program.receive(HANDSHAKE_TIMEOUT)
            seconds = perf_counter() - start
            setup_seconds.append(
                (seconds, common.speed_factor((kernel + setup_kernel()) / 2))
            )
            if attempt < setups - 1:
                program.stop()
                program = None
        windows = []
        for traced, seconds in run.windows():
            if traced:
                program.command("TRACE on")
            steal = common.cpu_ticks()
            window = program.command(f"RUN {seconds}", timeout=seconds + COMMAND_TIMEOUT)
            window["steal"] = common.steal_share(steal, common.cpu_ticks())
            window["traced"] = traced
            windows.append(window)
            if traced:
                program.command("TRACE off")
        spans_path = spans_file(run)
        if run.traced:
            program.command(f"DUMP {spans_path}")
        usage = program.command("USAGE")
    finally:
        if program is not None:
            program.stop()
    failures = [failure for window in windows for failure in window["failures"]]
    run.attempted = sum(window["ops"] for window in windows)
    run.fail(len(failures), "; ".join(sorted(set(failures))[:5]))
    run.record["setup_seconds"] = setup_seconds
    run.record["steal_share"] = window_steal(windows)
    if run.traced:
        layers, spans = tracing.load(spans_path)
        run.metrics = semantics_layers(windows, layers, spans)
        return
    window = windows[0]
    passes = window["pass_seconds"]
    kernels = window["kernel_seconds"]
    # Each pass is rescaled by the kernel timed just before and after it.
    factors = [
        common.speed_factor((kernels[i] + kernels[i + 1]) / 2) for i in range(len(passes))
    ]
    rescaled = [seconds * factor for seconds, factor in zip(passes, factors)]
    ops = window["ops"]
    run.metrics = {
        "ops_per_s": Metric(ops / sum(rescaled), "1/s", ops),
        "latency_p50_ms": latency(rescaled, 0.5),
        "setup_s": Metric(median([s * f for s, f in setup_seconds]), "s", len(setup_seconds)),
        "peak_rss_mb": Metric(usage["maxrss_kb"] / 1024, "MB"),
    }
    run.record["speed_factor"] = median(factors)
    run.extras = {
        "ops_per_s": Metric(ops / sum(passes), "1/s", ops),
        "pass_p50_ms": latency(passes, 0.5),
        "setup_s": Metric(median([s for s, _f in setup_seconds]), "s", len(setup_seconds)),
    }
    run.record["counters"] = window["counters"]


def semantics_layers(windows: list[dict], layers: dict, spans: list) -> dict[str, Metric]:
    traced = [window for window in windows if window["traced"]]
    untraced = [window for window in windows if not window["traced"]]
    counters: dict[str, dict[str, float]] = {}
    for window in windows:
        for family, values in window["counters"].items():
            for name, value in values.items():
                counters.setdefault(family, {})
                counters[family][name] = counters[family].get(name, 0) + value
    calculus = {
        name: sum(window["calculus"][name] for window in windows)
        for name in windows[0]["calculus"]
    }
    passes = sum(len(window["pass_seconds"]) for window in windows)
    ops = sum(window["ops"] for window in traced)
    metrics = engine_layers(
        spans, lambda family, name: counters.get(family, {}).get(name, 0),
        sum(window["ops"] for window in windows),
    )
    for key in SEMANTICS_ENTRIES:
        layer, name = key.split(".")
        times = [t for window in traced for t in window["op_seconds"][key]]
        metrics[f"{layer}.evaluate_ms.{name}"] = median(times) * 1000 if times else 0.0
    metrics["calculus.memo_hit_ratio"] = ratio(
        calculus["memo_hits"], calculus["memo_hits"] + calculus["memo_misses"]
    )
    metrics["calculus.bindings_tried"] = ratio(calculus["bindings_tried"], passes)
    metrics["calculus.satisfaction_calls"] = ratio(calculus["satisfaction_calls"], passes)
    metrics.update(trace_layers(layers, spans, traced, ops))
    per_pass = lambda group: median([t for w in group for t in w["pass_seconds"]])  # noqa: E731
    metrics["trace.overhead_ratio"] = ratio(per_pass(traced), per_pass(untraced))
    return finish_layers(metrics, ops)


# -- output -------------------------------------------------------------------------

def report(run: Run, environment: dict) -> dict:
    expected = PER_LAYER if run.traced else END_TO_END
    if {name: metric.unit for name, metric in run.metrics.items()} != expected:
        raise BenchmarkError("the run's metrics differ from the declared metric table")
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in run.metrics.items()},
    }
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "environment": environment,
        "error_rate": ratio(run.failed, run.attempted),
        "problems": run.problems,
        "metrics": {name: m.as_dict() for name, m in run.metrics.items()},
        "observed_metrics": {name: m.as_dict() for name, m in run.extras.items()},
        **run.record,
        "result": result,
    }
    path = run.stem.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1, default=str))

    print(
        f"{run.workload}  seed={run.seed}  seconds={run.seconds}  trace={int(run.traced)}  "
        f"git={environment['git_sha'][:12]}  python={environment['python']}  "
        f"nproc={environment['nproc']}  PYTHONHASHSEED={environment['pythonhashseed']}  "
        f"steal={run.record.get('steal_share', 0.0):.1%}"
    )
    sections = [("per-layer metrics", run.metrics)] if run.traced else [
        (f"end-to-end metrics, rescaled to the reference host (speed factor "
         f"{run.record['speed_factor']:.3f})", run.metrics),
        ("as observed", run.extras),
    ]
    for title, shown in sections:
        print(f" {title}:")
        for name, metric in shown.items():
            tail = f"n={metric.samples}"
            if name.endswith("_p99_ms"):
                tail += f", {common.beyond(metric.samples, 0.99)} beyond"
            print(f"  {name:40s} {metric.value:14.4f} {metric.unit:10s} ({tail})")
    print(f"  {'error_rate':40s} {ratio(run.failed, run.attempted):14.4f} {'ratio':10s} "
          f"({run.failed} of {run.attempted})")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print(f"record: {path.relative_to(run.root)}")
    print(json.dumps(result))
    return result


def parse_arguments(argv: list[str]):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str], root: Path) -> int:
    args = parse_arguments(argv)
    import repro
    from perfbench.program import check_configuration

    problems = check_configuration()
    if problems:
        print(f"refusing to run: {'; '.join(problems)}", file=sys.stderr)
        return 2

    source = (root / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    run = Run(args, root, workdir)
    try:
        if args.workload == "semantics":
            run_semantics(run)
        else:
            run_served(run)
    except (BenchmarkError, OSError) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(run, common.environment(root))
    return 0 if result["correct"] else 1
