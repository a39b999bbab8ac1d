"""The program process: runs the system under test for one workload.

The client (:mod:`perfbench.cli`) starts it as ``python -m perfbench.program``
with the repository's ``src`` on ``PYTHONPATH``.  It builds the workload's
inputs from the seed — for the served workloads a
:class:`~repro.serving.server.DatabaseServer` on a free localhost port, for
``semantics`` the query suite plus one warm-up pass — collects the heap,
and prints one handshake line ``READY {json}``.  After that it obeys
one-line commands on standard input and answers each with ``OK {json}``
(or ``ERR <message>``):

``GC``            collect the heap;
``TRACE on|off``  install or remove the tracing wrappers (:mod:`perfbench.tracing`);
``USAGE``         this process's CPU seconds and peak RSS;
``DUMP <path>``   write the recorded spans to *path*;
``SPEED``         (served) the reference-kernel samples taken so far;
``RUN <seconds>`` (``semantics`` only) run one timed window, answer its results;
``EXIT``          stop serving and exit.

Served workloads execute every command on the event loop thread, between
requests, so wrappers are never swapped under a running call.  There the
reference kernel (:func:`perfbench.common.reference_kernel`) also runs
every :data:`SPEED_PERIOD` seconds, to follow the host's speed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import threading
import time
from pathlib import Path

from perfbench import data
from perfbench.common import ablation_variables, process_usage, reference_kernel
from perfbench.tracing import SEMANTICS_TARGETS, SERVED_TARGETS, SpanRecorder

#: Seconds between two reference-kernel samples in the server process (one
#: sample blocks the event loop for 1.5 to 3 ms).
SPEED_PERIOD = 0.25


def reply(kind: str, payload) -> None:
    sys.stdout.write(f"{kind} {json.dumps(payload)}\n")
    sys.stdout.flush()


def check_configuration() -> list[str]:
    """Problems that would make this an ablated or traced program: a set
    ``REPRO_*`` variable, tracing on, or any switch off its default."""
    from repro.algebra.vectorized import vectorized_enabled
    from repro.engine import codegen_enabled, joinorder_enabled
    from repro.objects.columnar import columnar_enabled
    from repro.objects.values import interning_enabled
    from repro.observability.trace import tracing_enabled
    from repro.reliability import wal_enabled
    from repro.views.database import mvcc_enabled

    problems = [f"{name} is set" for name in ablation_variables()]
    if tracing_enabled():
        problems.append("program tracing is on")
    switches = {
        "codegen": codegen_enabled,
        "join ordering": joinorder_enabled,
        "columnar storage": columnar_enabled,
        "vectorized filters": vectorized_enabled,
        "interning": interning_enabled,
        "mvcc": mvcc_enabled,
        "wal": wal_enabled,
    }
    problems.extend(f"{name} is off" for name, enabled in switches.items() if not enabled())
    return problems


def common_command(command: str, argument: str, recorder: SpanRecorder):
    """The commands every workload shares; ``None`` for an unknown one."""
    if command == "GC":
        gc.collect()
        return {}
    if command == "TRACE":
        if argument == "on":
            recorder.install()
        else:
            recorder.uninstall()
        return {}
    if command == "USAGE":
        return process_usage()
    if command == "DUMP":
        recorder.dump(argument)
        return {"spans": len(recorder.spans)}
    return None


def build_database(workload: str, seed: int, workdir: Path):
    """The served database (durable for ``serve_rw``) and its named queries."""
    from repro.reliability import create_durable_database
    from repro.views import Database

    if workload == "serve_rw":
        database = create_durable_database(
            data.RW_SCHEMA,
            data.rw_rows(seed),
            directory=workdir,
            fsync="always",
            log_updates=False,
        )
        for name, expression in data.RW_VIEWS.items():
            database.views.define_relational(name, expression)
        return database, {}
    database = Database(data.ADHOC_SCHEMA, data.adhoc_rows(seed), log_updates=False)
    return database, data.adhoc_queries()


def serve(workload: str, seed: int, workdir: Path) -> int:
    from repro.serving.server import DatabaseServer

    database, queries = build_database(workload, seed, workdir)
    server = DatabaseServer(database, queries=queries)
    recorder = SpanRecorder(SERVED_TARGETS, served=True)

    samples: list[tuple[float, float]] = []

    async def sample_speed() -> None:
        while True:
            samples.append((time.perf_counter(), reference_kernel()))
            await asyncio.sleep(SPEED_PERIOD)

    async def handle(line: str):
        command, _, argument = line.partition(" ")
        if command == "SPEED":
            return {"samples": samples}
        return common_command(command, argument, recorder)

    def control(loop: asyncio.AbstractEventLoop, finished: asyncio.Future) -> None:
        for line in sys.stdin:
            line = line.strip()
            if line == "EXIT":
                break
            try:
                result = asyncio.run_coroutine_threadsafe(handle(line), loop).result()
            except Exception as error:  # noqa: BLE001 — reported to the client
                reply("ERR", f"{type(error).__name__}: {error}")
                continue
            if result is None:
                reply("ERR", f"unknown command {line!r}")
            else:
                reply("OK", result)
        loop.call_soon_threadsafe(finished.set_result, None)

    async def main() -> None:
        await server.start()
        sampler = asyncio.ensure_future(sample_speed())
        try:
            loop = asyncio.get_running_loop()
            finished = loop.create_future()
            gc.collect()
            reply("READY", {"port": server.port, "pid": os.getpid()})
            thread = threading.Thread(target=control, args=(loop, finished), daemon=True)
            thread.start()
            await finished
            thread.join()
        finally:
            sampler.cancel()
            try:
                await sampler
            except asyncio.CancelledError:
                pass
            await server.stop()
            database.close()

    asyncio.run(main())
    reply("OK", {"exited": True})
    return 0


def semantics(seed: int) -> int:
    from perfbench.semantics import Suite, new_window, run_pass, run_window

    suite = Suite(seed)
    warmup = new_window(suite)
    run_pass(suite, warmup)
    if warmup["failures"]:
        reply("ERR", warmup["failures"])
        return 1
    recorder = SpanRecorder(SEMANTICS_TARGETS, served=False)
    gc.collect()
    reply("READY", {"pid": os.getpid(), "warmup_ops": warmup["ops"]})
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "EXIT":
            break
        try:
            if command == "RUN":
                result = run_window(suite, float(argument), recorder)
            else:
                result = common_command(command, argument, recorder)
        except Exception as error:  # noqa: BLE001 — reported to the client
            reply("ERR", f"{type(error).__name__}: {error}")
            continue
        if result is None:
            reply("ERR", f"unknown command {line.strip()!r}")
        else:
            reply("OK", result)
    reply("OK", {"exited": True})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("serve_rw", "serve_adhoc", "semantics")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    problems = check_configuration()
    if problems:
        reply("ERR", problems)
        return 2
    reference_kernel()  # builds the kernel's table before the first timed sample
    if args.workload == "semantics":
        return semantics(args.seed)
    return serve(args.workload, args.seed, args.workdir)


if __name__ == "__main__":
    sys.exit(main())
