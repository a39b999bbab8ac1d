"""X27 — the serving front door: concurrent sessions at a 99:1 mix.

Drives the full production shape end to end: a
:class:`repro.serving.server.DatabaseServer` wraps an MVCC database with
maintained views, and hundreds of concurrent asyncio client sessions
talk to it over the real TCP wire protocol — each session pinning
epochs, reading base predicates and maintained views, and (1% of the
time) pushing writes through the serialized writer queue.  Sessions
re-pin as they read while the write stream advances the database under
them.  Every request crosses the socket, the line parser, the epoch
resolution and the JSON result encoder, so ``queries_per_second``
measures the served path, not an in-process shortcut.

Acceptance: the served throughput clears 1 000 requests/second on
workstation hardware at the 99:1 read:write mix; the recorded floor is
set far lower (CI runners are slow and shared) and re-checked by
``check_regressions.py`` on every tier-1 run.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import write_bench_report
from repro.algebra.expressions import (
    ConstantOperand,
    PredicateExpression,
    Projection,
    Selection,
    SelectionCondition,
)
from repro.serving import run_workload
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.views import Database
from repro.workloads import random_database

#: Base rows per predicate, concurrent sessions, requests per session.
ROW_COUNT = 400
SESSIONS = 200
OPERATIONS = 50

#: The ISSUE's read:write mix.
READ_RATIO = 0.99

#: Conservative CI floor for the recorded throughput; the acceptance
#: bar (>= 1000 req/s at the 99:1 mix) is asserted on the machine that
#: records the report, not re-timed by the gate.
FLOORS = {
    "queries_per_second_mvcc_99to1": 250.0,
}

SCHEMA = DatabaseSchema([("R", parse_type("[U, U]"))])
ATOMS = [f"k{i}" for i in range(120)]

R = PredicateExpression("R")
VIEWS = {
    "groups": Projection(R, (2,)),
    "hot": Selection(R, SelectionCondition.eq(2, ConstantOperand("k7"))),
}


def build_database() -> Database:
    base = random_database(SCHEMA, ATOMS, count=ROW_COUNT, seed=25)
    database = Database.from_instance(base, log_updates=False)
    for name, expression in VIEWS.items():
        database.views.define_relational(name, expression)
    return database


def run_configuration() -> dict:
    totals = run_workload(
        build_database(),
        sessions=SESSIONS,
        operations=OPERATIONS,
        seed=25,
        read_ratio=READ_RATIO,
        views=list(VIEWS),
        atoms=ATOMS,
        repin_every=20,
    )
    assert totals["errors"] == 0, totals
    assert totals["requests"] == SESSIONS * OPERATIONS
    return totals


def test_serving_report():
    served = run_configuration()
    assert served["writes"] > 0 and served["reads"] > 50 * served["writes"]
    metrics = {
        "queries_per_second_mvcc_99to1": served["queries_per_second"],
        "read_write_ratio": served["read_write_ratio"],
    }
    path = write_bench_report(
        "serving",
        {
            "experiment": (
                "X27 serving front door: concurrent wire-protocol sessions at a "
                "99:1 read:write mix over MVCC epochs"
            ),
            "results": {
                "mvcc": {
                    "sessions": served["sessions"],
                    "requests": served["requests"],
                    "reads": served["reads"],
                    "writes": served["writes"],
                    "elapsed_seconds": served["elapsed_seconds"],
                    "final_epoch": served["final_epoch"],
                    "queries_per_second": served["queries_per_second"],
                },
                "workload": (
                    f"{SESSIONS} concurrent sessions x {OPERATIONS} requests over "
                    f"{ROW_COUNT}-row base, read_ratio={READ_RATIO}, 2 maintained views"
                ),
            },
            "metrics": metrics,
            "floors": FLOORS,
        },
    )
    for metric, floor in FLOORS.items():
        assert metrics[metric] >= floor, (path, metric, metrics[metric])


if __name__ == "__main__":
    test_serving_report()
    for line in Path(__file__).with_name("BENCH_serving.json").read_text().splitlines():
        print(line)
