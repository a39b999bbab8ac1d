"""X24 — materialized views: incremental maintenance vs full recompute.

Simulates steady serving traffic: a 10 000-row base relation takes ~1%
update batches (inserts + deletes from a seeded
:func:`repro.workloads.random_update_stream`), and after every batch a
query's current answer must be served.  Two systems process the *same*
stream:

* **incremental** — the query is a materialized view
  (:mod:`repro.views`): each batch flows through the compiled plan DAG as
  a delta (vectorized masks over the delta, persistent join indexes,
  support counts) and serving reads the maintained instance;
* **recompute** — the batch is applied to a bare mutable database and the
  query is re-evaluated from scratch through the engine (its strongest
  path: hash joins, vectorized filters, columnar kernels all on).

Three view shapes cover the maintained operator families on the hot path:

* **select** — ``σ_{2='g7'}(R)`` (1% selectivity over 10k rows);
* **project** — ``π_2(R)`` (100 distinct values, support-counted);
* **join** — ``σ_{1=3}(R × S)`` (1:1 equi-join, 10k output rows).

Acceptance: incremental maintenance ≥5× recompute on every shape.
``test_views_report`` writes ``benchmarks/BENCH_views.json`` (floors
re-checked by ``check_regressions.py`` on every tier-1 run); directly
runnable::

    PYTHONPATH=src python benchmarks/bench_views.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import write_bench_report
from repro.algebra import evaluate_expression
from repro.algebra.expressions import (
    ConstantOperand,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
)
from repro.objects.instance import DatabaseInstance
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.views import Database, views_stats
from repro.workloads import random_update_stream

#: Rows per base relation and changes per batch (~1%).
ROW_COUNT = 10_000
BATCH_SIZE = 100
BATCHES = 8

#: Acceptance floors; ``check_regressions.py`` re-validates the recorded
#: report against these on every tier-1 run.
FLOORS = {
    "speedup_incremental_select_10k": 5.0,
    "speedup_incremental_project_10k": 5.0,
    "speedup_incremental_join_10k": 5.0,
}

SCHEMA = DatabaseSchema([("R", parse_type("[U, U]")), ("S", parse_type("[U, U]"))])

#: Update-stream atom pool (kept modest so the constructive [U, U] domain
#: stays enumerable; generated rows mix freely with the seeded base rows).
ATOMS = [f"k{i}" for i in range(200)] + [f"g{j}" for j in range(100)]

R = PredicateExpression("R")
S = PredicateExpression("S")

VIEWS = {
    "select": Selection(R, SelectionCondition.eq(2, ConstantOperand("g7"))),
    "project": Projection(R, (2,)),
    "join": Selection(Product(R, S), SelectionCondition.eq(1, 3)),
}


def base_database() -> DatabaseInstance:
    """The 10k-row base: R groups 100 ways on coordinate 2 (select /
    project structure), S joins R 1:1 on coordinate 1."""
    return DatabaseInstance.build(
        SCHEMA,
        R=[(f"k{i}", f"g{i % 100}") for i in range(ROW_COUNT)],
        S=[(f"k{i}", f"h{i}") for i in range(ROW_COUNT)],
    )


def update_stream(base: DatabaseInstance):
    return random_update_stream(
        SCHEMA,
        ATOMS,
        batches=BATCHES,
        batch_size=BATCH_SIZE,
        seed=24,
        initial=base,
        insert_bias=0.5,
        enumeration_budget=120_000,
    )


def run_incremental(name: str, stream) -> dict:
    """Apply the stream to a database carrying one materialized view;
    serve the view after every batch."""
    database = Database.from_instance(base_database(), log_updates=False)
    view = database.views.define_algebra(name, VIEWS[name])
    view.value()  # serve once so steady-state timing starts warm
    sizes = []
    start = time.perf_counter()
    for batch in stream:
        database.transact(batch)
        sizes.append(len(view.value()))
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "result_sizes": sizes}


def run_recompute(name: str, stream) -> dict:
    """Apply the stream to a bare database; re-evaluate from scratch and
    serve after every batch."""
    database = Database.from_instance(base_database(), log_updates=False)
    expression = VIEWS[name]
    evaluate_expression(expression, database.snapshot())
    sizes = []
    start = time.perf_counter()
    for batch in stream:
        database.transact(batch)
        sizes.append(len(evaluate_expression(expression, database.snapshot())))
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "result_sizes": sizes}


def measure(name: str, stream) -> dict:
    incremental = run_incremental(name, stream)
    recompute = run_recompute(name, stream)
    assert incremental["result_sizes"] == recompute["result_sizes"], name
    return {
        "workload": f"{name} view over {ROW_COUNT} rows, "
        f"{BATCHES} batches of {BATCH_SIZE} changes (~1%)",
        "result_sizes": incremental["result_sizes"],
        "seconds": {
            "incremental": incremental["seconds"],
            "recompute": recompute["seconds"],
        },
        "speedup_incremental_vs_recompute": recompute["seconds"]
        / incremental["seconds"],
    }


def test_views_report():
    """Measure all three view shapes, assert the bars, emit the report."""
    base = base_database()
    stream = update_stream(base)
    before = views_stats()
    results = {name: measure(name, stream) for name in VIEWS}
    after = views_stats()
    # The measured runs must have taken the delta path, not recompute.
    assert after["delta_batches"] > before["delta_batches"]
    assert after["recompute_node_applications"] == before["recompute_node_applications"]
    metrics = {
        f"speedup_incremental_{name}_10k": results[name][
            "speedup_incremental_vs_recompute"
        ]
        for name in VIEWS
    }
    path = write_bench_report(
        "views",
        {
            "experiment": (
                "X24 materialized views: delta maintenance vs full recompute "
                "under ~1% update batches"
            ),
            "results": results,
            "metrics": metrics,
            "floors": FLOORS,
        },
    )
    for metric, floor in FLOORS.items():
        assert metrics[metric] >= floor, (path, metric, metrics[metric])


if __name__ == "__main__":
    test_views_report()
    for line in Path(__file__).with_name("BENCH_views.json").read_text().splitlines():
        print(line)
