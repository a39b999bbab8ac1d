"""X25 — engineering ablation: fused pipeline code generation.

Measures the engine's pipelined plan fragments with codegen **on**
(maximal Scan→Filter→Project chains and hash-join probe loops fused into
one compiled Python function per fragment, :mod:`repro.engine.codegen`)
versus **off** (the historical interpreting executor: one generator per
operator, chained).  Vectorized filters are pinned **off** in both modes
so the *only* variable is fusion — the mask kernels are benchmarked
separately by ``bench_filter.py``, which symmetrically pins codegen off;
interning and columnar storage stay at their defaults:

* **scan→filter→project over 10k rows** — ``π_3(σ_{2='y'}(R))`` on a
  10 000-row flat instance, 50% selectivity, 97 distinct projected
  values.  The interpreter walks the condition tree per row, yields each
  survivor through two generator frames and constructs a ``TupleValue``
  per survivor before the projection dedups; the fused fragment runs one
  flat loop with the predicate inlined as a comparison expression and
  constructs values only for rows that survive the raw-component dedup
  — 97 constructions instead of 5 000;
* **hash-join probe over 10k×4k rows** — ``π_2(σ_{1≠4}(R ⋈_{2=3} S))``:
  1k join keys with 4 build rows each, so the 10k-row probe side emits
  40k matched pairs into a cross-side residual and a projection.  The
  build side is indexed identically in both modes, but the interpreter
  yields every pair through the probe generator, combines it into a
  ``TupleValue``, re-walks the residual condition tree and hands the
  survivors to a separate projection generator, while the fused fragment
  probes the dict inline, applies the residual as an inlined comparison
  inside the probe loop and constructs values only for the 1k rows that
  survive the projection's raw-component dedup.

Each run evaluates the full engine pipeline (compile + execute), as a
serving system would; plan and fragment caches warm on the first
evaluation and are reused after, matching steady-state traffic (the
fragment cache is process-wide and keyed on emitted source, so the
measured loop never re-compiles).  Acceptance: ≥2× on both workloads
(≥3× recorded in practice).  ``test_codegen_report`` writes
``benchmarks/BENCH_codegen.json`` (floors re-checked by
``check_regressions.py`` on every tier-1 run); directly runnable::

    PYTHONPATH=src python benchmarks/bench_codegen.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import write_bench_report
from repro.algebra import (
    PredicateExpression,
    Selection,
    SelectionCondition,
    evaluate_expression,
    vectorized_filters,
)
from repro.algebra.expressions import ConstantOperand, Product, Projection
from repro.engine import codegen, codegen_stats
from repro.objects.instance import DatabaseInstance
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema

#: Rows per probe-side instance (the ISSUE's 10k-row pipeline workloads).
ROW_COUNT = 10_000

#: Build-side rows for the join workload.
BUILD_COUNT = 1_000

#: Acceptance floors; ``check_regressions.py`` re-validates the recorded
#: report against these on every tier-1 run.
FLOORS = {
    "speedup_codegen_chain_10k": 2.0,
    "speedup_codegen_join_probe_10k": 2.0,
}

CHAIN_SCHEMA = DatabaseSchema([("R", parse_type("[U, U, U]"))])
JOIN_SCHEMA = DatabaseSchema(
    [("R", parse_type("[U, U]")), ("S", parse_type("[U, U]"))]
)


def _best_of(function, repeats: int = 5) -> float:
    """Best-of-N wall clock, retaining each run's result while the next
    executes (double-buffered, as a serving system holding its current
    answer would: re-evaluation re-finds the live canonical result values
    instead of rebuilding them)."""
    best = float("inf")
    retained = [None]
    for _ in range(repeats):
        start = time.perf_counter()
        current = function()
        best = min(best, time.perf_counter() - start)
        retained[0] = current  # keeps the last answer alive
    return best


def chain_workload(rows: int = ROW_COUNT):
    """π_3(σ_{2='y'}(R)): 50% selectivity, 97 distinct projected values."""
    database = DatabaseInstance.build(
        CHAIN_SCHEMA,
        R=[(f"k{i:05d}", "y" if i % 2 else "n", f"g{i % 97:03d}") for i in range(rows)],
    )
    condition = SelectionCondition.eq(2, ConstantOperand("y"))
    expression = Projection(Selection(PredicateExpression("R"), condition), (3,))
    return expression, database


def join_workload(rows: int = ROW_COUNT, build: int = BUILD_COUNT):
    """π_2(σ_{1≠4}(R ⋈_{2=3} S)): a 10k-row probe side against 1k join
    keys with 4 build rows per key — 40k matched pairs pushed through a
    cross-side residual (``negation(eq(1, 4))``, not an equality, so the
    optimizer keeps it in the probe loop rather than extracting a second
    hash key) and a projection onto the join key.  The per-pair work
    (yield, combine into a ``TupleValue``, residual tree walk, project)
    is where the interpreter pays; the fused probe loop checks the
    residual inline and constructs only the 1k dedup survivors."""
    database = DatabaseInstance.build(
        JOIN_SCHEMA,
        R=[(f"p{i % 10}", f"j{i % build:04d}") for i in range(rows)],
        S=[(f"j{i % build:04d}", f"p{(i + i // build) % 10}") for i in range(4 * build)],
    )
    condition = SelectionCondition.conjunction(
        SelectionCondition.eq(2, 3),
        SelectionCondition.negation(SelectionCondition.eq(1, 4)),
    )
    expression = Projection(
        Selection(Product(PredicateExpression("R"), PredicateExpression("S")), condition),
        (2,),
    )
    return expression, database


def measure_pipeline(name: str, expression, database) -> dict:
    """Steady-state engine evaluation of *expression*, fused vs interpreted.

    Vectorized filters are pinned off in both modes (see module docstring);
    the fused mode asserts via the runtime counters that fragments really
    ran — a silent wholesale fallback would invalidate the comparison.
    """
    seconds = {}
    cardinality = {}
    with vectorized_filters(False):
        for mode, label in ((True, "fused"), (False, "interpreted")):
            with codegen(mode):
                run = lambda: evaluate_expression(expression, database)
                before = codegen_stats()
                cardinality[label] = len(run())  # warm plan/fragment caches
                if mode:
                    fused = codegen_stats()["fragments_fused"] - before["fragments_fused"]
                    assert fused > 0, f"{name}: fragment fell back to the interpreter"
                seconds[label] = _best_of(run)
    assert cardinality["fused"] == cardinality["interpreted"]
    return {
        "workload": name,
        "result_cardinality": cardinality["fused"],
        "seconds": seconds,
        "speedup_fused_vs_interpreted": seconds["interpreted"] / seconds["fused"],
    }


def test_codegen_report():
    """Measure both modes on every workload, assert the bars, emit the report."""
    chain = measure_pipeline(
        f"engine π_3(σ_(2='y')(R)) over {ROW_COUNT} rows (50% selectivity, 97 groups)",
        *chain_workload(),
    )
    join = measure_pipeline(
        f"engine π_2(σ_(1≠4)(R ⋈_(2=3) S)) over {ROW_COUNT}×{4 * BUILD_COUNT} rows "
        "(40k probe pairs, 1k dedup survivors)",
        *join_workload(),
    )
    metrics = {
        "speedup_codegen_chain_10k": chain["speedup_fused_vs_interpreted"],
        "speedup_codegen_join_probe_10k": join["speedup_fused_vs_interpreted"],
    }
    path = write_bench_report(
        "codegen",
        {
            "experiment": "X25 fused pipeline codegen: compiled fragments on vs off",
            "results": {
                "scan_filter_project": chain,
                "join_probe": join,
            },
            "metrics": metrics,
            "floors": FLOORS,
        },
    )
    for metric, floor in FLOORS.items():
        assert metrics[metric] >= floor, (path, metric, metrics[metric])


if __name__ == "__main__":
    test_codegen_report()
    for line in Path(__file__).with_name("BENCH_codegen.json").read_text().splitlines():
        print(line)
