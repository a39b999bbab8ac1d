"""Fast, timing-free checks of the benchmark's own logic: its statistics,
inputs, span analysis, answer checks and its agreement with
``BENCHMARK.json``.  Nothing here measures time or starts a process."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import cli, common, data, served, tracing
from perfbench.semantics import Suite, new_window, run_pass

ROOT = Path(__file__).resolve().parent.parent


def test_percentiles_are_nearest_rank_with_counts_beyond():
    values = list(range(1, 1001))
    assert common.percentile(values, 0.5) == 500
    assert common.percentile(values, 0.99) == 990
    assert common.beyond(1000, 0.99) == 10
    assert common.median([3.0, 1.0, 2.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        common.percentile([], 0.5)


def test_speed_factors_take_the_median_kernel_time_nearby():
    samples = [(0.0, 0.003), (0.5, 0.003), (1.0, 0.006), (5.0, 0.0015)]
    reference = common.REFERENCE_SECONDS
    assert common.speed_factors(samples, [0.2, 4.5, 10.0]) == [
        reference / 0.003, reference / 0.0015, reference / 0.0015,
    ]
    assert common.reference_kernel() > 0


def test_count_trigger_fires_once_at_its_count():
    fired = []
    trigger = served.CountTrigger(3, lambda: fired.append(True))
    for _ in range(5):
        trigger.tick()
    assert fired == [True]


def test_peak_rss_is_read_from_proc():
    import os

    assert common.peak_rss_kb(os.getpid()) >= common.process_usage()["maxrss_kb"] // 2 > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == cli.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == cli.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(cli.GATED_WORKLOADS)
    assert set(cli.GATED_WORKLOADS) <= set(cli.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_served_inputs_depend_only_on_the_seed():
    assert data.rw_rows(3) == data.rw_rows(3)
    assert data.rw_rows(3) != data.rw_rows(4)
    assert data.adhoc_rows(3) == data.adhoc_rows(3)
    assert len(data.rw_rows(3)["F"]) == len(set(data.rw_rows(3)["F"])) == data.FACT_ROWS
    assert len(data.adhoc_rows(3)["F"]) == len(set(data.adhoc_rows(3)["F"])) == data.FACT_ROWS


def test_rw_writes_are_effective_in_order():
    rows = data.rw_rows(5)["F"]
    writes = data.rw_writes(5, rows, 60)
    assert len(writes) == 60
    model = set(rows)
    for write in writes:
        if write.verb == "INSERT":
            assert not model & set(write.rows)
            model.update(write.rows)
        else:
            assert set(write.rows) <= model
            model.difference_update(write.rows)
        assert write.line.startswith(write.verb.encode()) and write.line.endswith(b"\n")


def test_adhoc_parameterizations_are_distinct_and_never_shared():
    queries = data.adhoc_queries()
    names = data.adhoc_names()
    assert len(names) == len(set(names)) == len(queries) == 21_600
    assert sorted(data.adhoc_order(1)) == sorted(names)
    assert data.adhoc_order(1) != data.adhoc_order(2)
    assert len(data.ADHOC_PROJECTIONS) == len(set(data.ADHOC_PROJECTIONS)) == 216
    # One expression object per name: no two names share a plan-cache key.
    assert len({id(expression) for expression in queries.values()}) == len(queries)
    name = names[123]
    assert str(data.adhoc_expression(name)) == str(queries[name])


def test_plain_python_join_matches_the_engine():
    from repro.algebra.evaluation import evaluate_expression
    from repro.objects.instance import DatabaseInstance

    rows = data.adhoc_rows(2)
    database = DatabaseInstance(data.ADHOC_SCHEMA, rows)
    for name in data.adhoc_order(2)[:3]:
        answer = evaluate_expression(data.adhoc_expression(name), database)
        engine_rows = {tuple(atom.value for atom in value.components) for value in answer.values}
        assert engine_rows == data.adhoc_answer(rows, name)
        assert engine_rows


def test_self_time_and_coverage_of_a_span_tree():
    spans = [
        ["Database.transact", 0.0, 10.0, -1, "0:1", None],
        ["WriteAheadLog.append", 1.0, 4.0, 0, "0:1", None],
        ["ViewCatalog.maintain", 5.0, 7.0, 0, "0:1", None],
        ["encode_ok", 12.0, 13.0, -1, "0:1", None],
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 2.0, 1.0]
    assert tracing.covered_seconds(spans) == 11.0
    layers = {"Database.transact": "views", "ViewCatalog.maintain": "views",
              "WriteAheadLog.append": "reliability", "encode_ok": "serving"}
    assert tracing.layer_self_seconds(layers, spans) == {
        "views": 7.0, "reliability": 3.0, "serving": 1.0,
    }
    assert tracing.request_extents(spans) == {"0:1": (0.0, 13.0)}


def test_requests_match_the_connection_whose_intervals_contain_them():
    # Session 0 served connection 1 and session 1 served connection 0;
    # the intervals of the two connections overlap in time.
    client = [
        [(0.0, 10.0), (20.0, 30.0)],
        [(1.0, 2.0), (3.0, 4.0)],
    ]
    extents = {
        "0:1": (1.2, 1.8), "0:2": (3.1, 3.9),
        "1:1": (5.0, 9.0), "1:2": (21.0, 29.0),
    }
    assert tracing.match_requests(client, extents) == {
        (1, 0): "0:1", (1, 1): "0:2", (0, 0): "1:1", (0, 1): "1:2",
    }


def test_overlap_with_sorted_intervals():
    commits = [(1.0, 2.0), (5.0, 6.0)]
    assert tracing.overlaps_any(commits, 1.5, 1.6)
    assert tracing.overlaps_any(commits, 0.0, 1.5)
    assert not tracing.overlaps_any(commits, 2.5, 4.5)
    assert not tracing.overlaps_any(commits, 7.0, 8.0)


def test_wrappers_record_spans_and_restore_the_originals():
    import repro.engine
    from repro.fixpoint.builders import PARENT_SCHEMA, transitive_closure_program
    from repro.fixpoint.programs import Program
    from repro.objects.instance import DatabaseInstance

    originals = (repro.engine.run_expression, Program.run)
    recorder = tracing.SpanRecorder(tracing.SEMANTICS_TARGETS, served=False)
    recorder.install()
    try:
        recorder.request = "0:1"
        database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b"), ("b", "c")])
        result = transitive_closure_program().run(database)
    finally:
        recorder.uninstall()
    assert (repro.engine.run_expression, Program.run) == originals
    assert len(result.output) == 3
    names = [span[0] for span in recorder.spans]
    assert names[0] == "Program.run" and "run_expression" in names
    assert all(span[4] == "0:1" for span in recorder.spans)
    root_children = [span for span in recorder.spans if span[3] == 0]
    assert root_children and all(span[1] >= recorder.spans[0][1] for span in root_children)


def test_wal_record_encoding_counts_as_reliability_time(tmp_path):
    from repro.reliability import create_durable_database

    database = create_durable_database(
        data.RW_SCHEMA, {"F": [("x00", "x01", "x02")], "DG": []},
        directory=tmp_path / "db", fsync="never", log_updates=False,
    )
    recorder = tracing.SpanRecorder(tracing.SERVED_TARGETS, served=True)
    recorder.install()
    try:
        database.insert_rows("F", [("x03", "x04", "x05")])
    finally:
        recorder.uninstall()
        database.close()
    names = [span[0] for span in recorder.spans]
    assert names[:3] == ["Database.transact", "DurabilityController.log_batch",
                         "WriteAheadLog.append"]
    assert [span[3] for span in recorder.spans[:3]] == [-1, 0, 1]
    assert recorder.layers["DurabilityController.log_batch"] == "reliability"


def test_cheap_suite_entries_answer_correctly_and_agree():
    suite = Suite(7)
    suite.rotation = [
        entry for entry in suite.entries
        if entry.layer in ("fixpoint", "datalog") or entry.name == "colourable_cycle4"
    ]
    window = new_window(suite)
    run_pass(suite, window)
    assert window["failures"] == []
    assert window["ops"] == 3


def test_a_wrong_answer_is_a_failure():
    suite = Suite(7)
    datalog = next(entry for entry in suite.entries if entry.layer == "datalog")
    datalog.expected = frozenset()
    suite.rotation = [entry for entry in suite.entries if entry.layer in ("fixpoint", "datalog")]
    window = new_window(suite)
    run_pass(suite, window)
    assert len(window["failures"]) == 1


def test_ablation_variables_are_detected(monkeypatch):
    for name in common.ablation_variables():
        monkeypatch.delenv(name)
    assert common.ablation_variables() == []
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert common.ablation_variables() == ["REPRO_TRACE"]


def test_arguments_are_validated():
    args = cli.parse_arguments(["--workload", "semantics", "--seed", "3", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("semantics", 3, 30, 1)
    with pytest.raises(SystemExit):
        cli.parse_arguments(["--workload", "nope", "--seed", "1"])
    with pytest.raises(SystemExit):
        cli.parse_arguments(["--workload", "semantics", "--seed", "1", "--seconds", "0"])
