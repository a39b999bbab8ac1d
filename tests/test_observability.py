"""Observability suite: spans, trace propagation, metrics, query log.

The central contracts:

* **span trees** — a served ``QUERY`` produces one retrievable trace
  whose ``serve.*`` root parents the engine spans, which parent the
  per-plan-node spans carrying estimated/actual cardinalities;
* **trace propagation** — a served write's trace id crosses the writer
  queue into ``db.transact``, its phase spans, and one ``view.maintain``
  span per maintained view;
* **histogram math** — log-bucketed observation lands in the right
  bucket, percentiles walk the cumulative counts, the exposition is
  parseable Prometheus text;
* **query log** — one schema-complete record per engine query, slow-flag
  thresholding, JSONL round-trip;
* **bounding** — the trace ring, per-trace span cap and query log are all
  FIFO-bounded;
* **off is off** — with tracing off, no observability counter moves and
  no span is recorded, across the tracing × codegen × columnar cube, and
  answers are identical in every cell (tracing is the eighth switch
  family; this is its differential sweep).

Selectable standalone with ``pytest -m observability``.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.algebra.expressions import (
    ConstantOperand,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
)
from repro.engine import clear_plan_cache, plan_structural_key, run_expression
from repro.engine.codegen import codegen
from repro.engine.joinorder import join_ordering
from repro.errors import ServingError
from repro.observability import (
    METRICS,
    clear_query_log,
    clear_traces,
    export_query_log,
    export_traces,
    get_trace,
    latest_trace,
    maybe_span,
    observability_stats,
    parse_exposition,
    query_log,
    recent_trace_ids,
    render_span_tree,
    set_slow_query_threshold,
    set_tracing,
    slow_queries,
    span,
    tracing,
    tracing_enabled,
)
from repro.observability.metrics import BUCKET_BOUNDS, Histogram
from repro.observability.querylog import QUERY_LOG_ENTRIES
from repro.observability.trace import (
    _OBSERVABILITY,
    MAX_SPANS_PER_TRACE,
    TRACE_RING_ENTRIES,
)
from repro.serving import DatabaseServer, ServingClient, parse_request
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.views import Database

pytestmark = pytest.mark.observability

SCHEMA = DatabaseSchema([("R", parse_type("[U, U]")), ("S", parse_type("[U, U]"))])


def _reset_state() -> None:
    clear_traces()
    clear_query_log()
    METRICS.reset()
    for key in _OBSERVABILITY.stats:
        _OBSERVABILITY.stats[key] = 0


@pytest.fixture(autouse=True)
def _clean_observability():
    """Each test starts from empty rings, registries and counters and
    restores the process-wide switch afterwards (the suite must run
    identically under ``REPRO_TRACE=1``, where the ambient default is on)."""
    previous = set_tracing(False)
    _reset_state()
    yield
    set_tracing(previous)
    _reset_state()


def _database() -> Database:
    db = Database(SCHEMA)
    db.insert("R", [(f"k{i}", f"j{i % 3}") for i in range(6)])
    db.insert("S", [(f"j{i}", f"v{i}") for i in range(3)])
    return db


def _join_expression():
    condition = SelectionCondition.eq(2, 3)
    return Projection(
        Selection(Product(PredicateExpression("R"), PredicateExpression("S")), condition),
        (1, 4),
    )


def _chain_expression():
    """A fusable scan→filter→project chain (the X25 bench shape)."""
    condition = SelectionCondition.eq(2, ConstantOperand("j1"))
    return Projection(Selection(PredicateExpression("R"), condition), (1,))


def _span_index(spans):
    return {record["span_id"]: record for record in spans}


# -- switch + span basics ---------------------------------------------------------

def test_tracing_switch_mirrors_the_family_idiom():
    assert not tracing_enabled()
    assert set_tracing(True) is False
    assert tracing_enabled()
    assert set_tracing(False) is True
    with tracing(True):
        assert tracing_enabled()
    assert not tracing_enabled()


def test_spans_disabled_are_free_and_none():
    with span("anything") as opened:
        assert opened is None
    assert maybe_span("anything").__class__.__name__ == "_NullContext"
    assert latest_trace() is None
    assert observability_stats()["spans_started"] == 0


def test_nested_spans_share_a_trace_and_parent_correctly():
    with tracing(True):
        with span("root", kind="test") as root:
            with span("child") as child:
                with span("grandchild") as grandchild:
                    pass
            with span("sibling") as sibling:
                pass
    assert child.trace_id == root.trace_id == sibling.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    spans = get_trace(root.trace_id)
    assert [record["name"] for record in spans] == [
        "grandchild", "child", "sibling", "root",
    ]
    for record in spans:
        assert record["duration"] >= 0.0
    tree = render_span_tree(spans)
    assert tree.splitlines()[0].startswith("root")
    assert "    grandchild" in tree


def test_trace_ring_and_span_cap_are_bounded():
    with tracing(True):
        for index in range(TRACE_RING_ENTRIES + 5):
            with span(f"trace-{index}"):
                pass
        with span("big") as big:
            for _ in range(MAX_SPANS_PER_TRACE + 10):
                with span("leaf"):
                    pass
    stats = observability_stats()
    # 134 roots finished against a 128-entry ring: exactly 6 evictions.
    assert stats["traces_evicted"] == 6
    ids = recent_trace_ids(TRACE_RING_ENTRIES + 10)
    assert len(ids) == TRACE_RING_ENTRIES
    assert ids[0] == big.trace_id
    assert get_trace(ids[-1]) is not None
    # The cap keeps the first MAX_SPANS_PER_TRACE finished spans; the 10
    # overflow leaves and the root itself (which finished last) dropped.
    assert len(get_trace(big.trace_id)) == MAX_SPANS_PER_TRACE
    assert stats["spans_dropped"] == 11


def test_export_traces_jsonl_round_trip(tmp_path):
    with tracing(True):
        with span("exported", tag="x"):
            with span("inner"):
                pass
    path = tmp_path / "traces.jsonl"
    assert export_traces(path) == 1
    lines = path.read_text().splitlines()
    payload = json.loads(lines[0])
    assert payload["trace_id"] == latest_trace()[0]
    assert [s["name"] for s in payload["spans"]] == ["inner", "exported"]
    assert payload["spans"][1]["attributes"] == {"tag": "x"}


# -- histogram math ---------------------------------------------------------------

def test_histogram_bucket_math():
    histogram = Histogram("t")
    # Bounds double from 1µs; a value exactly on a bound stays in its
    # bucket (le semantics), epsilon above it moves one up.
    histogram.observe(1e-6)
    assert histogram.counts[0] == 1
    histogram.observe(2e-6)
    assert histogram.counts[1] == 1
    histogram.observe(2.1e-6)
    assert histogram.counts[2] == 1
    histogram.observe(1.0)  # 2^20 µs bucket
    assert histogram.counts[20] == 1
    histogram.observe(1e9)  # beyond the last bound: +Inf bucket
    assert histogram.counts[len(BUCKET_BOUNDS)] == 1
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(1.0 + 1e9 + 5.1e-6, rel=1e-6)


def test_histogram_percentiles_and_summary():
    histogram = Histogram("t")
    for _ in range(98):
        histogram.observe(3e-6)  # bucket le=4e-6
    histogram.observe(0.5)       # bucket le=0.524288
    histogram.observe(1e9)       # +Inf
    assert histogram.percentile(0.50) == pytest.approx(4e-6)
    assert histogram.percentile(0.98) == pytest.approx(4e-6)
    assert histogram.percentile(0.99) == pytest.approx(BUCKET_BOUNDS[19])
    assert histogram.percentile(1.0) == math.inf
    summary = histogram.summary()
    assert summary["count"] == 100 and summary["p50"] == pytest.approx(4e-6)
    assert Histogram("empty").percentile(0.5) is None


def test_exposition_renders_and_parses():
    METRICS.histogram("repro_test_seconds", labels={"verb": "GET"}).observe(3e-6)
    METRICS.set_gauge("repro_test_gauge", lambda: 7, "a test gauge")
    METRICS.set_gauge("repro_bad_gauge", lambda: 1 / 0, "always fails")
    text = METRICS.render_exposition()
    parsed = parse_exposition(text)
    assert parsed["#types"]["repro_test_seconds"] == "histogram"
    assert parsed["#types"]["repro_test_gauge"] == "gauge"
    assert parsed["repro_test_gauge"][""] == 7.0
    assert "repro_bad_gauge" not in parsed  # one bad gauge never kills METRICS
    # Cumulative buckets: everything at or above le=4e-6 counts the one
    # observation, and the +Inf bucket equals _count.
    buckets = parsed["repro_test_seconds_bucket"]
    assert buckets['{verb="GET",le="4e-06"}'] == 1.0
    assert buckets['{verb="GET",le="+Inf"}'] == 1.0
    assert parsed["repro_test_seconds_count"]['{verb="GET"}'] == 1.0
    # The eight counter families ride along.
    assert parsed["#types"]["repro_observability_spans_started_total"] == "counter"
    assert parsed["#types"]["repro_codegen_fragments_fused_total"] == "counter"
    assert observability_stats()["metrics_expositions"] == 1


# -- the engine: node spans + query log -------------------------------------------

def test_engine_trace_has_node_spans_with_estimates():
    db = _database()
    expression = _join_expression()
    with tracing(True), codegen(False):
        result = run_expression(expression, db.snapshot())
    assert len(result) == 6
    trace_id, spans = latest_trace()
    index = _span_index(spans)
    by_name = {record["name"]: record for record in spans}
    root = by_name["engine.query"]
    assert root["parent_id"] is None and root["attributes"]["act_rows"] == 6
    assert by_name["engine.compile"]["parent_id"] == root["span_id"]
    join_spans = [r for r in spans if r["name"] == "plan.HashJoin"]
    assert join_spans, "expected a HashJoin node span"
    join = join_spans[0]
    assert join["attributes"]["act_rows"] == 6
    assert join["attributes"]["est_rows"] is not None
    # Node spans chain up to the engine root through plan.* parents.
    parent = index[join["parent_id"]]
    while parent["name"].startswith("plan."):
        parent = index[parent["parent_id"]]
    assert parent["name"] == "engine.query"
    # Scans parent under the join that pulls them.
    scans = [r for r in spans if r["name"] == "plan.Scan"]
    assert len(scans) == 2
    assert all(index[s["parent_id"]]["name"] == "plan.HashJoin" for s in scans)


@pytest.mark.parametrize("warm", [False, True], ids=["cold-cache", "warm-cache"])
def test_traced_plans_carry_estimates_without_join_ordering(warm):
    """Statistics are built for a traced compile even with join ordering
    off, so every ``plan.*`` span carries ``est_rows`` — also when an
    untraced run of the same expression compiled and cached its plan
    first."""
    db = _database()
    expression = _join_expression()
    with join_ordering(False), codegen(False):
        if warm:
            run_expression(expression, db.snapshot())
        with tracing(True):
            result = run_expression(expression, db.snapshot())
    assert len(result) == 6
    _, spans = latest_trace()
    plan_spans = [record for record in spans if record["name"].startswith("plan.")]
    assert sorted(record["name"] for record in plan_spans) == [
        "plan.HashJoin", "plan.Project", "plan.Scan", "plan.Scan",
    ]
    for record in plan_spans:
        assert record["attributes"].get("est_rows") is not None, record["name"]


def test_query_log_schema_and_round_trip(tmp_path):
    db = _database()
    with tracing(True):
        run_expression(_join_expression(), db.snapshot())
    records = query_log()
    assert len(records) == 1
    record = records[0]
    assert set(record) == {
        "trace_id", "plan_key", "nodes", "duration", "est_rows", "act_rows",
        "fused", "slow",
    }
    assert record["trace_id"] == latest_trace()[0]
    assert record["act_rows"] == 6 and record["nodes"] >= 3
    assert record["duration"] >= 0.0 and record["slow"] is False
    path = tmp_path / "queries.jsonl"
    assert export_query_log(path) == 1
    assert json.loads(path.read_text().splitlines()[0]) == record


def test_query_log_slow_threshold_and_bounding():
    previous = set_slow_query_threshold(0.0)  # everything is slow
    try:
        db = _database()
        snapshot = db.snapshot()
        with tracing(True):
            run_expression(_join_expression(), snapshot)
        assert slow_queries()[0]["slow"] is True
        assert observability_stats()["slow_queries_logged"] == 1
        set_slow_query_threshold(3600.0)  # nothing is slow
        with tracing(True):
            run_expression(_join_expression(), snapshot)
        assert len(query_log()) == 2
        assert len(slow_queries()) == 1  # newest record is not slow
    finally:
        set_slow_query_threshold(previous)


def test_query_log_is_bounded():
    from repro.observability.querylog import record_query

    for index in range(QUERY_LOG_ENTRIES + 7):
        record_query(
            trace_id=None, plan_key=f"k{index}", nodes=1, duration=0.0,
            est_rows=None, act_rows=0, fused=False,
        )
    assert len(query_log()) == QUERY_LOG_ENTRIES
    assert query_log()[0]["plan_key"] == f"k{QUERY_LOG_ENTRIES + 6}"
    assert observability_stats()["query_log_evictions"] == 7


def test_plan_keys_group_structurally_identical_queries():
    db = _database()
    snapshot = db.snapshot()
    with tracing(True):
        run_expression(_join_expression(), snapshot)
        run_expression(_join_expression(), snapshot)  # distinct object, same shape
        run_expression(PredicateExpression("R"), snapshot)
    keys = [record["plan_key"] for record in query_log()]
    assert keys[1] == keys[2]  # the two join queries collide — the mining signal
    assert keys[0] != keys[1]  # the bare scan does not


# -- the serving layer ------------------------------------------------------------

def test_parse_new_verbs_and_errors():
    assert parse_request("METRICS").verb == "METRICS"
    assert parse_request("SLOWLOG").operand is None
    assert parse_request("SLOWLOG 5").operand == "5"
    assert parse_request("TRACE last").operand == "last"
    for bad in ("METRICS now", "SLOWLOG x", "TRACE"):
        with pytest.raises(ServingError):
            parse_request(bad)


def _serve(coroutine_factory, *, traced: bool = True):
    db = _database()
    db.views.define_relational("firsts", Projection(PredicateExpression("R"), (1,)))
    queries = {"joined": _join_expression()}

    async def main():
        async with DatabaseServer(db, queries=queries).serve() as server:
            client = await ServingClient.connect("127.0.0.1", server.port)
            try:
                return await coroutine_factory(client, db, server)
            finally:
                await client.close()

    if traced:
        with tracing(True):
            return asyncio.run(main())
    return asyncio.run(main())


def test_served_query_trace_links_wire_to_plan_nodes():
    async def scenario(client, db, server):
        await client.query("joined")
        return await client.trace("last")

    payload = _serve(scenario)
    spans = payload["spans"]
    index = _span_index(spans)
    by_name = {record["name"]: record for record in spans}
    root = by_name["serve.QUERY"]
    assert root["parent_id"] is None
    assert all(record["trace_id"] == payload["trace_id"] for record in spans)
    engine_root = by_name["engine.query"]
    assert engine_root["parent_id"] == root["span_id"]
    node_spans = [r for r in spans if r["name"].startswith("plan.")]
    assert node_spans, "expected plan node spans under the served query"
    for record in node_spans:
        assert "act_rows" in record["attributes"]
        ancestor = index[record["parent_id"]]
        while ancestor["name"].startswith("plan."):
            ancestor = index[ancestor["parent_id"]]
        assert ancestor["name"] == "engine.query"
    assert engine_root["attributes"]["plan_key"] == query_log()[0]["plan_key"]


def test_served_write_trace_reaches_view_maintenance():
    async def scenario(client, db, server):
        await client.insert("R", [("new", "j0")])
        return await client.trace("last")

    payload = _serve(scenario)
    by_name = {record["name"]: record for record in payload["spans"]}
    root = by_name["serve.INSERT"]
    transact = by_name["db.transact"]
    assert transact["trace_id"] == root["trace_id"]
    assert transact["parent_id"] == root["span_id"]
    phases = {r["name"] for r in payload["spans"] if r["name"].startswith("transact.")}
    assert phases == {
        "transact.validate", "transact.stage", "transact.publish",
        "transact.maintain",
    }
    maintain = by_name["view.maintain"]
    assert maintain["attributes"] == {"view": "firsts"}
    assert maintain["trace_id"] == root["trace_id"]
    assert by_name["transact.maintain"]["span_id"] == maintain["parent_id"]


def test_metrics_verb_returns_parseable_exposition():
    async def scenario(client, db, server):
        await client.query("joined")
        await client.insert("R", [("w", "j1")])
        return await client.metrics(), await client.stats()

    text, stats = _serve(scenario)
    parsed = parse_exposition(text)
    assert parsed["repro_current_epoch"][""] == 3.0  # two setup batches + one insert
    assert parsed["repro_quarantined_views"][""] == 0.0
    assert parsed["repro_serving_request_seconds_count"]['{verb="QUERY"}'] == 1.0
    assert parsed["repro_engine_query_seconds_count"][""] == 1.0
    assert parsed["repro_transact_seconds_count"][""] == 1.0
    observability = stats["observability"]
    assert observability["tracing"] is True
    assert observability["counters"]["traces_recorded"] >= 2
    latency = observability["latency"]
    summary = latency['repro_serving_request_seconds{verb="QUERY"}']
    assert summary["count"] == 1 and summary["p50"] > 0
    assert set(summary) == {"count", "sum", "p50", "p95", "p99"}
    assert observability["recent_traces"]


def test_slowlog_and_trace_verbs():
    previous = set_slow_query_threshold(0.0)
    try:
        async def scenario(client, db, server):
            await client.query("joined")
            slow = await client.slowlog(4)
            by_id = await client.trace(slow[0]["trace_id"])
            with pytest.raises(ServingError) as excinfo:
                await client.trace("t99999999")
            return slow, by_id, excinfo.value.code

        slow, by_id, code = _serve(scenario)
        assert len(slow) == 1 and slow[0]["slow"] is True
        assert slow[0]["trace_id"] == by_id["trace_id"]
        # The record's trace is the served QUERY's trace, retrievable by id.
        assert "serve.QUERY" in {record["name"] for record in by_id["spans"]}
        assert code == "unknown_trace"
    finally:
        set_slow_query_threshold(previous)


def test_untraced_server_keeps_observability_dark():
    async def scenario(client, db, server):
        await client.query("joined")
        await client.insert("R", [("w", "j1")])
        stats = await client.stats()
        with pytest.raises(ServingError) as excinfo:
            await client.trace("last")
        return stats, excinfo.value.code

    stats, code = _serve(scenario, traced=False)
    counters = stats["observability"]["counters"]
    assert stats["observability"]["tracing"] is False
    assert counters["spans_started"] == 0 and counters["queries_logged"] == 0
    assert code == "unknown_trace"
    assert query_log() == []


# -- the differential cube --------------------------------------------------------

def test_answers_and_counters_across_the_tracing_cube():
    """tracing × codegen: identical answers everywhere; spans and
    query-log records appear exactly when tracing is on, and the off cells
    leave every observability counter untouched."""
    db = _database()
    snapshot = db.snapshot()
    expression = _chain_expression()
    reference = None
    for traced in (False, True):
        for fused in (False, True):
            clear_plan_cache()
            clear_traces()
            clear_query_log()
            before = observability_stats()
            with tracing(traced), codegen(fused):
                result = run_expression(expression, snapshot)
            answer = sorted(str(value) for value in result.values)
            if reference is None:
                reference = answer
            assert answer == reference, (traced, fused)
            after = observability_stats()
            if traced:
                assert after["spans_started"] > before["spans_started"]
                assert len(query_log()) == 1
                assert query_log()[0]["fused"] is fused
                assert latest_trace() is not None
            else:
                assert after == before, fused
                assert query_log() == [] and latest_trace() is None


def test_plan_structural_key_is_stable_across_compiles():
    from repro.engine import compile_expression

    keys = {
        plan_structural_key(compile_expression(_join_expression(), SCHEMA))
        for _ in range(3)
    }
    assert len(keys) == 1
