"""Serving suite: MVCC epoch snapshots + the asyncio front door.

The central contracts:

* **epoch isolation** — a reader that pins an epoch sees bit-identical
  results (base predicates, maintained views, engine fall-through) no
  matter how many batches a writer commits afterwards, including from a
  real concurrent thread;
* **epoch lifecycle** — the current epoch is served live and frozen
  lazily only when pinned; snapshots are garbage-collected at the last
  release; pinning an uncollected past epoch works, a collected one is
  an :class:`~repro.errors.EpochError`;
* **durability of epochs** — WAL record sequences are epoch-stamped and
  checkpoints carry the epoch, so a recovered database's epoch equals
  the last durable one;
* **the wire** — the line protocol round-trips every verb over a real
  asyncio TCP server, the writer queue serializes concurrent writes, and
  pinned sessions stay isolated across server-side commits;
* **cache invalidation** — every mutation path (transact, snapshot
  rewind, replay, recovery replay, view repair) serves fresh state, never
  a stale ``Database._snapshot``.

The MVCC ablation (``REPRO_DISABLE_MVCC=1``, or :func:`repro.views.mvcc`)
degrades pins to advisory reads of the latest state; isolation-asserting
tests skip themselves under that mode.

Selectable standalone with ``pytest -m serving``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading

import pytest

from repro.errors import EpochError, ServingError
from repro.algebra.expressions import (
    PredicateExpression,
    Projection,
    Selection,
    SelectionCondition,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.datalog import transitive_closure_program
from repro.io.serialization import instance_to_data
from repro.reliability import (
    FaultPlan,
    SimulatedCrash,
    create_durable_database,
    fault_plan,
    recover_database,
)
from repro.serving import server as server_module
from repro.serving import (
    DatabaseServer,
    ServingClient,
    decode_response,
    encode_ok,
    encode_result,
    parse_request,
    run_sessions,
)
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.views import (
    Database,
    mvcc,
    mvcc_enabled,
    replay_updates,
    restore_database,
    snapshot_database,
    views_stats,
)
from repro.workloads import client_session_script, random_database, random_update_stream

pytestmark = pytest.mark.serving

requires_mvcc = pytest.mark.skipif(
    bool(os.environ.get("REPRO_DISABLE_MVCC")),
    reason="asserts epoch isolation, which REPRO_DISABLE_MVCC=1 ablates away",
)

ATOMS = [f"n{i}" for i in range(10)]


def _parent_db(**kwargs) -> Database:
    return Database(PARENT_SCHEMA, {"PAR": [("tom", "mary"), ("mary", "sue")]}, **kwargs)


def _define_views(db: Database) -> None:
    db.views.define_relational("children", Projection(PredicateExpression("PAR"), (2,)))
    db.views.define_datalog("anc", transitive_closure_program("PAR", "ANC"))


def _stream(batches: int, seed: int = 7):
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=seed)
    db = Database.from_instance(base)
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=batches, batch_size=3, seed=seed + 1, initial=base
    )
    return db, stream


def _fingerprint(handle) -> str:
    """One deterministic string for everything a pinned reader can see."""
    snapshot = handle.snapshot()
    payload = {
        "instances": {
            name: instance_to_data(snapshot.instance(name))
            for name in snapshot.schema.predicate_names
        },
        "views": {
            name: encode_result(handle.view(name))
            for name in ("children", "anc")
            if name in handle._database.views
        },
    }
    return json.dumps(payload, sort_keys=True)


# -- epoch lifecycle --------------------------------------------------------------

def test_epoch_counts_batches_and_version_is_an_alias():
    db = _parent_db()
    assert db.current_epoch == 0 and db.version == 0
    db.insert("PAR", [("sue", "ann")])
    assert db.current_epoch == 1 and db.version == 1
    db.insert("PAR", [("sue", "ann")])  # no-op batch: no new epoch
    assert db.current_epoch == 1


def test_pin_defaults_to_current_and_serves_live():
    db = _parent_db()
    with db.pin() as reader:
        assert reader.epoch == 0
        assert reader.snapshot() is db.snapshot()
        assert ("tom", "mary") in reader.relation("PAR").tuples


def test_released_handle_refuses_reads_and_release_is_idempotent():
    db = _parent_db()
    reader = db.pin()
    reader.release()
    reader.release()
    assert db.pinned_epochs() == {}
    with pytest.raises(EpochError):
        reader.snapshot()


@requires_mvcc
def test_unpinned_epochs_are_never_frozen():
    db = _parent_db()
    before = views_stats()["epochs_frozen"]
    for i in range(5):
        db.insert("PAR", [(f"x{i}", f"y{i}")])
    assert views_stats()["epochs_frozen"] == before


@requires_mvcc
def test_pinned_epoch_is_frozen_lazily_and_collected_on_release():
    db = _parent_db()
    reader = db.pin()
    assert db.retained_epochs() == [0]  # still live, nothing frozen
    frozen_before = views_stats()["epochs_frozen"]
    db.insert("PAR", [("sue", "ann")])
    assert views_stats()["epochs_frozen"] == frozen_before + 1
    assert db.retained_epochs() == [0, 1]
    collected_before = views_stats()["epochs_collected"]
    reader.release()
    assert db.retained_epochs() == [1]
    assert views_stats()["epochs_collected"] == collected_before + 1


@requires_mvcc
def test_pinning_a_retained_past_epoch_works_a_collected_one_raises():
    db = _parent_db()
    first = db.pin()
    db.insert("PAR", [("sue", "ann")])
    second = db.pin(0)  # retained by `first`
    assert second.epoch == 0
    first.release()
    second.release()
    with pytest.raises(EpochError):
        db.pin(0)
    with pytest.raises(EpochError):
        db.pin(99)


def test_mvcc_off_pins_are_advisory_reads_of_latest():
    db = _parent_db()
    with mvcc(False):
        assert not mvcc_enabled()
        reader = db.pin()
        bypassed = views_stats()["mvcc_bypassed_reads"]
        db.insert("PAR", [("sue", "ann")])
        assert ("sue", "ann") in reader.relation("PAR").tuples  # sees latest
        assert views_stats()["mvcc_bypassed_reads"] > bypassed
        assert db.pin(42).epoch == 42  # advisory: any epoch is accepted
        reader.release()


# -- pinned readers stay bit-identical (the acceptance criterion) ------------------

@requires_mvcc
def test_pinned_reader_bit_identical_across_100_writer_batches():
    db, stream = _stream(batches=110)
    _define_views(db)
    reader = db.pin()
    expected = _fingerprint(reader)
    for index, batch in enumerate(stream):
        db.transact(batch)
        if index % 10 == 0:
            assert _fingerprint(reader) == expected, f"drift at batch {index}"
    assert db.current_epoch >= 100
    assert _fingerprint(reader) == expected
    reader.release()
    assert _fingerprint(db.pin()) != expected  # the live state did move


@requires_mvcc
def test_differential_sweep_every_pinned_epoch_matches_a_clean_replica():
    db, stream = _stream(batches=20, seed=13)
    _define_views(db)
    handles = {0: db.pin()}
    for index, batch in enumerate(stream):
        db.transact(batch)
        handles[index + 1] = db.pin()
    # Clean replicas: re-run each prefix serially on a fresh database.
    for epoch, handle in handles.items():
        clean_db, _ = _stream(batches=20, seed=13)
        _define_views(clean_db)
        for batch in stream[:epoch]:
            clean_db.transact(batch)
        assert _fingerprint(handle) == _fingerprint(clean_db.pin()), epoch
    for handle in handles.values():
        handle.release()
    assert db.retained_epochs() == [db.current_epoch]


@requires_mvcc
def test_threaded_writer_cannot_move_a_pinned_reader():
    db, stream = _stream(batches=60, seed=29)
    _define_views(db)
    reader = db.pin()
    expected = _fingerprint(reader)
    drift: list[str] = []
    done = threading.Event()

    def write() -> None:
        for batch in stream:
            db.transact(batch)
        done.set()

    def read() -> None:
        while not done.is_set():
            observed = _fingerprint(reader)
            if observed != expected:
                drift.append(observed)

    writer = threading.Thread(target=write)
    readers = [threading.Thread(target=read) for _ in range(3)]
    for thread in readers:
        thread.start()
    writer.start()
    writer.join()
    for thread in readers:
        thread.join()
    assert not drift
    assert db.current_epoch >= 50
    reader.release()


def test_unpinned_readers_see_whole_epochs_during_threaded_commits():
    """Commits publish in place and readers rebuild instances lazily: every
    instance and snapshot an unpinned reader gets must equal the state at
    some committed epoch, never a torn mix, and no read may raise."""
    schema = DatabaseSchema([("R", parse_type("[U, U]")), ("S", parse_type("[U, U]"))])
    base = random_database(schema, ATOMS, count=60, seed=31)
    stream = random_update_stream(
        schema, ATOMS, batches=80, batch_size=4, seed=32, initial=base
    )

    def state(database) -> dict:
        return {name: database.instance(name).values for name in ("R", "S")}

    replay = Database.from_instance(base)
    committed = [state(replay)]
    for batch in stream:
        replay.transact(batch)
        committed.append(state(replay))
    instances = {name: {epoch[name] for epoch in committed} for name in ("R", "S")}
    snapshots = {(epoch["R"], epoch["S"]) for epoch in committed}

    db = Database.from_instance(base)
    torn: list = []
    errors: list[Exception] = []
    done = threading.Event()

    def write() -> None:
        try:
            for batch in stream:
                db.transact(batch)
        except Exception as error:
            errors.append(error)
        finally:
            done.set()

    def read() -> None:
        try:
            while not done.is_set():
                for name in ("R", "S"):
                    values = db.instance(name).values
                    if values not in instances[name]:
                        torn.append((name, values))
                snapshot = db.snapshot()
                pair = (snapshot.instance("R").values, snapshot.instance("S").values)
                if pair not in snapshots:
                    torn.append(("snapshot", pair))
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(3)]
        writer = threading.Thread(target=write)
        for thread in readers:
            thread.start()
        writer.start()
        for thread in [writer, *readers]:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not torn
    assert state(db) == committed[-1]


@requires_mvcc
def test_quarantined_view_at_freeze_time_recomputes_at_the_pinned_epoch():
    db = _parent_db()
    view = db.views.define_relational(
        "children", Projection(PredicateExpression("PAR"), (2,))
    )
    view._quarantine(ValueError("synthetic"))
    reader = db.pin()
    db.insert("PAR", [("sue", "ann")])
    # The frozen capture holds None for the quarantined view; the handle
    # recomputes over the pinned instance — still epoch-0 data.
    assert [row for row in reader.view("children")] == sorted(
        [("mary",), ("sue",)]
    )
    reader.release()


# -- stale-snapshot-cache regressions (one per mutation path) ----------------------

def test_transact_invalidates_the_snapshot_cache():
    db = _parent_db()
    before = db.snapshot()
    db.insert("PAR", [("sue", "ann")])
    after = db.snapshot()
    assert after is not before
    assert ("sue", "ann") in {
        tuple(a.value for a in v.components) for v in after.instance("PAR").values
    }


def test_restore_rewind_serves_the_rewound_state_not_a_stale_cache():
    db = _parent_db()
    db.snapshot()
    db.insert("PAR", [("sue", "ann")])
    restored = restore_database(snapshot_database(db), rewind=True)
    # The rewind applied inverse batches through transact; its snapshot
    # must reflect the pre-traffic state.
    assert restored.snapshot() != db.snapshot()
    assert len(restored) == 2 and len(db) == 3


def test_replay_updates_serves_the_replayed_state_not_a_stale_cache():
    db = _parent_db()
    db.insert("PAR", [("sue", "ann")])
    restored = restore_database(snapshot_database(db), rewind=True)
    restored.snapshot()  # warm the cache before replaying
    replay_updates(restored, snapshot_database(db)["log"])
    assert restored.snapshot() == db.snapshot()


def test_recovery_replay_serves_the_replayed_state_not_a_stale_cache(tmp_path):
    db = create_durable_database(
        PARENT_SCHEMA, {"PAR": [("tom", "mary")]}, directory=tmp_path
    )
    db.insert("PAR", [("mary", "sue")])
    db.close()
    recovered = recover_database(tmp_path)
    # Recovery replays the WAL suffix through transact; the cached
    # snapshot must include it.
    assert recovered.snapshot() == db.snapshot()
    recovered.close()


def test_repair_serves_fresh_state_not_a_stale_cache():
    db = _parent_db()
    view = db.views.define_relational(
        "children", Projection(PredicateExpression("PAR"), (2,))
    )
    view._quarantine(ValueError("synthetic"))
    db.snapshot()
    db.insert("PAR", [("sue", "ann")])
    view.repair()
    assert ("ann",) in view.value().tuples


# -- epoch durability --------------------------------------------------------------

def test_recovered_epoch_equals_last_durable_epoch(tmp_path):
    db = create_durable_database(
        PARENT_SCHEMA, {"PAR": [("tom", "mary")]}, directory=tmp_path
    )
    _, stream = _stream(batches=8, seed=3)
    for index, batch in enumerate(stream):
        db.transact(batch)
        if index == 3:
            db.checkpoint()
    final_epoch = db.current_epoch
    db.close()
    recovered = recover_database(tmp_path)
    assert recovered.current_epoch == final_epoch
    assert recovered.current_epoch == recovered.durability.last_sequence
    recovered.close()


def test_recovered_epoch_after_a_crash_is_the_last_durable_one(tmp_path):
    db = create_durable_database(
        PARENT_SCHEMA, {"PAR": [("tom", "mary")]}, directory=tmp_path
    )
    _, stream = _stream(batches=8, seed=5)
    applied = 0
    with fault_plan(FaultPlan.single("store.publish", kind="crash", at=5)):
        try:
            for batch in stream:
                db.transact(batch)
                applied += 1
        except SimulatedCrash:
            pass
    db.close()
    recovered = recover_database(tmp_path)
    # The crash hit between WAL append and publish: the WAL (not the dead
    # process's memory) defines the durable epoch.
    assert recovered.current_epoch == recovered.durability.last_sequence
    assert recovered.current_epoch == applied + 1
    recovered.close()


def test_epochs_resume_past_recovery(tmp_path):
    db = create_durable_database(
        PARENT_SCHEMA, {"PAR": [("tom", "mary")]}, directory=tmp_path
    )
    db.insert("PAR", [("mary", "sue")])
    db.checkpoint()
    db.close()
    recovered = recover_database(tmp_path)
    assert recovered.current_epoch == 1
    recovered.insert("PAR", [("sue", "ann")])
    assert recovered.current_epoch == 2
    assert recovered.durability.last_sequence == 2
    recovered.close()


# -- the wire protocol ------------------------------------------------------------

def test_parse_request_verbs_and_errors():
    assert parse_request("PING").verb == "PING"
    assert parse_request("get PAR").operand == "PAR"  # case-insensitive verb
    request = parse_request('INSERT PAR [["a","b"],["c","d"]]')
    assert request.operand == "PAR" and request.rows == [("a", "b"), ("c", "d")]
    assert parse_request("PIN 3").operand == "3"
    assert parse_request("PIN").operand is None
    for bad in ("", "BOGUS", "PING extra", "GET", "PIN x", "INSERT PAR", "INSERT PAR {"):
        with pytest.raises(ServingError):
            parse_request(bad)


def test_response_encode_decode_round_trip():
    assert decode_response(encode_ok({"epoch": 3})) == {"epoch": 3}
    with pytest.raises(ServingError) as excinfo:
        decode_response('ERR unknown_query "no such query"')
    assert excinfo.value.code == "unknown_query"
    with pytest.raises(ServingError):
        decode_response("garbage line")


def _serve(coroutine_factory):
    """Run one client coroutine against a served parent database."""
    db = _parent_db()
    _define_views(db)

    async def main():
        server = DatabaseServer(db, queries={"pairs": PredicateExpression("PAR")})
        async with server.serve() as running:
            client = await ServingClient.connect("127.0.0.1", running.port)
            try:
                return await coroutine_factory(client, db, running)
            finally:
                await client.close()

    return asyncio.run(main())


def test_server_round_trips_every_read_verb():
    async def scenario(client, db, server):
        assert await client.ping() == "pong"
        assert await client.epoch() == 0
        children = await client.view("children")
        assert children["rows"] == [["mary"], ["sue"]]
        base = await client.get("PAR")
        assert len(base["values"]) == 2
        fall_through = await client.query("pairs")
        assert fall_through["kind"] == "instance"
        calc = await client.calc("{ t/[U, U] | PAR(t) }")
        assert len(calc["values"]) == 2
        assert await client.parse_type("[U, U]") == "[U, U]"
        stats = await client.stats()
        assert stats["epoch"] == 0 and stats["server"]["reads_served"] >= 5
        assert await client.quit() == "bye"

    _serve(scenario)


def test_server_writes_advance_the_epoch_and_apply_effectively():
    async def scenario(client, db, server):
        result = await client.insert("PAR", [("sue", "ann"), ("sue", "ann")])
        assert result == {"applied": 1, "epoch": 1}
        assert ("sue", "ann") in db.relation("PAR").tuples
        result = await client.delete("PAR", [("sue", "ann")])
        assert result == {"applied": 1, "epoch": 2}
        assert await client.insert("PAR", [("tom", "mary")]) == {
            "applied": 0,
            "epoch": 2,  # a no-op batch commits no epoch
        }

    _serve(scenario)


@requires_mvcc
def test_pinned_session_is_isolated_from_server_side_writes():
    async def scenario(client, db, server):
        await client.pin()
        before = await client.view("children")
        writer = await ServingClient.connect("127.0.0.1", server.port)
        try:
            await writer.insert("PAR", [("sue", "ann")])
        finally:
            await writer.quit()
        assert await client.view("children") == before  # pinned: no drift
        await client.unpin()
        after = await client.view("children")
        assert ["ann"] in after["rows"]

    _serve(scenario)


def test_server_relays_errors_without_dropping_the_session():
    async def scenario(client, db, server):
        with pytest.raises(ServingError) as excinfo:
            await client.get("NOPE")
        assert excinfo.value.code == "SchemaError"
        with pytest.raises(ServingError) as excinfo:
            await client.query("nothing")
        assert excinfo.value.code == "unknown_query"
        with pytest.raises(ServingError) as excinfo:
            await client.request("BOGUS")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServingError):
            await client.calc("{ not a query }")
        assert await client.ping() == "pong"  # session survived all of it

    _serve(scenario)


def test_a_request_line_past_asyncio_default_limit_commits():
    rows = [(f"a{i:05d}", f"b{i:05d}") for i in range(8000)]
    assert len(json.dumps(rows)) > 2**16  # asyncio's default stream limit

    async def scenario(client, db, server):
        assert await client.insert("PAR", rows) == {"applied": 8000, "epoch": 1}
        assert await client.ping() == "pong"
        assert server.stats["errors_returned"] == 0

    _serve(scenario)


def test_an_over_cap_request_line_is_answered_and_only_its_session_closes(monkeypatch):
    monkeypatch.setattr(server_module, "MAX_RESPONSE_BYTES", 1024)
    line = "INSERT PAR " + json.dumps([[f"x{i}", "y"] for i in range(400)])
    assert len(line) > 4 * 1024

    async def scenario(client, db, server):
        other = await ServingClient.connect("127.0.0.1", server.port)
        try:
            with pytest.raises(ServingError) as excinfo:
                await client.request(line)
            assert excinfo.value.code == "too_large"
            assert await asyncio.wait_for(client._reader.read(), timeout=10) == b""
            assert await other.ping() == "pong"
            assert server.stats["errors_returned"] == 1
            assert db.current_epoch == 0
        finally:
            await other.close()

    _serve(scenario)


def test_disconnect_releases_the_sessions_pin():
    async def scenario(client, db, server):
        await client.pin()
        assert db.pinned_epochs() == {0: 1}
        await client.close()
        # Give the server's session task its cleanup turn.
        for _ in range(50):
            if not db.pinned_epochs():
                break
            await asyncio.sleep(0.01)
        assert db.pinned_epochs() == {}

    _serve(scenario)


def test_concurrent_client_writes_serialize_through_the_queue():
    async def scenario(client, db, server):
        clients = [client]
        for _ in range(7):
            clients.append(await ServingClient.connect("127.0.0.1", server.port))
        try:
            results = await asyncio.gather(
                *(
                    c.insert("PAR", [(f"w{i}", f"v{i}")])
                    for i, c in enumerate(clients)
                )
            )
        finally:
            for extra in clients[1:]:
                await extra.close()
        epochs = sorted(r["epoch"] for r in results)
        assert db.current_epoch == 8
        assert epochs[-1] == 8  # every write observed a post-commit epoch
        assert len(db.relation("PAR").tuples) == 10

    _serve(scenario)


# -- the scripted workload --------------------------------------------------------

def test_client_session_script_is_deterministic_and_mixed():
    one = client_session_script(PARENT_SCHEMA, ATOMS, operations=200, seed=5)
    two = client_session_script(PARENT_SCHEMA, ATOMS, operations=200, seed=5)
    other = client_session_script(PARENT_SCHEMA, ATOMS, operations=200, seed=6)
    assert one == two
    assert one != other
    writes = sum(1 for op in one if op[0] in ("insert", "delete"))
    assert 0 < writes < 20  # ~1% of 200, generously bounded


def test_workload_driver_runs_concurrent_sessions_without_errors():
    db, _ = _stream(batches=0, seed=11)
    _define_views(db)
    totals = asyncio.run(
        run_sessions(
            db,
            sessions=25,
            operations=30,
            seed=2,
            views=["children", "anc"],
            atoms=ATOMS,
            repin_every=10,
        )
    )
    assert totals["errors"] == 0
    assert totals["requests"] == 25 * 30
    assert totals["reads"] > totals["writes"]
    assert totals["final_epoch"] == db.current_epoch
    assert totals["server"]["sessions_closed"] == 25
    # No pins may leak once every session is done.
    assert db.pinned_epochs() == {}
    assert db.retained_epochs() == [db.current_epoch]
