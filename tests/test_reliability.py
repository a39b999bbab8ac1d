"""Reliability suite: WAL, crash recovery, atomic batches, quarantine.

The central contracts:

* **WAL** — every committed batch is a checksummed, sequenced record;
  a torn or bit-flipped tail is detected and truncated, never decoded;
* **atomic batches** — an exception anywhere in ``transact`` either
  aborts with the database byte-for-byte untouched (pre-publish) or
  commits the base fully and quarantines at most the failing view;
* **crash recovery** — killing a run at *any* registered fault site and
  recovering from disk yields a database byte-identical to a clean
  serial re-run of exactly the batches the WAL committed;
* **quarantine** — a failing maintainer rolls its state back exactly
  (verified against a pristine twin), reads degrade to recompute, and
  ``repair()`` re-arms incremental maintenance.

The always-on portion keeps the crash sweep to one mode cell; exporting
``REPRO_FAULT_SWEEP=1`` (the CI fault-injection job) unlocks the full
crash-site × columnar-threshold cube (threshold 1 and ``sys.maxsize``).

Selectable standalone with ``pytest -m reliability``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

from repro.errors import CorruptSnapshotError, ReliabilityError, SchemaError
from repro.algebra import evaluate_expression
from repro.algebra.expressions import (
    ConstantOperand,
    Powerset,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
    Union,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.datalog import transitive_closure_program
from repro.datalog.evaluation import SemiNaiveProgram
from repro.objects.columnar import columnar_settings
from repro.reliability import (
    FaultPlan,
    InjectedFault,
    SimulatedCrash,
    WriteAheadLog,
    create_durable_database,
    decode_batch,
    encode_batch,
    fault_plan,
    fault_point,
    fault_sites,
    list_checkpoints,
    read_wal,
    recover_database,
    recover_wal,
    reliability_stats,
    set_fault_plan,
)
from repro.views import (
    Database,
    load_snapshot,
    restore_database,
    save_snapshot,
    snapshot_database,
    views_stats,
)
from repro.views.maintain import Delta
from repro.workloads import random_database, random_update_stream

pytestmark = pytest.mark.reliability

FULL_SWEEP = bool(os.environ.get("REPRO_FAULT_SWEEP"))

ATOMS = ["a", "b", "v0", "v1", "v2"]

PAR = PredicateExpression("PAR")


# -- helpers ----------------------------------------------------------------------

def _batch_payload(*pairs) -> bytes:
    from repro.objects.values import value_from_python

    deltas = {
        name: Delta(
            [value_from_python(v) for v in added],
            [value_from_python(v) for v in removed],
        )
        for name, added, removed in pairs
    }
    return encode_batch(deltas)


def _assignments(instance):
    return {
        name: instance.instance(name) for name in instance.schema.predicate_names
    }


def _serialized_instances(db: Database) -> str:
    """The database's instances as canonical bytes (the bit-identical check)."""
    return json.dumps(snapshot_database(db)["instances"], sort_keys=True)


def _define_views(db: Database) -> dict:
    p1, p2 = Projection(PAR, (1,)), Projection(PAR, (2,))
    views = {
        "filtered": db.views.define_algebra(
            "filtered", Selection(PAR, SelectionCondition.eq(1, ConstantOperand("a")))
        ),
        "joined": db.views.define_algebra(
            "joined", Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3))
        ),
        "union": db.views.define_algebra("union", Union(p1, p2)),
        "pow": db.views.define_algebra("pow", Powerset(p1)),
    }
    views["tc"] = db.views.define_datalog(
        "tc", transitive_closure_program(), edb={"par": "PAR"}
    )
    return views


def _check_views(db: Database) -> None:
    """Every algebra view equals recompute; the Datalog view equals a
    fresh fixpoint."""
    snapshot = db.snapshot()
    for name in ("filtered", "joined", "union", "pow"):
        view = db.views[name]
        assert view.value() == evaluate_expression(view.expression, snapshot), name
    tc = db.views["tc"]
    expected = SemiNaiveProgram(
        tc.program, {"par": db.relation("PAR")}
    ).relation("tc")
    assert tc.value()["tc"] == expected


# -- the WAL ----------------------------------------------------------------------

def test_wal_append_read_roundtrip(tmp_path):
    path = tmp_path / "wal.log"
    payloads = [
        _batch_payload(("PAR", [("a", "b")], [])),
        _batch_payload(("PAR", [("b", "c")], [("a", "b")])),
        _batch_payload(("PAR", [], [("b", "c")])),
    ]
    with WriteAheadLog(path) as wal:
        for payload in payloads:
            wal.append(payload)
    records, _ = read_wal(path)
    assert [sequence for sequence, _ in records] == [1, 2, 3]
    assert [payload for _, payload in records] == payloads
    decoded = decode_batch(records[1][1])
    assert set(decoded) == {"PAR"}
    added, removed = decoded["PAR"]
    assert len(added) == 1 and len(removed) == 1


def test_wal_reopen_resumes_sequence(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(b"one")
        wal.append(b"two")
    records, _ = read_wal(path)
    with WriteAheadLog(path, last_sequence=records[-1][0]) as wal:
        assert wal.append(b"three") == 3
    records, _ = read_wal(path)
    assert [sequence for sequence, _ in records] == [1, 2, 3]


def test_wal_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ReliabilityError):
        WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")


def test_wal_torn_tail_is_truncated(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(b"alpha")
        wal.append(b"beta")
    intact = path.read_bytes()
    # A torn append: only a prefix of the third record hits the disk.
    with WriteAheadLog(path, last_sequence=2) as wal:
        with fault_plan(FaultPlan.single("wal.write", kind="torn", at=1, keep_bytes=7)):
            with pytest.raises(SimulatedCrash):
                wal.append(b"gamma")
    assert path.stat().st_size == len(intact) + 7
    before = reliability_stats()["wal_torn_tails_truncated"]
    records = recover_wal(path)
    assert [payload for _, payload in records] == [b"alpha", b"beta"]
    assert path.read_bytes() == intact
    assert reliability_stats()["wal_torn_tails_truncated"] == before + 1
    # Idempotent: recovering a clean log truncates nothing.
    assert recover_wal(path) == records
    assert reliability_stats()["wal_torn_tails_truncated"] == before + 1


@pytest.mark.parametrize("seed", range(6))
def test_wal_bit_flips_never_decode(tmp_path, seed):
    """Flipping any byte of a record invalidates its CRC: the scan stops
    at the last record the checksums still vouch for."""
    path = tmp_path / "wal.log"
    payloads = [f"payload-{i}".encode() for i in range(4)]
    with WriteAheadLog(path) as wal:
        for payload in payloads:
            wal.append(payload)
    data = bytearray(path.read_bytes())
    rng = random.Random(seed)
    position = rng.randrange(5, len(data))  # never the magic itself
    data[position] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))
    records, _ = read_wal(path)
    # Only a prefix survives, and every surviving payload is intact.
    assert [payload for _, payload in records] == payloads[: len(records)]
    assert len(records) < 4
    recovered = recover_wal(path)
    assert recovered == records
    assert read_wal(path)[0] == records


def test_wal_corrupt_magic_resets_the_log(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(b"data")
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    assert recover_wal(path) == []
    # The file is a fresh empty log again: appending works.
    with WriteAheadLog(path) as wal:
        wal.append(b"reborn")
    assert [payload for _, payload in read_wal(path)[0]] == [b"reborn"]


def test_failed_append_leaves_no_record(tmp_path):
    """An *error* (not a crash) during append — fsync failure included —
    must leave the file exactly as it was: the caller aborts the batch,
    so a surviving record would be replayed as a phantom commit."""
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(b"good")
        before = path.read_bytes()
        with fault_plan(FaultPlan.single("wal.fsync", kind="error")):
            with pytest.raises(InjectedFault):
                wal.append(b"doomed")
        assert wal.last_sequence == 1
        assert wal.append(b"next") == 2
    records, _ = read_wal(path)
    assert [payload for _, payload in records] == [b"good", b"next"]
    assert before == path.read_bytes()[: len(before)]


# -- fault plans ------------------------------------------------------------------

def test_fault_sites_are_registered():
    sites = fault_sites()
    for site in (
        "wal.open", "wal.write", "wal.fsync", "store.publish",
        "checkpoint.write", "checkpoint.fsync", "maintain.filter",
        "maintain.join", "maintain.project", "maintain.setop",
        "maintain.recompute", "maintain.datalog",
    ):
        assert site in sites, site


def test_fault_plan_rejects_unknown_sites_and_kinds():
    with pytest.raises(ReliabilityError):
        FaultPlan.single("wal.wrtie")  # typo must fail loudly, not never fire
    with pytest.raises(ReliabilityError):
        FaultPlan.single("wal.write", kind="explode")
    with pytest.raises(ReliabilityError):
        FaultPlan.single("wal.write", at=0)


def test_fault_fires_once_on_the_nth_hit():
    plan = FaultPlan.single("wal.write", kind="error", at=2)
    with fault_plan(plan):
        fault_point("wal.write")  # hit 1: armed but not yet due
        with pytest.raises(InjectedFault):
            fault_point("wal.write")  # hit 2: fires
        fault_point("wal.write")  # hit 3: spent — recovery code can re-run
    assert plan.hits["wal.write"] == 3
    assert plan.fired["wal.write"] == 1


def test_scattered_plans_are_seed_deterministic():
    sites = ["wal.write", "maintain.join", "checkpoint.write"]
    one = FaultPlan.scattered(sites, seed=42)
    two = FaultPlan.scattered(sites, seed=42)
    other = FaultPlan.scattered(sites, seed=43)
    assert {s: p.at for s, p in one.specs.items()} == {
        s: p.at for s, p in two.specs.items()
    }
    assert {s: p.at for s, p in one.specs.items()} != {
        s: p.at for s, p in other.specs.items()
    }


def test_fault_point_is_noop_without_a_plan():
    assert set_fault_plan(None) is None
    fault_point("wal.write")  # nothing armed, nothing raised


# -- atomic transact --------------------------------------------------------------

def _two_predicate_db():
    from repro.types.parser import parse_type
    from repro.types.schema import DatabaseSchema

    schema = DatabaseSchema(
        [("PAR", parse_type("[U, U]")), ("TAG", parse_type("[U]"))]
    )
    return Database(schema, {"PAR": [("a", "b")], "TAG": [("t1",)]})


def test_transact_validates_every_predicate_before_mutating_any():
    """Regression (exception-safety): a multi-predicate batch whose
    *second* predicate carries an ill-typed value must leave the *first*
    predicate untouched too — validation fully precedes mutation."""
    db = _two_predicate_db()
    version = db.version
    before = _serialized_instances(db)
    with pytest.raises(SchemaError):
        db.transact({
            "PAR": ([("fresh", "row")], ()),
            "TAG": ([("ok",), "not-a-one-tuple"], ()),
        })
    assert _serialized_instances(db) == before
    assert db.version == version
    assert db.update_log() == []


def test_transact_unknown_predicate_aborts_whole_batch():
    db = _two_predicate_db()
    before = _serialized_instances(db)
    with pytest.raises(SchemaError):
        db.transact({"PAR": ([("x", "y")], ()), "NOPE": ([("z",)], ())})
    assert _serialized_instances(db) == before


@pytest.mark.parametrize("site", ["wal.write", "wal.fsync"])
def test_wal_error_aborts_batch_with_state_untouched(tmp_path, site):
    base = random_database(PARENT_SCHEMA, ATOMS, count=6, seed=1)
    db = create_durable_database(
        PARENT_SCHEMA, _assignments(base), directory=tmp_path
    )
    view = db.views.define_algebra("all", PAR)
    db.insert("PAR", [("w0", "w1")])
    before = _serialized_instances(db)
    version = db.version
    view_version = view.version
    aborted_before = reliability_stats()["batches_aborted"]
    with fault_plan(FaultPlan.single(site, kind="error")):
        with pytest.raises(InjectedFault):
            db.insert("PAR", [("w2", "w3")])
    assert _serialized_instances(db) == before
    assert db.version == version
    assert view.version == view_version
    assert view.quarantined is None
    assert reliability_stats()["batches_aborted"] == aborted_before + 1
    # The aborted batch is nowhere: recovery equals the live database.
    db.close()
    recovered = recover_database(tmp_path)
    assert _serialized_instances(recovered) == before
    recovered.close()


# -- quarantine: exact rollback, degraded reads, repair ---------------------------

def _maintainer_fingerprint(maintainer) -> dict:
    """A normalized deep-equality image of every stateful structure the
    delta rules maintain (for byte-for-byte rollback verification)."""
    def rows(values):
        return sorted(repr(value) for value in values)

    return {
        "supports": {
            node: sorted((repr(v), c) for v, c in s.counts.items())
            for node, s in maintainer._supports.items()
        },
        "joins": {
            node: [
                sorted((repr(k), rows(bucket)) for k, bucket in index.buckets.items())
                for index in pair
            ]
            for node, pair in maintainer._joins.items()
        },
        "sides": {
            node: [rows(side) for side in sides]
            for node, sides in maintainer._sides.items()
        },
        "outputs": {
            node: rows(output) for node, output in maintainer._outputs.items()
        },
    }


@pytest.mark.parametrize(
    "site", ["maintain.join", "maintain.filter", "maintain.project", "maintain.setop"]
)
def test_maintainer_rollback_restores_pre_batch_state_exactly(site):
    """An injected error mid-DAG rolls the maintainer back to a state
    deep-equal to a pristine twin that never saw the failing batch —
    including the hardest case, between a join's two index rolls."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=3)
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=4, seed=11, initial=base
    )
    expression = Selection(
        Product(
            Selection(PAR, SelectionCondition.negation(
                SelectionCondition.eq(1, ConstantOperand("zzz"))
            )),
            Union(Projection(PAR, (1,)), Projection(PAR, (2,))),
        ),
        SelectionCondition.eq(2, 3),
    )
    victim_db = Database.from_instance(base)
    pristine_db = Database.from_instance(base)
    victim = victim_db.views.define_algebra("v", expression)
    pristine = pristine_db.views.define_algebra("v", expression)
    # Identical history first, so both maintainers reach the same state.
    for batch in stream[:-1]:
        victim_db.transact(batch)
        pristine_db.transact(batch)
    expected = _maintainer_fingerprint(pristine._maintainer)
    assert _maintainer_fingerprint(victim._maintainer) == expected
    rollbacks = reliability_stats()["maintainer_rollbacks"]
    with fault_plan(FaultPlan.single(site, kind="error", at=1)):
        victim_db.transact(stream[-1])  # commits; the view quarantines
    if victim.quarantined is None:
        pytest.skip(f"the final batch never reached {site} for this plan")
    assert _maintainer_fingerprint(victim._maintainer) == expected
    assert victim._members == pristine._members
    assert victim.version == pristine.version
    # The counter moves iff the fault struck *after* some mutation was
    # journaled (an empty-journal rollback is not counted).
    assert reliability_stats()["maintainer_rollbacks"] in (rollbacks, rollbacks + 1)
    # The base committed regardless; repair re-arms incremental service.
    assert victim_db.snapshot() != pristine_db.snapshot()
    victim.repair()
    pristine_db.transact(stream[-1])
    assert victim.value() == pristine.value()


def test_quarantined_view_degrades_to_recompute_and_counts_it():
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=5)
    db = Database.from_instance(base)
    view = db.views.define_algebra("u", Union(Projection(PAR, (1,)), Projection(PAR, (2,))))
    healthy = db.views.define_algebra("all", PAR)
    with fault_plan(FaultPlan.single("maintain.setop", kind="error")):
        db.insert("PAR", [("q0", "q1")])
    assert view.quarantined is not None
    assert healthy.quarantined is None
    stats_before = views_stats()
    expected = evaluate_expression(view.expression, db.snapshot())
    assert view.value() == expected
    assert view.value() == expected  # second read: served from the cache
    stats_after = views_stats()
    assert stats_after["degraded_reads"] == stats_before["degraded_reads"] + 2
    assert stats_after["views_quarantined"] == stats_before["views_quarantined"]
    # Mutations keep flowing to healthy views; the degraded read tracks.
    db.insert("PAR", [("q2", "q3")])
    assert view.value() == evaluate_expression(view.expression, db.snapshot())
    assert healthy.value() == evaluate_expression(PAR, db.snapshot())
    # Repair re-materializes and the incremental path takes over again.
    before = views_stats()
    db.views.repair_all()
    assert view.quarantined is None
    assert views_stats()["view_repairs"] == before["view_repairs"] + 1
    db.insert("PAR", [("q4", "q5")])
    assert view.value() == evaluate_expression(view.expression, db.snapshot())
    assert views_stats()["delta_batches"] > before["delta_batches"]


def test_datalog_view_quarantines_rolls_back_and_repairs():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b"), ("b", "v0")]})
    view = db.views.define_datalog("tc", transitive_closure_program(), edb={"par": "PAR"})
    before_rows = {name: set(rel.tuples) for name, rel in view.value().items()}
    with fault_plan(FaultPlan.single("maintain.datalog", kind="error")):
        db.insert("PAR", [("v0", "v1")])
    assert view.quarantined is not None
    # Rolled back: the kept evaluation still holds the pre-batch facts.
    assert {
        name: set(rel.tuples) for name, rel in view._evaluation.relations().items()
    } == before_rows
    # Degraded read: a fresh fixpoint over the *current* database.
    expected = SemiNaiveProgram(
        view.program, {"par": db.relation("PAR")}
    ).relation("tc")
    assert view.value()["tc"] == expected
    view.repair()
    assert view.quarantined is None
    db.insert("PAR", [("v1", "v2")])
    expected = SemiNaiveProgram(
        view.program, {"par": db.relation("PAR")}
    ).relation("tc")
    assert view.value()["tc"] == expected


def test_crash_in_maintenance_is_not_softened():
    """A SimulatedCrash inside a maintainer must NOT be caught by the
    quarantine machinery — a killed process runs no handlers."""
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    db.views.define_algebra(
        "sel", Selection(PAR, SelectionCondition.eq(1, ConstantOperand("a")))
    )
    with fault_plan(FaultPlan.single("maintain.filter", kind="crash")):
        with pytest.raises(SimulatedCrash):
            db.insert("PAR", [("c", "d")])


# -- snapshot integrity (format v2) ----------------------------------------------

def test_snapshot_is_sealed_and_roundtrips(tmp_path):
    base = random_database(PARENT_SCHEMA, ATOMS, count=6, seed=2)
    db = Database.from_instance(base)
    db.insert("PAR", [("s0", "s1")])
    data = snapshot_database(db)
    assert data["format_version"] == 2
    assert "checksum" in data
    assert restore_database(data).snapshot() == db.snapshot()
    path = save_snapshot(db, tmp_path / "snap.json")
    assert load_snapshot(path).snapshot() == db.snapshot()


def test_legacy_unsealed_snapshot_still_loads():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    data = snapshot_database(db)
    del data["checksum"], data["format_version"]  # a v1-era payload
    assert restore_database(data).snapshot() == db.snapshot()


def test_unknown_snapshot_format_version_is_corruption():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    data = snapshot_database(db)
    data["format_version"] = 99
    with pytest.raises(CorruptSnapshotError):
        restore_database(data)


@pytest.mark.parametrize("seed", range(8))
def test_snapshot_byte_corruption_fuzz(tmp_path, seed):
    """Seeded single-byte corruption anywhere in a snapshot file either
    loads an identical database or raises CorruptSnapshotError — never a
    KeyError, never silently wrong data."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=seed)
    db = Database.from_instance(base)
    db.insert("PAR", [("f0", "f1")])
    path = save_snapshot(db, tmp_path / "snap.json")
    pristine = path.read_bytes()
    rng = random.Random(seed)
    for _ in range(8):
        corrupted = bytearray(pristine)
        position = rng.randrange(len(corrupted))
        corrupted[position] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(corrupted))
        try:
            loaded = load_snapshot(path)
        except CorruptSnapshotError:
            continue
        # The flip must have landed somewhere semantically inert (it
        # cannot have survived the checksum otherwise).
        assert loaded.snapshot() == db.snapshot()


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.99])
def test_truncated_snapshot_raises_corruption(tmp_path, fraction):
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b"), ("b", "v0")]})
    path = save_snapshot(db, tmp_path / "snap.json")
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * fraction)])
    with pytest.raises(CorruptSnapshotError):
        load_snapshot(path)


# -- checkpoints ------------------------------------------------------------------

def test_checkpoints_rotate_and_newest_wins(tmp_path):
    base = random_database(PARENT_SCHEMA, ATOMS, count=5, seed=4)
    db = create_durable_database(PARENT_SCHEMA, _assignments(base), directory=tmp_path)
    for i in range(4):
        db.insert("PAR", [(f"c{i}", "x")])
        db.checkpoint()
    assert len(list_checkpoints(tmp_path)) == 2  # keep=2 rotation
    db.close()
    recovered = recover_database(tmp_path)
    assert _serialized_instances(recovered) == _serialized_instances(db)
    recovered.close()


def test_corrupt_newest_checkpoint_falls_back_to_older(tmp_path):
    base = random_database(PARENT_SCHEMA, ATOMS, count=5, seed=6)
    db = create_durable_database(PARENT_SCHEMA, _assignments(base), directory=tmp_path)
    db.insert("PAR", [("k0", "x")])
    db.checkpoint()
    db.insert("PAR", [("k1", "x")])
    db.checkpoint()
    db.insert("PAR", [("k2", "x")])
    expected = _serialized_instances(db)
    db.close()
    newest = list_checkpoints(tmp_path)[-1]
    payload = bytearray(newest.read_bytes())
    payload[len(payload) // 2] ^= 0x10
    newest.write_bytes(bytes(payload))
    skipped = reliability_stats()["corrupt_checkpoints_skipped"]
    recovered = recover_database(tmp_path)
    # The older checkpoint plus the (never truncated) WAL suffix converge
    # on the exact same state.
    assert _serialized_instances(recovered) == expected
    assert reliability_stats()["corrupt_checkpoints_skipped"] == skipped + 1
    recovered.close()


def test_crash_during_checkpoint_leaves_previous_usable(tmp_path):
    base = random_database(PARENT_SCHEMA, ATOMS, count=5, seed=7)
    db = create_durable_database(PARENT_SCHEMA, _assignments(base), directory=tmp_path)
    db.insert("PAR", [("p0", "x")])
    expected = _serialized_instances(db)
    with fault_plan(FaultPlan.single("checkpoint.write", kind="crash")):
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
    db.close()
    recovered = recover_database(tmp_path)
    assert _serialized_instances(recovered) == expected
    recovered.close()


# -- crash-recovery sweep ---------------------------------------------------------

#: Every site a crash can strike mid-run (wal.open is recovery-side).
SWEEP_SITES = [
    "wal.write",
    "wal.fsync",
    "store.publish",
    "checkpoint.write",
    "checkpoint.fsync",
    "maintain.filter",
    "maintain.join",
    "maintain.project",
    "maintain.setop",
    "maintain.recompute",
    "maintain.datalog",
]

#: The full mode cube, by columnar threshold: 1 puts every stored
#: container on the id-column and mask paths, ``sys.maxsize`` none.  The
#: always-on sweep runs the default threshold only, REPRO_FAULT_SWEEP=1
#: runs both cells.
MODE_CUBE = {"vec-col": 1, "scalar-obj": sys.maxsize}


def _crash_recovery_case(tmp_path, site: str, seed: int, at: int) -> None:
    """Kill a seeded durable run at *site*, recover, and assert the result
    is bit-identical to a clean serial re-run of the committed prefix."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=seed)
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=6, batch_size=4, seed=seed + 1, initial=base
    )
    directory = tmp_path / f"{site.replace('.', '-')}-{seed}-{at}"
    db = create_durable_database(PARENT_SCHEMA, _assignments(base), directory=directory)
    _define_views(db)
    applied = 0
    crashed = False
    # The checkpoint sites are hit once per run (the mid-stream
    # db.checkpoint() below), so their crash must arm on the first hit.
    plan = FaultPlan.single(
        site,
        kind="torn" if site == "wal.write" else "crash",
        at=1 if site.startswith("checkpoint.") else at,
    )
    with fault_plan(plan):
        try:
            for index, batch in enumerate(stream):
                db.transact(batch)
                applied += 1
                if index == 1:
                    db.checkpoint()  # exercise checkpoint + WAL-suffix replay
        except SimulatedCrash:
            crashed = True
    db.close()
    if site in ("wal.write", "wal.fsync", "store.publish"):
        assert crashed, f"{site} must fire on every batch"
    if site.startswith("checkpoint."):
        assert crashed, f"{site} must fire on the mid-stream checkpoint"

    recovered = recover_database(directory)
    # One WAL record per batch, so the resumed sequence counts exactly the
    # committed batches (checkpointed prefix + replayed suffix).
    committed = recovered.durability.last_sequence
    # The WAL decides how much survived: everything the run acknowledged,
    # plus at most the one batch in flight when the crash hit.
    assert applied <= committed <= applied + 1, (site, applied, committed)
    if site == "wal.write" and crashed:
        assert committed == applied  # the torn record must not replay

    clean = Database.from_instance(base)
    _define_views(clean)
    for batch in stream[:committed]:
        clean.transact(batch)
    assert _serialized_instances(recovered) == _serialized_instances(clean), site
    assert recovered.snapshot() == clean.snapshot()

    # Re-register views on the recovered database and drive both replicas
    # through the rest of the stream: they stay bit-identical.
    _define_views(recovered)
    for batch in stream[committed:]:
        recovered.transact(batch)
        clean.transact(batch)
    assert _serialized_instances(recovered) == _serialized_instances(clean), site
    _check_views(recovered)
    _check_views(clean)
    recovered.close()


@pytest.mark.parametrize("site", SWEEP_SITES)
def test_crash_recovery_every_site_default_mode(tmp_path, site):
    recoveries = reliability_stats()["recoveries"]
    _crash_recovery_case(tmp_path, site, seed=0, at=2)
    assert reliability_stats()["recoveries"] == recoveries + 1


@pytest.mark.skipif(
    not FULL_SWEEP, reason="full crash-site x mode-cube sweep: set REPRO_FAULT_SWEEP=1"
)
@pytest.mark.parametrize("threshold", list(MODE_CUBE.values()), ids=list(MODE_CUBE))
@pytest.mark.parametrize("site", SWEEP_SITES)
def test_crash_recovery_full_mode_cube(tmp_path, site, threshold):
    with columnar_settings(threshold=threshold):
        _crash_recovery_case(tmp_path, site, seed=1, at=2)
        _crash_recovery_case(tmp_path, site, seed=2, at=4)


# -- recovery of a fresh directory ------------------------------------------------

def test_create_then_recover_empty_traffic(tmp_path):
    db = create_durable_database(PARENT_SCHEMA, {"PAR": [("a", "b")]}, directory=tmp_path)
    expected = _serialized_instances(db)
    db.close()
    recovered = recover_database(tmp_path)
    assert _serialized_instances(recovered) == expected
    recovered.close()


def test_create_refuses_an_occupied_directory(tmp_path):
    db = create_durable_database(PARENT_SCHEMA, {"PAR": []}, directory=tmp_path)
    db.close()
    with pytest.raises(ReliabilityError):
        create_durable_database(PARENT_SCHEMA, {"PAR": []}, directory=tmp_path)


def test_recover_requires_a_checkpoint(tmp_path):
    with pytest.raises(ReliabilityError):
        recover_database(tmp_path / "nothing-here")
