"""Differential suite for materialized views and delta maintenance.

The central contract: **after every batch of an update stream, every
maintained view equals a from-scratch recompute of its definition over
the database's current snapshot** — for algebra, relational and Datalog
views, with the columnar threshold at 1 and at ``sys.maxsize`` and with
codegen on and off, with the maintenance counters asserted so a silent
fall-back to recomputation cannot fake a pass on incrementalizable plans.

Selectable standalone with ``pytest -m views``.
"""

from __future__ import annotations

import sys

import pytest

from repro.errors import ReproError, SchemaError
from repro.algebra import evaluate_expression
from repro.algebra.expressions import (
    Collapse,
    ConstantOperand,
    ConstantSingleton,
    Difference,
    Intersection,
    Powerset,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
    Union,
    Untuple,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.datalog import evaluate_program, transitive_closure_program
from repro.datalog.builders import non_reachable_program
from repro.engine.codegen import codegen, codegen_enabled
from repro.engine.join import IncrementalIndex
from repro.objects.columnar import VALUE_DICTIONARY, columnar_settings, columnar_threshold
from repro.objects.values import Atom, SetValue, clear_intern_tables
from repro.relational.algebra import project as relational_project
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.views import (
    Database,
    ViewError,
    replay_updates,
    restore_database,
    snapshot_database,
    views_stats,
)
from repro.workloads import (
    random_algebra_expression,
    random_database,
    random_update_stream,
)

pytestmark = pytest.mark.views

ATOMS = ["a", "b", "v0", "v1", "v2"]

PAR = PredicateExpression("PAR")

NESTED_SCHEMA = DatabaseSchema([("R", parse_type("[U, {U}]"))])

#: The cells every differential sweep runs (the views axis itself is the
#: maintained-vs-recomputed comparison inside): ``(threshold, interpreted,
#: fresh_tables)``.  The columnar threshold at 1 puts every stored
#: container on the id-column and mask paths, at ``sys.maxsize`` on the
#: object and per-tuple paths.  An ``interpreted`` cell turns codegen off,
#: so maintenance checks filters and join residuals without a compiled
#: predicate (``condition_holds`` and ``components_hold``) and recompute
#: runs the interpreting executor.  An ``ablation`` cell clears the intern
#: tables first, so the values it builds are equal to, but not the same
#: instances as, the ones the process-wide caches kept from earlier cells.
MODES = [
    pytest.param(
        (threshold, interpreted, fresh_tables),
        id=(
            f"{'interpreted-' if interpreted else ''}{cell}"
            f"-{'ablation' if fresh_tables else 'interned'}"
        ),
    )
    for interpreted in (False, True)
    for cell, threshold in (("vectorized-columnar", 1), ("scalar-object", sys.maxsize))
    for fresh_tables in (False, True)
]


@pytest.fixture(params=MODES)
def mode(request):
    threshold, interpreted, fresh_tables = request.param
    if fresh_tables:
        clear_intern_tables()
    with codegen(codegen_enabled() and not interpreted):
        with columnar_settings(threshold=threshold):
            yield request.param


def _fixed_expressions():
    """A representative definition per maintained operator family."""
    p1, p2 = Projection(PAR, (1,)), Projection(PAR, (2,))
    return {
        "select": Selection(PAR, SelectionCondition.eq(1, ConstantOperand("a"))),
        "select_conj": Selection(
            PAR,
            SelectionCondition.conjunction(
                SelectionCondition.eq(1, 2),
                SelectionCondition.negation(
                    SelectionCondition.eq(2, ConstantOperand("b"))
                ),
            ),
        ),
        "project": p2,
        "join": Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)),
        "union": Union(p1, p2),
        "intersection": Intersection(p1, p2),
        "difference": Difference(p1, p2),
        "product": Product(p1, p2),
        "untuple": Untuple(p1),
        "powerset": Collapse(Powerset(p1)),
    }


def _check(db, views, label):
    snapshot = db.snapshot()
    for name, view in views.items():
        expected = evaluate_expression(view.expression, snapshot)
        assert view.value() == expected, (name, label)


def _drive(db, views, stream):
    """Check every view as loaded, then apply the stream batch by batch,
    checking every view after each."""
    _check(db, views, "loaded")
    for index, batch in enumerate(stream):
        db.transact(batch)
        _check(db, views, index)


@pytest.mark.parametrize("seed", range(4))
def test_fixed_views_track_recompute_across_modes(seed, mode):
    """Every operator family's view equals recompute after every batch of
    a random update stream, in every mode-cube cell — and the counters
    prove the delta path (not node recompute) did the work on the
    incrementalizable definitions."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=10, seed=seed)
    db = Database.from_instance(base)
    expressions = _fixed_expressions()
    incremental = {
        name: db.views.define_algebra(name, expression)
        for name, expression in expressions.items()
        if name != "powerset"
    }
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=5, batch_size=4, seed=seed + 100, initial=base
    )
    before = views_stats()
    _drive(db, incremental, stream)
    after = views_stats()
    assert after["delta_batches"] > before["delta_batches"]
    assert after["delta_node_applications"] > before["delta_node_applications"]
    assert after["recompute_node_applications"] == before["recompute_node_applications"]


@pytest.mark.parametrize("seed", range(2))
def test_powerset_views_recompute_only_their_node(seed, mode):
    """A powerset definition stays correct through mutation via *scoped*
    recompute: the powerset node re-evaluates, everything else deltas."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=6, seed=seed)
    db = Database.from_instance(base)
    # A bare powerset: Collapse(Powerset(E)) would be rewritten away by
    # the logical optimizer and leave nothing to recompute.
    view = db.views.define_algebra("pow", Powerset(Projection(PAR, (1,))))
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=3, seed=seed + 7, initial=base
    )
    before = views_stats()
    _drive(db, {"pow": view}, stream)
    after = views_stats()
    assert after["recompute_node_applications"] > before["recompute_node_applications"]


def test_views_equal_recompute_right_after_repair(mode):
    """repair() reloads a view from the current state as its first delta
    batch; the reloaded view equals recompute before any later batch,
    and the batches after it keep it equal."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=6)
    db = Database.from_instance(base)
    views = {
        name: db.views.define_algebra(name, expression)
        for name, expression in _fixed_expressions().items()
    }
    views["pow"] = db.views.define_algebra("pow", Powerset(Projection(PAR, (1,))))
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=4, seed=16, initial=base
    )
    _drive(db, views, stream[:2])
    for view in views.values():
        view.repair()
    _drive(db, views, stream[2:])


#: Definitions whose constant scans and powersets the load (the first
#: delta batch) treats specially: a constant scan emits its row on the
#: load only, and a powerset recomputes there even over an empty child.
LOAD_DEFINITIONS = {
    "powerset": Powerset(Projection(PAR, (1,))),
    "product_constant": Product(PAR, ConstantSingleton("a")),
    "union_constant": Union(Untuple(Projection(PAR, (1,))), ConstantSingleton("a")),
    "powerset_constant": Powerset(ConstantSingleton("a")),
    "constant_difference": Difference(
        ConstantSingleton("a"), Untuple(Projection(PAR, (2,)))
    ),
}


@pytest.mark.parametrize("count", [0, 8], ids=["empty", "nonempty"])
@pytest.mark.parametrize("name", sorted(LOAD_DEFINITIONS))
def test_constant_and_powerset_views_load_like_recompute(name, count):
    """A view loads to its recompute on an empty and a non-empty PAR, and
    the batches after the load keep it there."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=count, seed=count)
    db = Database.from_instance(base)
    view = db.views.define_algebra(name, LOAD_DEFINITIONS[name])
    if name == "powerset" and count == 0:
        assert view.value().values == {SetValue(())}  # P(∅) = {∅}
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=3, seed=count + 1, initial=base
    )
    _drive(db, {name: view}, stream)


@pytest.mark.parametrize("seed", range(0, 24, 3))
def test_random_views_track_recompute(seed, mode):
    """Seeded random algebra expressions maintained against seeded random
    update streams equal recompute after every batch."""
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=seed)
    expression = random_algebra_expression(PARENT_SCHEMA, seed=seed, size=7)
    db = Database.from_instance(base)
    try:
        view = db.views.define_algebra("v", expression)
    except ReproError:
        pytest.skip("expression exceeds the powerset budget at definition")
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=4, seed=seed + 1, initial=base
    )
    try:
        _drive(db, {"v": view}, stream)
    except ReproError as error:
        if "powerset" in str(error):
            pytest.skip("stream grew a powerset past its budget")
        raise


def _assert_views_encode_no_values(prefix: str) -> None:
    """Define select, project, join, union, intersection and difference
    views over a 47-row ``PAR`` of atoms named after *prefix*, commit 20
    batches of never-seen atoms, and read every view after each commit:
    the process-wide value dictionary gains no id, and each view equals
    recompute."""
    names = [f"{prefix}-{i}" for i in range(48)]
    pairs = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    db = Database(PARENT_SCHEMA, {"PAR": pairs})
    p1, p2 = Projection(PAR, (1,)), Projection(PAR, (2,))
    definitions = {
        "select": Selection(PAR, SelectionCondition.eq(1, ConstantOperand(names[3]))),
        "project": p2,
        "join": Selection(Product(PAR, PAR), SelectionCondition.eq(2, 3)),
        "union": Union(p1, p2),
        "intersection": Intersection(p1, p2),
        "difference": Difference(p1, p2),
    }
    views = {
        name: db.views.define_algebra(name, expression)
        for name, expression in definitions.items()
    }
    for batch in range(20):
        fresh = f"{prefix}-new-{batch}"
        assert VALUE_DICTIONARY.id_of(Atom(fresh)) is None
        inserts = [(names[3], fresh), (fresh, names[batch]), (fresh, fresh + "-leaf")]
        size = len(VALUE_DICTIONARY)
        db.transact({"PAR": (inserts, [pairs[batch]])})
        served = {name: view.value() for name, view in views.items()}
        assert len(VALUE_DICTIONARY) == size, batch
        snapshot = db.snapshot()
        for name, view in views.items():
            assert served[name] == evaluate_expression(view.expression, snapshot), (name, batch)


def test_view_commits_and_reads_encode_no_values():
    """Algebra views keep plain member sets, so committing batches of
    never-seen atoms and reading every view adds no id to the process-wide
    value dictionary — at the default columnar threshold, with every
    set-operation side past it — and each view still equals recompute."""
    assert 48 >= columnar_threshold()
    _assert_views_encode_no_values("view-dict")


def test_view_commits_and_reads_encode_no_values_in_every_mode(mode):
    """In every mode cell — including the columnar threshold at 1, where
    every delta and side set is past it, and codegen off — maintenance and
    reads encode no value and each view equals recompute."""
    threshold, interpreted, fresh_tables = mode
    _assert_views_encode_no_values(
        f"view-dict-{threshold}-{interpreted:d}{fresh_tables:d}"
    )


# -- relational views -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_relational_views_serve_maintained_relations(seed, mode):
    base = random_database(PARENT_SCHEMA, ATOMS, count=10, seed=seed)
    db = Database.from_instance(base)
    view = db.views.define_relational("children", Projection(PAR, (2,)))
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=4, seed=seed + 3, initial=base
    )
    for batch in stream:
        db.transact(batch)
        expected = relational_project(db.relation("PAR"), [2])
        assert view.value() == expected


def test_relational_views_require_flat_definitions():
    db = Database(NESTED_SCHEMA, {"R": [("x", frozenset({"y"}))]})
    with pytest.raises(ViewError):
        db.views.define_relational("r", PredicateExpression("R"))


# -- Datalog views ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_datalog_views_resume_on_inserts_and_recompute_on_deletes(seed, mode):
    program = transitive_closure_program()
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=seed)
    db = Database.from_instance(base)
    view = db.views.define_datalog("tc", program, edb={"par": "PAR"})
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=5, batch_size=3, seed=seed + 11, initial=base
    )
    for batch in stream:
        applied = db.transact(batch)
        oracle = evaluate_program(program, {"par": db.relation("PAR")})
        assert view.value() == oracle
        delta = applied.deltas.get("PAR")
        if delta is None:
            continue
    # The stream mixes inserts and deletes, so both paths must have run.
    assert view.stats["delta_batches"] > 0 or view.stats["recomputes"] > 0


def test_datalog_insert_only_traffic_never_recomputes():
    program = transitive_closure_program()
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    view = db.views.define_datalog("tc", program, edb={"par": "PAR"})
    before = views_stats()
    db.insert("PAR", [("b", "v0"), ("v0", "v1")])
    db.insert("PAR", [("v1", "v2")])
    after = views_stats()
    assert after["datalog_resumes"] - before["datalog_resumes"] == 2
    assert after["datalog_recomputes"] == before["datalog_recomputes"]
    assert view.stats["recomputes"] == 0
    oracle = evaluate_program(program, {"par": db.relation("PAR")})
    assert view.value() == oracle


def test_datalog_negation_always_recomputes():
    """Stratified negation is not monotone, so even insert-only batches
    must recompute."""
    program = non_reachable_program()
    assert any(not lit.positive for rule in program.rules for lit in rule.body)
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    view = db.views.define_datalog("nr", program, edb={"par": "PAR"})
    db.insert("PAR", [("b", "v0")])
    assert view.stats["recomputes"] == 1
    oracle = evaluate_program(program, {"par": db.relation("PAR")})
    assert view.value() == oracle


# -- database semantics -----------------------------------------------------------

def test_transact_applies_effective_deltas_only():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    batch = db.transact({"PAR": ([("a", "b"), ("b", "v0")], [("v0", "v1")])})
    delta = batch.deltas["PAR"]
    assert len(delta.added) == 1 and not delta.removed
    assert ("b", "v0") in db.relation("PAR").tuples


def test_transact_delete_before_insert_within_a_batch():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    db.transact({"PAR": ([("a", "b")], [("a", "b")])})
    assert ("a", "b") in db.relation("PAR").tuples


def test_transact_is_atomic_on_type_errors():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    with pytest.raises(SchemaError):
        db.transact({"PAR": ([("ok", "row"), "not-a-pair"], ())})
    assert db.relation("PAR").tuples == frozenset({("a", "b")})


def test_view_names_cannot_collide():
    db = Database(PARENT_SCHEMA, {"PAR": []})
    db.views.define_algebra("v", PAR)
    with pytest.raises(ViewError):
        db.views.define_algebra("v", PAR)
    with pytest.raises(SchemaError):
        db.views.define_algebra("PAR", PAR)
    db.views.drop("v")
    db.views.define_algebra("v", PAR)


def test_failing_views_quarantine_degrade_and_repair():
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    view = db.views.define_algebra(
        "pow", Powerset(Projection(PAR, (1,))), powerset_budget=2
    )
    neighbour = db.views.define_algebra("all", PAR)
    # The batch commits even though 'pow' outgrows its budget mid-batch:
    # maintenance failures quarantine one view, never abort the write.
    db.insert("PAR", [("v0", "x"), ("v1", "x"), ("v2", "x")])
    assert len(db.relation("PAR")) == 4
    assert view.quarantined is not None
    assert db.views.quarantined() == {"pow": view.quarantined}
    # The batch still reached the healthy neighbour, and later writes
    # keep flowing (the quarantined view is skipped).
    assert neighbour.value() == evaluate_expression(PAR, db.snapshot())
    db.insert("PAR", [("v3", "x")])
    assert neighbour.value() == evaluate_expression(PAR, db.snapshot())
    assert len(neighbour.value()) == 5
    # Reads of the quarantined view degrade to an engine recompute that
    # honors the view's powerset budget — still over it, so they raise
    # the one clear error instead of serving stale materialized state.
    with pytest.raises(ViewError):
        view.value()
    # Shrinking the base back under budget: the degraded read now serves
    # the correct recomputed value, and repair() re-arms maintenance.
    db.delete("PAR", [("v0", "x"), ("v1", "x"), ("v2", "x"), ("v3", "x")])
    expected = evaluate_expression(
        Powerset(Projection(PAR, (1,))), db.snapshot()
    )
    assert view.value() == expected
    assert view.quarantined is not None  # degraded serve, not repaired yet
    db.views.repair("pow")
    assert view.quarantined is None
    assert db.views.quarantined() == {}
    assert view.value() == expected
    db.insert("PAR", [("z", "x")])
    assert view.value() == evaluate_expression(
        Powerset(Projection(PAR, (1,))), db.snapshot()
    )


# -- cache invalidation under mutation (satellite) --------------------------------

def test_instance_caches_rebuild_after_mutation(mode):
    """`Instance.ids()` / `coordinate_ids()` must reflect every batch: the
    database serves a *new* instance per mutated predicate, so the cached
    columns of the old object can never be served stale."""
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b"), ("b", "v0")]})
    before_instance = db.instance("PAR")
    before_ids = before_instance.ids()
    before_column = before_instance.coordinate_ids(1)
    db.insert("PAR", [("v1", "v2")])
    after_instance = db.instance("PAR")
    assert after_instance is not before_instance
    assert len(after_instance.ids()) == 3
    assert len(after_instance.coordinate_ids(1)) == 3
    # The old object's caches are untouched (snapshots stay stable).
    assert before_instance.ids() == before_ids
    assert before_instance.coordinate_ids(1) == before_column
    db.delete("PAR", [("a", "b")])
    assert len(db.instance("PAR").ids()) == 2
    assert len(db.instance("PAR").coordinate_ids(2)) == 2


def test_relation_caches_rebuild_after_mutation(mode):
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b"), ("b", "v0")]})
    first = db.relation("PAR")
    first_ids = list(first.ids())
    db.insert("PAR", [("v1", "v2")])
    second = db.relation("PAR")
    assert second is not first
    assert len(second.ids()) == 3
    assert len(second.coordinate_ids(1)) == 3
    assert list(first.ids()) == first_ids


def test_served_view_instances_are_replaced_not_mutated(mode):
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    view = db.views.define_algebra("all", PAR)
    first = view.value()
    assert view.value() is first  # cached while unchanged
    db.insert("PAR", [("b", "v0")])
    second = view.value()
    assert second is not first
    assert len(second) == 2 and len(first) == 1
    # The served instance builds its own id column on first use; it must
    # agree with the base instance's.
    assert second.ids() == db.instance("PAR").ids()


# -- snapshot / replay ------------------------------------------------------------

def test_snapshot_restore_and_replay_round_trip(mode):
    base = random_database(PARENT_SCHEMA, ATOMS, count=8, seed=2)
    db = Database.from_instance(base)
    view = db.views.define_algebra("u", _fixed_expressions()["union"])
    stream = random_update_stream(
        PARENT_SCHEMA, ATOMS, batches=4, batch_size=4, seed=21, initial=base
    )
    for batch in stream:
        db.transact(batch)
    data = snapshot_database(db)

    current = restore_database(data)
    assert current.snapshot() == db.snapshot()

    rewound = restore_database(data, rewind=True)
    assert rewound.snapshot() == base
    replayed_view = rewound.views.define_algebra("u", _fixed_expressions()["union"])
    assert replay_updates(rewound, data["log"]) == len(data["log"])
    assert rewound.snapshot() == db.snapshot()
    assert replayed_view.value() == view.value()


def test_snapshot_is_exported_through_io():
    import repro.io as io

    assert io.snapshot_database is snapshot_database


# -- index hooks ------------------------------------------------------------------

def test_incremental_index_remove():
    index = IncrementalIndex([(1, "a"), (2, "a"), (3, "b")], key=lambda row: row[1])
    index.remove((1, "a"))
    assert index.get("a") == [(2, "a")]
    index.remove((3, "b"))
    assert index.get("b") == []
    with pytest.raises(KeyError):
        index.remove((9, "z"))


# -- unified runtime stats (satellite) --------------------------------------------

def test_runtime_stats_aggregates_all_families():
    from repro.objects import reset_runtime_stats, runtime_stats

    stats = runtime_stats()
    assert set(stats) == {
        "interning", "columnar", "vectorized", "codegen", "joinorder", "views",
        "reliability", "observability",
    }
    db = Database(PARENT_SCHEMA, {"PAR": [("a", "b")]})
    db.views.define_algebra("v", PAR)
    db.insert("PAR", [("b", "v0")])
    assert runtime_stats()["views"]["delta_batches"] > 0
    reset_runtime_stats()
    cleared = runtime_stats()
    assert all(
        value == 0 for family in cleared.values() for value in family.values()
    ), cleared
