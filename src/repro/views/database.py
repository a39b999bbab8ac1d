"""A mutable database façade over the immutable object layer.

The paper's queries are pure functions over immutable
:class:`~repro.objects.instance.DatabaseInstance`\\ s; a serving system
mutates.  :class:`Database` bridges the two: it owns one **current**
instance per predicate and applies insert/delete batches to them, telling
its :class:`~repro.views.catalog.ViewCatalog` the exact per-predicate
delta of every batch so materialized views are maintained incrementally
instead of recomputed.

Each predicate has a **live set** that a commit updates in place with
its effective delta, so a commit costs O(delta), never O(relation).
Readers get immutable :class:`~repro.objects.instance.Instance` objects
built from the live sets through the trusted constructor (values are
validated once, on the way in).  A commit only marks the touched
predicates' instances stale; the first :meth:`Database.instance` or
:meth:`Database.snapshot` after it rebuilds each one it needs and caches
it until a later commit touches that predicate.  Instances cache their
sorted view and id columns, so **reconstruction is the cache
invalidation**, and the instances a snapshot hands out never change
underneath their holder.

Every applied batch is appended to a transaction log, which the snapshot
codec (:mod:`repro.views.snapshot`) serializes so a database can be
rebuilt elsewhere and the traffic replayed.

**MVCC epochs.**  Every committed batch advances the database's *epoch*
(an integer, one per batch, durable across recovery — see
:mod:`repro.reliability`).  Because values are hash-consed and instances
immutable, a full snapshot of any epoch is just a handful of reference
swaps; a reader that needs repeatable reads calls :meth:`Database.pin`
and gets an :class:`EpochHandle` whose every read — base predicates,
maintained view values, engine fall-through queries — answers from the
pinned epoch, bit-identical no matter how many batches a concurrent
writer commits.  Snapshot publication is lazy: the *current* epoch is
served live; the moment a writer starts the next batch, any pinned
current epoch is frozen (the ``DatabaseInstance`` plus each healthy
view's served value — all immutable, so freezing is reference capture,
not copying, apart from building any instance the epoch left stale)
into the epoch table, and an epoch's entry is
garbage-collected when its last pin is released.  Writers are serialized
by a per-database writer lock — the "serialized writer queue" the asyncio
serving layer (:mod:`repro.serving`) feeds.  The
:func:`set_mvcc`/:func:`mvcc` ablation switch restores the bare
single-writer façade: pins degrade to advisory (reads always see the
latest state, counted in ``views_stats()['mvcc_bypassed_reads']``), which
is exactly the oracle the ``REPRO_DISABLE_MVCC=1`` CI run compares
against.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Mapping
from contextlib import contextmanager

from repro.errors import EpochError, SchemaError
from repro.observability.metrics import METRICS
from repro.observability.trace import maybe_span, span, tracing_enabled
from repro.objects.domain import belongs_to
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import ComplexValue, value_from_python
from repro.relational.relation import Relation
from repro.reliability.faults import (
    _count as _reliability_count,
    fault_point,
    register_fault_site,
)
from repro.types.schema import DatabaseSchema
from repro.types.type_system import TupleType, U

from repro.views.maintain import Delta, _count as _views_count

SITE_STORE_PUBLISH = register_fault_site(
    "store.publish", "between the WAL append and the in-memory publish"
)


# -- the MVCC ablation switch -------------------------------------------------------

class _MvccState:
    """The process-wide MVCC switch (mirrors the other ablation toggles)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


_MVCC = _MvccState()


def mvcc_enabled() -> bool:
    """Whether databases retain pinned epoch snapshots."""
    return _MVCC.enabled


def set_mvcc(enabled: bool) -> bool:
    """Enable/disable MVCC epoch retention process-wide; returns the
    previous setting.

    With the switch off the database is the bare single-writer façade:
    :meth:`Database.pin` still hands out handles (so serving code runs
    unchanged), but no snapshot is ever frozen and every read through a
    handle observes the *latest* state — the oracle the
    ``REPRO_DISABLE_MVCC=1`` CI run holds the MVCC path against.
    """
    previous = _MVCC.enabled
    _MVCC.enabled = bool(enabled)
    return previous


@contextmanager
def mvcc(enabled: bool = True):
    """Context-manager form of :func:`set_mvcc` (mirrors ``interning(...)``,
    ``columnar_storage(...)``, ``vectorized_filters(...)``, ``codegen(...)``,
    ``durability(...)``)."""
    previous = set_mvcc(enabled)
    try:
        yield
    finally:
        set_mvcc(previous)


class UpdateBatch:
    """One committed batch: the *effective* per-predicate deltas.

    ``deltas`` maps predicate names to :class:`~repro.views.maintain.Delta`
    objects whose ``added`` values were genuinely new and whose
    ``removed`` values were genuinely present — requested inserts of
    existing values and deletes of absent ones are dropped at the door,
    so every downstream consumer can rely on the delta invariant.
    """

    __slots__ = ("deltas",)

    def __init__(self, deltas: dict[str, Delta]) -> None:
        self.deltas = deltas

    def size(self) -> int:
        return sum(len(d.added) + len(d.removed) for d in self.deltas.values())

    def __bool__(self) -> bool:
        return any(self.deltas.values())


class EpochSnapshot:
    """One frozen epoch: the database instance plus per-view served values.

    Everything referenced here is immutable (``DatabaseInstance``,
    ``Instance``, ``Relation``, dicts of ``Relation``), so a frozen epoch
    is a bundle of references, not a copy, and can be read from any
    thread or task without coordination.  ``views`` maps view names to
    the value each *healthy* view served at this epoch; a view that was
    quarantined when the epoch froze maps to ``None`` and is recomputed
    on demand from ``instance`` (see :meth:`EpochHandle.view`).
    """

    __slots__ = ("epoch", "instance", "views")

    def __init__(self, epoch: int, instance: DatabaseInstance, views: dict) -> None:
        self.epoch = epoch
        self.instance = instance
        self.views = views

    def __repr__(self) -> str:
        return f"EpochSnapshot(epoch={self.epoch}, views={sorted(self.views)})"


class EpochHandle:
    """A reader's pin on one epoch: repeatable reads until released.

    Obtained from :meth:`Database.pin`; usable as a context manager.  All
    reads answer *as of* the pinned epoch: while the epoch is still
    current they are served live (no copies are made unless a writer
    actually advances the database), and afterwards from the frozen
    :class:`EpochSnapshot` — bit-identical either way, because the values
    involved are immutable.  With MVCC ablated off
    (:func:`set_mvcc`), reads fall through to the latest state instead
    (counted in ``views_stats()['mvcc_bypassed_reads']``).
    """

    __slots__ = ("_database", "epoch", "_released")

    def __init__(self, database: "Database", epoch: int) -> None:
        self._database = database
        self.epoch = epoch
        self._released = False

    # -- lifecycle -------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the pin (idempotent); the epoch's snapshot is
        garbage-collected once its last pin is gone."""
        if not self._released:
            self._released = True
            self._database.release(self.epoch)

    def __enter__(self) -> "EpochHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- reads -----------------------------------------------------------------
    def _snapshot_or_none(self) -> EpochSnapshot | None:
        if self._released:
            raise EpochError(f"epoch {self.epoch} handle has been released")
        return self._database._resolve_epoch(self.epoch)

    def snapshot(self) -> DatabaseInstance:
        """The pinned epoch's state as an immutable ``DatabaseInstance``.

        Resolving the pin and capturing the live reference happen under
        the database's writer lock as one step: a concurrent commit
        could otherwise freeze-and-advance between the two, handing a
        reader pinned at the outgoing epoch the *next* epoch's state.
        Once captured, everything is immutable and the lock is dropped.
        """
        with self._database._writer_lock:
            frozen = self._snapshot_or_none()
            if frozen is None:
                return self._database.snapshot()
        return frozen.instance

    def instance(self, predicate_name: str) -> Instance:
        """One predicate's instance at the pinned epoch."""
        return self.snapshot().instance(predicate_name)

    def relation(self, predicate_name: str) -> Relation:
        """One flat predicate's relation at the pinned epoch."""
        return Relation.from_instance(self.instance(predicate_name))

    def view(self, name: str):
        """A maintained view's value at the pinned epoch.

        Served from the frozen capture when available; a view that was
        quarantined at freeze time (or defined after it) is recomputed
        over the pinned snapshot instead — the same engine fall-through a
        serving query takes.
        """
        view = self._database.views.view(name)
        # Same atomicity rule as :meth:`snapshot`: resolve + live read
        # under the writer lock; frozen reads drop it immediately.
        with self._database._writer_lock:
            frozen = self._snapshot_or_none()
            if frozen is None:
                return view.value()
        _views_count("epoch_reads_frozen")
        captured = frozen.views.get(name)
        if captured is not None:
            return captured
        return view.compute_at(frozen.instance)

    def query(self, expression, settings=None):
        """Evaluate an algebra expression over the pinned snapshot through
        the engine (the fall-through path for queries no view serves)."""
        from repro.algebra.evaluation import evaluate_expression

        return evaluate_expression(expression, self.snapshot(), settings)


class Database:
    """Named mutable relations/instances with batch updates and views.

    Construct from a schema plus initial per-predicate contents (anything
    :class:`~repro.objects.instance.Instance` accepts, or an existing
    ``DatabaseInstance`` via :meth:`from_instance`).  Mutate with
    :meth:`insert` / :meth:`delete` / :meth:`transact`; read through
    :meth:`instance` / :meth:`relation` / :meth:`snapshot`; define
    materialized views through :attr:`views`.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        assignments: Mapping[str, Instance | Iterable] | None = None,
        *,
        log_updates: bool = True,
        initial_epoch: int = 0,
    ) -> None:
        # Imported here: the catalog imports this module for type checks.
        from repro.views.catalog import ViewCatalog

        assignments = assignments or {}
        self._schema = schema
        # The live sets, updated in place by each commit, and the
        # published instances built from them; ``None`` marks a
        # predicate whose instance a commit left stale (rebuilt on the
        # first read, see :meth:`_built`).
        self._contents: dict[str, set[ComplexValue]] = {}
        self._instances: dict[str, Instance | None] = {}
        for declaration in schema:
            assigned = assignments.get(declaration.name, ())
            instance = (
                assigned
                if isinstance(assigned, Instance)
                else Instance(declaration.type, assigned)
            )
            if instance.type != declaration.type:
                raise SchemaError(
                    f"predicate {declaration.name!r} is declared with type {declaration.type} "
                    f"but the assigned instance has type {instance.type}"
                )
            self._contents[declaration.name] = set(instance.values)
            self._instances[declaration.name] = instance
        extra = set(assignments) - set(schema.predicate_names)
        if extra:
            raise SchemaError(
                f"assignments mention predicates not in the schema: {sorted(extra)}"
            )
        if not isinstance(initial_epoch, int) or initial_epoch < 0:
            raise SchemaError(f"initial_epoch must be a non-negative int, got {initial_epoch!r}")
        self._snapshot: DatabaseInstance | None = None
        self._log: list[dict[str, tuple[tuple, tuple]]] = []
        self._log_updates = log_updates
        self._epoch = initial_epoch
        self._durability = None
        # MVCC: frozen snapshots of past epochs, retained while pinned,
        # plus pin refcounts.  The *current* epoch is served live from
        # self._instances / self._snapshot and is frozen lazily — only
        # if it is still pinned when the next batch starts.
        self._published: dict[int, EpochSnapshot] = {}
        self._pins: dict[int, int] = {}
        # Writers are serialized: transact (and everything that funnels
        # into it — insert/delete, WAL replay, snapshot rewind) runs
        # under this lock, which is also what makes epoch freezing and
        # pin bookkeeping safe against threaded readers.
        self._writer_lock = threading.RLock()
        # Guards the live sets against the readers that rebuild from
        # them: the in-place publish and every rebuild (stored under the
        # same acquisition, so an instance built before a publish is
        # never stored after it) run under this lock.  Never held across
        # the WAL fsync or view maintenance, unlike the writer lock.
        self._publish_lock = threading.Lock()
        self.views = ViewCatalog(self)

    @classmethod
    def from_instance(cls, database: DatabaseInstance, **kwargs) -> "Database":
        """A mutable database seeded with an immutable instance's contents."""
        return cls(
            database.schema,
            {name: database.instance(name) for name in database.schema.predicate_names},
            **kwargs,
        )

    # -- durability ------------------------------------------------------------
    @property
    def durability(self):
        """The attached :class:`~repro.reliability.durable.DurabilityController`
        (``None`` for an in-memory database)."""
        return self._durability

    def attach_durability(self, controller) -> None:
        """Wire a durability controller under this database: every
        subsequent batch is WAL-logged before it publishes (see
        :func:`repro.reliability.durable.create_durable_database` /
        :func:`~repro.reliability.durable.recover_database`)."""
        if self._durability is not None:
            raise SchemaError("this database already has a durability controller")
        self._durability = controller

    def checkpoint(self):
        """Write a checkpoint at the current WAL position (durable only)."""
        if self._durability is None:
            raise SchemaError("this database has no durability controller to checkpoint")
        return self._durability.checkpoint(self)

    def close(self) -> None:
        """Release the WAL file handle, if any (the data is already safe)."""
        if self._durability is not None:
            self._durability.close()

    # -- reads ----------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    @property
    def version(self) -> int:
        """Bumped once per committed effective batch (cache key for
        degraded view reads).  Identical to :attr:`current_epoch`."""
        return self._epoch

    @property
    def current_epoch(self) -> int:
        """The epoch of the live state: ``initial_epoch`` plus one per
        committed effective batch.  On a durable database this matches
        the WAL record sequence of the last committed batch, so
        recovery's epoch equals the last durable epoch."""
        return self._epoch

    # -- MVCC epochs -----------------------------------------------------------
    def pin(self, epoch: int | None = None) -> EpochHandle:
        """Pin an epoch (default: the current one) for repeatable reads.

        Returns an :class:`EpochHandle`; every read through it answers as
        of the pinned epoch until :meth:`EpochHandle.release` (it is a
        context manager, so ``with db.pin() as reader:`` releases on
        exit).  Pinning a past epoch only works while some other pin
        still retains it — otherwise :class:`~repro.errors.EpochError`.
        With MVCC ablated off the pin is advisory (reads see latest).
        """
        with self._writer_lock:
            target = self._epoch if epoch is None else int(epoch)
            if target != self._epoch and target not in self._published:
                if mvcc_enabled():
                    raise EpochError(
                        f"epoch {target} is not retained (current epoch is "
                        f"{self._epoch}; pinned: {sorted(self._published)})"
                    )
            self._pins[target] = self._pins.get(target, 0) + 1
            _views_count("epoch_pins")
            return EpochHandle(self, target)

    def release(self, epoch: int) -> None:
        """Drop one pin on *epoch*; collects its snapshot at zero pins.

        Called by :meth:`EpochHandle.release`; callers normally never
        invoke it directly.
        """
        with self._writer_lock:
            count = self._pins.get(epoch, 0)
            if count <= 1:
                self._pins.pop(epoch, None)
                if epoch != self._epoch and self._published.pop(epoch, None) is not None:
                    _views_count("epochs_collected")
            else:
                self._pins[epoch] = count - 1
            _views_count("epoch_releases")

    def pinned_epochs(self) -> dict[int, int]:
        """The live pins: epoch -> pin count (diagnostics)."""
        with self._writer_lock:
            return dict(self._pins)

    def retained_epochs(self) -> list[int]:
        """Epochs currently answerable: the frozen ones plus the live one."""
        with self._writer_lock:
            return sorted(set(self._published) | {self._epoch})

    def _resolve_epoch(self, epoch: int) -> EpochSnapshot | None:
        """The frozen snapshot for *epoch*, or ``None`` when the read
        should be served live (epoch is current, or MVCC is off)."""
        with self._writer_lock:
            frozen = self._published.get(epoch)
            if frozen is not None:
                return frozen
            if epoch == self._epoch:
                return None
            if mvcc_enabled():
                raise EpochError(
                    f"epoch {epoch} is no longer retained (current epoch is {self._epoch})"
                )
            _views_count("mvcc_bypassed_reads")
            return None

    def _freeze_current_epoch(self) -> None:
        """Freeze the live epoch's snapshot if any reader pins it.

        Called at the start of every commit, *before* anything mutates:
        the live sets and every view's served value still reflect the
        epoch being frozen.  Freezing builds the instances an earlier
        commit left stale (:meth:`snapshot`) and otherwise captures
        references to immutable objects.  Unpinned epochs are never
        frozen; their storage cost is zero.
        """
        if not mvcc_enabled():
            return
        epoch = self._epoch
        if not self._pins.get(epoch) or epoch in self._published:
            return
        self._published[epoch] = EpochSnapshot(
            epoch, self.snapshot(), self.views.capture_values()
        )
        _views_count("epochs_frozen")

    def instance(self, predicate_name: str) -> Instance:
        """The predicate's current instance (a new object after every
        batch that touched the predicate — its caches are never stale).

        The first read after such a batch builds it from the live set;
        later reads at the same epoch return the cached object.
        """
        try:
            instance = self._instances[predicate_name]
        except KeyError:
            raise SchemaError(
                f"predicate {predicate_name!r} is not part of this database"
            ) from None
        if instance is None:
            with self._publish_lock:
                instance = self._built(predicate_name)
        return instance

    def _built(self, name: str) -> Instance:
        """*name*'s published instance, rebuilt from the live set when a
        commit left it stale.  The caller holds ``_publish_lock``, so the
        copy sees no concurrent publish and is stored at its own epoch."""
        instance = self._instances[name]
        if instance is None:
            instance = Instance._from_trusted(
                self._schema.type_of(name), frozenset(self._contents[name])
            )
            self._instances[name] = instance
        return instance

    def __getitem__(self, predicate_name: str) -> Instance:
        return self.instance(predicate_name)

    def relation(self, predicate_name: str) -> Relation:
        """The predicate's current contents as a flat relation (requires a
        flat ``[U,...,U]`` predicate type)."""
        return Relation.from_instance(self.instance(predicate_name))

    def snapshot(self) -> DatabaseInstance:
        """The current state as an immutable ``DatabaseInstance`` (cached
        until the next mutation; safe to hold across batches).  Every
        stale predicate is rebuilt under one acquisition of the publish
        lock, so a snapshot is always exactly one epoch."""
        snapshot = self._snapshot
        if snapshot is None:
            with self._publish_lock:
                snapshot = DatabaseInstance(
                    self._schema, {name: self._built(name) for name in self._instances}
                )
                self._snapshot = snapshot
        return snapshot

    def update_log(self) -> list[dict[str, tuple[tuple, tuple]]]:
        """The committed batches, oldest first (see :mod:`repro.views.snapshot`)."""
        return list(self._log)

    def __len__(self) -> int:
        return sum(len(values) for values in self._contents.values())

    # -- writes ---------------------------------------------------------------
    def insert(self, predicate_name: str, values: Iterable) -> UpdateBatch:
        """Insert a batch into one predicate; returns the effective batch."""
        return self.transact({predicate_name: (values, ())})

    def delete(self, predicate_name: str, values: Iterable) -> UpdateBatch:
        """Delete a batch from one predicate; returns the effective batch."""
        return self.transact({predicate_name: ((), values)})

    def transact(
        self, changes: Mapping[str, tuple[Iterable, Iterable]]
    ) -> UpdateBatch:
        """Apply one multi-predicate batch atomically: commit or rollback.

        *changes* maps predicate names to ``(inserts, deletes)`` pairs.
        Within a batch, deletes are applied before inserts (so a value in
        both ends up present).  The commit protocol:

        1. **validate + plan** — every value is checked against its
           predicate's declared type and the effective delta computed;
           pure, so any error (a typing error, an unknown predicate)
           leaves the database untouched;
        2. **stage** — the outgoing epoch is frozen for any reader that
           pins it (see below); nothing observable changes, and an
           exception here aborts cleanly;
        3. **WAL append** — on a durable database the batch is made
           durable *before* it publishes; a failed append (a full disk,
           an injected fault) aborts the batch with the in-memory state
           untouched, and recovery discards the torn record;
        4. **publish** — each touched live set takes its effective delta
           in place (O(delta) set operations that cannot raise) and its
           published instance is marked stale, then the epoch advances,
           all under the publish lock: a snapshot sees either every
           predicate at the old epoch or every one at the new epoch —
           there is no observable intermediate.  The new instances are
           built by the first read that needs them (:meth:`instance`,
           :meth:`snapshot`), not here;
        5. **view maintenance** — a maintainer failure rolls back and
           quarantines *that view only* (see
           :meth:`~repro.views.catalog.ViewCatalog.maintain`); the batch
           itself stays committed, matching what the WAL now records.

        Writers are serialized: concurrent calls queue on the database's
        writer lock.  Before anything mutates, the live epoch is frozen
        for any reader still pinning it (:meth:`pin`), so pinned reads
        stay bit-identical across this commit.

        With tracing on the commit runs under a ``db.transact`` span
        (child phase spans per commit step, one ``view.maintain`` span
        per view) and observes the ``repro_transact_seconds`` histogram;
        the off path is the bare lock-and-call.
        """
        if not tracing_enabled():
            with self._writer_lock:
                return self._transact_locked(changes)
        start = time.perf_counter()
        with self._writer_lock:
            with span("db.transact") as transact_span:
                batch = self._transact_locked(changes)
                if transact_span is not None:
                    transact_span.attributes["size"] = batch.size()
                    transact_span.attributes["epoch"] = self._epoch
        METRICS.histogram("repro_transact_seconds").observe(
            time.perf_counter() - start
        )
        return batch

    def _transact_locked(
        self, changes: Mapping[str, tuple[Iterable, Iterable]]
    ) -> UpdateBatch:
        # Phase 1: validate + plan (pure).
        deltas: dict[str, Delta] = {}
        with maybe_span("transact.validate"):
            for name, (inserts, deletes) in changes.items():
                if name not in self._contents:
                    raise SchemaError(f"predicate {name!r} is not part of this database")
                declared = self._schema.type_of(name)
                current = self._contents[name]
                removed_set: set[ComplexValue] = set()
                for value in deletes:
                    converted = self._convert(value, declared, name)
                    if converted in current:
                        removed_set.add(converted)
                added_set: set[ComplexValue] = set()
                for value in inserts:
                    converted = self._convert(value, declared, name)
                    if converted in current:
                        removed_set.discard(converted)
                    else:
                        added_set.add(converted)
                if added_set or removed_set:
                    deltas[name] = Delta(added_set, removed_set)
        batch = UpdateBatch(deltas)
        if not deltas:
            return batch
        # Phase 2: stage.  MVCC: freeze the outgoing epoch for its pinned
        # readers while the live state still *is* that epoch (harmless if
        # a later phase aborts — the epoch stays current).
        with maybe_span("transact.stage"):
            self._freeze_current_epoch()
        # Phase 3: write-ahead log — durable before visible.  The record
        # sequence is the epoch this batch publishes, so WAL records are
        # epoch-stamped and recovery's epoch is the last durable one.
        if self._durability is not None:
            with maybe_span("transact.wal"):
                try:
                    self._durability.log_batch(deltas, epoch=self._epoch + 1)
                except Exception:
                    _reliability_count("batches_aborted")
                    raise
        # Phase 4: publish in place (set operations on hashed values —
        # nothing here can raise).
        with maybe_span("transact.publish"):
            fault_point(SITE_STORE_PUBLISH)
            with self._publish_lock:
                for name, delta in deltas.items():
                    live = self._contents[name]
                    live.difference_update(delta.removed)
                    live.update(delta.added)
                    self._instances[name] = None
                self._snapshot = None
                self._epoch += 1
            if self._log_updates:
                self._log.append(
                    {name: (delta.added, delta.removed) for name, delta in deltas.items()}
                )
        # Phase 5: view maintenance (quarantines, never aborts the batch).
        with maybe_span("transact.maintain"):
            self.views.maintain(batch)
        return batch

    def _convert(self, value, declared, name: str) -> ComplexValue:
        converted = value if isinstance(value, ComplexValue) else value_from_python(value)
        if not belongs_to(converted, declared):
            raise SchemaError(
                f"value {converted} does not belong to dom({declared}) and cannot be "
                f"part of predicate {name!r}"
            )
        return converted

    # -- flat-row conveniences -------------------------------------------------
    def insert_rows(self, predicate_name: str, rows: Iterable[tuple]) -> UpdateBatch:
        """Insert plain tuples into a flat predicate (relational traffic)."""
        return self.insert(predicate_name, rows)

    def delete_rows(self, predicate_name: str, rows: Iterable[tuple]) -> UpdateBatch:
        """Delete plain tuples from a flat predicate (relational traffic)."""
        return self.delete(predicate_name, rows)


def flat_arity(type_) -> int | None:
    """The arity of a flat ``[U,...,U]`` type, or ``None`` when not flat."""
    if isinstance(type_, TupleType) and all(c == U for c in type_.component_types):
        return type_.arity
    return None
