"""The view catalog: named materialized views over a mutable database.

Three definition languages, one maintenance discipline:

* **algebra views** (:meth:`ViewCatalog.define_algebra`) — any typed
  algebra expression; compiled once to the engine's physical plan DAG and
  maintained delta-by-delta through :mod:`repro.views.maintain`;
* **relational views** (:meth:`ViewCatalog.define_relational`) — an
  algebra expression with a flat ``[U,...,U]`` output type, served as a
  :class:`~repro.relational.relation.Relation`; same maintenance;
* **Datalog views** (:meth:`ViewCatalog.define_datalog`) — a stratified
  program whose IDB relations are materialized by the semi-naive
  evaluator and kept **resumable**
  (:class:`~repro.datalog.evaluation.SemiNaiveProgram`): an insert-only
  batch on the EDB resumes the fixpoint from the delta; deletions (or
  negation, which is not monotone) fall back to one recomputation.

Every view caches its served value per version, so steady-state reads of
an unchanged view cost a dict lookup.

**Failure discipline** (see :mod:`repro.reliability`): a maintenance
error (say, a powerset outgrowing its budget mid-batch, or an injected
fault) rolls the view's maintainer state back to its pre-batch shape via
the batch's undo journal and **quarantines** only that view — the batch
still commits, every other view is maintained, and the base database is
never poisoned.  Reads of a quarantined view degrade gracefully: they
fall back to an engine recompute over the current database (cached per
database version, counted in ``views_stats()['degraded_reads']``)
instead of serving stale materialized state.  :meth:`View.repair`
re-materializes from the current state and re-arms incremental
maintenance.  A :class:`~repro.reliability.faults.SimulatedCrash` is
*not* handled anywhere on this path — it derives from ``BaseException``
precisely so it rips through like a process kill.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import ReproError, SchemaError
from repro.algebra.evaluation import AlgebraEvaluationSettings, evaluate_expression
from repro.algebra.expressions import AlgebraExpression
from repro.datalog.ast import Program
from repro.datalog.evaluation import DatalogStatistics, SemiNaiveProgram
from repro.engine.execute import DEFAULT_POWERSET_BUDGET
from repro.objects.instance import Instance
from repro.observability.trace import maybe_span
from repro.objects.values import Atom, TupleValue
from repro.relational.relation import Relation
from repro.reliability.faults import fault_point, register_fault_site
from repro.reliability.staging import UndoJournal

from repro.views.database import Database, UpdateBatch, flat_arity
from repro.views.maintain import Delta, _count, _Maintainer

SITE_MAINTAIN_DATALOG = register_fault_site(
    "maintain.datalog", "a Datalog view's resume/recompute step"
)


class ViewError(ReproError):
    """A view could not be defined, maintained or served."""


class View:
    """Common shape of a materialized view (see the subclasses below)."""

    def __init__(self, name: str, database: Database) -> None:
        self.name = name
        self._database = database
        self._version = 0
        self._quarantined: str | None = None
        self._fallback: tuple[int, object] | None = None
        self.stats = {
            "delta_batches": 0,
            "recomputes": 0,
            "quarantines": 0,
            "degraded_reads": 0,
            "repairs": 0,
        }

    @property
    def version(self) -> int:
        """Bumped every time a batch actually changed the view's value."""
        return self._version

    @property
    def quarantined(self) -> str | None:
        """The quarantine reason, or ``None`` while the view serves its
        materialized state normally."""
        return self._quarantined

    def maintain(self, batch: UpdateBatch) -> None:
        """Apply one committed batch, commit-or-rollback.

        A failure rolls the maintainer state back to its pre-batch shape
        (every in-place mutation logged its inverse in the journal) and
        quarantines the view; nothing is re-raised — the batch has
        already committed to the base database, and reads of this view
        degrade to recompute until :meth:`repair`.  Only a
        ``SimulatedCrash`` (a ``BaseException``) escapes, untouched.
        """
        if self._quarantined is not None:
            return
        journal = UndoJournal()
        try:
            self._maintain(batch, journal)
        except Exception as error:
            journal.rollback()
            self._quarantine(error)
        else:
            journal.commit()

    def _quarantine(self, error: Exception) -> None:
        self._quarantined = f"maintenance failed: {type(error).__name__}: {error}"
        self._fallback = None
        self.stats["quarantines"] += 1
        _count("views_quarantined")

    def repair(self) -> "View":
        """Re-materialize from the database's current state and re-arm
        incremental maintenance (works on healthy views too — then it is
        just a rebuild)."""
        self._rebuild()
        self._quarantined = None
        self._fallback = None
        self._version += 1
        self.stats["repairs"] += 1
        _count("view_repairs")
        return self

    def _degraded(self):
        """Serve a quarantined read: :meth:`compute_at` over the current
        database (cached per database version), counting the degradation."""
        self.stats["degraded_reads"] += 1
        _count("degraded_reads")
        version = self._database.version
        cached = self._fallback
        if cached is not None and cached[0] == version:
            return cached[1]
        try:
            value = self.compute_at(self._database.snapshot())
        except Exception as error:
            raise ViewError(
                f"view {self.name!r} is quarantined ({self._quarantined}) and its "
                f"fallback recompute failed: {error}"
            ) from error
        self._fallback = (version, value)
        return value

    def _maintain(self, batch: UpdateBatch, journal: UndoJournal) -> None:
        raise NotImplementedError

    def _rebuild(self) -> None:
        raise NotImplementedError

    def compute_at(self, instance):
        """This view's value over an arbitrary ``DatabaseInstance`` —
        stateless, so an MVCC reader can answer at a pinned epoch even
        when no frozen capture exists (quarantined at freeze time, or
        defined after the pin).  Does not touch maintainer state."""
        raise NotImplementedError


class AlgebraView(View):
    """A view defined by an algebra expression, served as an ``Instance``.

    The materialized value is one mutable member set (the maintainer's
    root output, updated in place per batch).  The first read after a
    change serves a new :class:`~repro.objects.instance.Instance` over a
    frozen copy of it, which builds its own id columns only if a consumer
    asks for them.
    """

    def __init__(
        self,
        name: str,
        expression: AlgebraExpression,
        database: Database,
        powerset_budget: int = DEFAULT_POWERSET_BUDGET,
    ) -> None:
        super().__init__(name, database)
        self.expression = expression
        self._powerset_budget = powerset_budget
        self._rebuild()
        self.output_type = self._maintainer.root.output_type

    def _maintain(self, batch: UpdateBatch, journal: UndoJournal) -> None:
        self._apply_batch(batch, journal)

    def _apply_batch(self, batch: UpdateBatch, journal: UndoJournal | None = None) -> Delta:
        """The one algebra maintenance step (also driven by
        :class:`RelationalView`); returns the root delta."""
        delta = self._maintainer.apply(batch.deltas, journal)
        self.stats["delta_batches"] += 1
        if delta:
            if journal is not None:
                def undo(self=self, version=self._version, served=self._served) -> None:
                    self._version = version
                    self._served = served
                journal.record(undo)
            self._version += 1
            self._served = None
        return delta

    def _rebuild(self) -> None:
        """Load the view over the database's current state: a fresh
        maintainer takes it as its first delta batch."""
        maintainer = _Maintainer(
            self.expression, self._database.schema, powerset_budget=self._powerset_budget
        )
        self._members = maintainer.initialize(self._database.snapshot())
        self._maintainer = maintainer
        self._served: Instance | None = None

    def value(self) -> Instance:
        """The current materialized instance (cached until it changes);
        quarantined views degrade to an engine recompute over the current
        database, honoring the view's powerset budget."""
        if self._quarantined is not None:
            return self._degraded()
        served = self._served
        if served is None:
            served = Instance._from_trusted(self.output_type, frozenset(self._members))
            self._served = served
        return served

    def compute_at(self, instance) -> Instance:
        return evaluate_expression(
            self.expression,
            instance,
            AlgebraEvaluationSettings(powerset_budget=self._powerset_budget),
        )

    def __len__(self) -> int:
        return len(self._members)


class RelationalView(View):
    """A flat algebra view served as a :class:`Relation`.

    Shares :class:`AlgebraView`'s maintenance wholesale; only the served
    shape differs (plain tuples instead of complex values).
    """

    def __init__(
        self, name: str, expression: AlgebraExpression, database: Database
    ) -> None:
        super().__init__(name, database)
        self._inner = AlgebraView(name, expression, database)
        self.expression = expression
        arity = flat_arity(self._inner.output_type)
        if arity is None:
            raise ViewError(
                f"relational view {name!r} requires a flat [U,...,U] definition, "
                f"got output type {self._inner.output_type}"
            )
        self.arity = arity
        self._rows: set[tuple] = {_flat_row(value) for value in self._inner._members}
        self._served: Relation | None = None
        self.stats = self._inner.stats

    def _maintain(self, batch: UpdateBatch, journal: UndoJournal) -> None:
        delta = self._inner._apply_batch(batch, journal)
        if not delta:
            return
        removed_rows = [_flat_row(value) for value in delta.removed]
        added_rows = [_flat_row(value) for value in delta.added]
        def undo(
            self=self,
            version=self._version,
            served=self._served,
            added_rows=added_rows,
            removed_rows=removed_rows,
        ) -> None:
            self._rows.difference_update(added_rows)
            self._rows.update(removed_rows)
            self._version = version
            self._served = served
        journal.record(undo)
        self._rows.difference_update(removed_rows)
        self._rows.update(added_rows)
        self._version += 1
        self._served = None

    def _rebuild(self) -> None:
        self._inner._rebuild()
        self._rows = {_flat_row(value) for value in self._inner._members}
        self._served = None

    def value(self) -> Relation:
        """The current materialized relation (cached until it changes);
        quarantined views degrade to an engine recompute."""
        if self._quarantined is not None:
            return self._degraded()
        served = self._served
        if served is None:
            served = Relation(self.arity, self._rows)
            self._served = served
        return served

    def compute_at(self, instance) -> Relation:
        computed = self._inner.compute_at(instance)
        return Relation(self.arity, {_flat_row(value) for value in computed.values})

    def __len__(self) -> int:
        return len(self._rows)


class DatalogView(View):
    """Materialized IDB relations of a stratified Datalog program.

    ``edb`` maps the program's extensional predicate names to (flat)
    database predicates — by default each EDB predicate reads the
    database predicate of the same name.  Insert-only batches resume the
    semi-naive fixpoint through the kept
    :class:`~repro.datalog.evaluation.SemiNaiveProgram`; deletions and
    negation recompute (counted separately, so benchmarks can tell the
    paths apart).
    """

    def __init__(
        self,
        name: str,
        program: Program,
        database: Database,
        edb: Mapping[str, str] | None = None,
    ) -> None:
        super().__init__(name, database)
        self.program = program
        self._edb_map = dict(edb) if edb is not None else {
            predicate: predicate for predicate in program.edb_predicates
        }
        missing = set(program.edb_predicates) - set(self._edb_map)
        if missing:
            raise ViewError(
                f"datalog view {name!r} does not map EDB predicates {sorted(missing)}"
            )
        for edb_name, predicate in self._edb_map.items():
            if flat_arity(database.schema.type_of(predicate)) is None:
                raise ViewError(
                    f"datalog view {name!r} maps EDB predicate {edb_name!r} to "
                    f"{predicate!r}, which is not a flat relation"
                )
        self.statistics = DatalogStatistics()
        self._evaluation = SemiNaiveProgram(
            program, self._current_edb(), statistics=self.statistics
        )
        self._served: dict[str, Relation] | None = None

    def _current_edb(self) -> dict[str, Relation]:
        return {
            edb_name: self._database.relation(predicate)
            for edb_name, predicate in self._edb_map.items()
        }

    def _maintain(self, batch: UpdateBatch, journal: UndoJournal) -> None:
        inserts: dict[str, list[tuple]] = {}
        has_deletions = False
        relevant = False
        for edb_name, predicate in self._edb_map.items():
            delta = batch.deltas.get(predicate)
            if delta is None or not delta:
                continue
            relevant = True
            if delta.removed:
                has_deletions = True
            if delta.added:
                inserts[edb_name] = [_flat_row(value) for value in delta.added]
        if not relevant:
            return
        fault_point(SITE_MAINTAIN_DATALOG)
        def undo(self=self, version=self._version, served=self._served) -> None:
            self._version = version
            self._served = served
        journal.record(undo)
        self._version += 1
        self._served = None
        if has_deletions or self._evaluation.has_negation:
            _count("datalog_recomputes")
            self.stats["recomputes"] += 1
            old_evaluation = self._evaluation
            journal.record(
                lambda self=self, old=old_evaluation: setattr(self, "_evaluation", old)
            )
            self._evaluation = SemiNaiveProgram(
                self.program, self._current_edb(), statistics=self.statistics
            )
            return
        _count("datalog_resumes")
        self.stats["delta_batches"] += 1
        produced = self._evaluation.resume(inserts)
        def undo_resume(evaluation=self._evaluation, produced=produced) -> None:
            for name, rows in produced.items():
                evaluation.stores[name].retract(rows)
        journal.record(undo_resume)

    def _rebuild(self) -> None:
        self._evaluation = SemiNaiveProgram(
            self.program, self._current_edb(), statistics=self.statistics
        )
        self._served = None

    def value(self) -> dict[str, Relation]:
        """Every predicate's current relation (EDB and IDB), cached;
        quarantined views degrade to a fresh fixpoint over the current
        database (which does not touch the quarantined evaluation)."""
        if self._quarantined is not None:
            return self._degraded()
        served = self._served
        if served is None:
            served = self._evaluation.relations()
            self._served = served
        return served

    def compute_at(self, instance) -> dict[str, Relation]:
        edb = {
            edb_name: Relation.from_instance(instance.instance(predicate))
            for edb_name, predicate in self._edb_map.items()
        }
        return SemiNaiveProgram(self.program, edb).relations()

    def relation(self, predicate: str) -> Relation:
        """One predicate's current relation."""
        return self.value()[predicate]


class ViewCatalog:
    """The named views maintained against one :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._views: dict[str, View] = {}

    # -- definition ------------------------------------------------------------
    def define_algebra(
        self,
        name: str,
        expression: AlgebraExpression,
        powerset_budget: int = DEFAULT_POWERSET_BUDGET,
    ) -> AlgebraView:
        """Materialize an algebra expression under *name*."""
        self._claim(name)
        view = AlgebraView(name, expression, self._database, powerset_budget)
        self._views[name] = view
        return view

    def define_relational(self, name: str, expression: AlgebraExpression) -> RelationalView:
        """Materialize a flat algebra expression as a relation under *name*."""
        self._claim(name)
        view = RelationalView(name, expression, self._database)
        self._views[name] = view
        return view

    def define_datalog(
        self, name: str, program: Program, edb: Mapping[str, str] | None = None
    ) -> DatalogView:
        """Materialize a Datalog program's IDB under *name*."""
        self._claim(name)
        view = DatalogView(name, program, self._database, edb)
        self._views[name] = view
        return view

    def _claim(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ViewError(f"view name must be a non-empty string, got {name!r}")
        if name in self._views:
            raise ViewError(f"a view named {name!r} is already defined")
        if name in self._database.schema.predicate_names:
            raise SchemaError(
                f"view name {name!r} collides with a base predicate"
            )

    # -- lifecycle -------------------------------------------------------------
    def drop(self, name: str) -> None:
        """Forget a view (and its maintenance state)."""
        if name not in self._views:
            raise ViewError(f"no view named {name!r}")
        del self._views[name]

    def maintain(self, batch: UpdateBatch) -> None:
        """Push one committed batch through every view (called by
        :meth:`Database.transact`).

        A view whose maintenance fails rolls back to its pre-batch state
        and is quarantined (see :meth:`View.maintain`); the batch still
        reaches **every other view** and nothing is re-raised — by the
        time this runs the base database has durably committed, so a
        maintainer error must degrade *reads of that one view*, never the
        write path.  Already-quarantined views are skipped until
        :meth:`repair`.
        """
        if not batch:
            return
        for name, view in self._views.items():
            with maybe_span("view.maintain", view=name):
                view.maintain(batch)

    def capture_values(self) -> dict[str, object]:
        """Every healthy view's served value (quarantined views map to
        ``None``) — what an MVCC epoch freeze captures.  Values are the
        same immutable objects :meth:`View.value` serves, so capture is
        reference-cheap; it does force materialization of views nobody
        has read since the last batch."""
        return {
            name: (None if view._quarantined is not None else view.value())
            for name, view in self._views.items()
        }

    # -- quarantine ------------------------------------------------------------
    def quarantined(self) -> dict[str, str]:
        """The quarantined views: name -> reason (empty when all healthy)."""
        return {
            name: view._quarantined
            for name, view in sorted(self._views.items())
            if view._quarantined is not None
        }

    def repair(self, name: str) -> View:
        """Re-materialize one view from current state and re-arm it."""
        return self.view(name).repair()

    def repair_all(self) -> list[str]:
        """Repair every quarantined view; returns their names."""
        names = sorted(self.quarantined())
        for name in names:
            self.repair(name)
        return names

    # -- access ----------------------------------------------------------------
    def view(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"no view named {name!r}") from None

    def __getitem__(self, name: str) -> View:
        return self.view(name)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> list[str]:
        return sorted(self._views)


def _flat_row(value) -> tuple:
    """A flat ``TupleValue`` of atoms as a plain Python row."""
    if not isinstance(value, TupleValue):
        raise ViewError(f"expected a flat tuple value, got {value}")
    row = []
    for component in value.components:
        if not isinstance(component, Atom):
            raise ViewError(f"non-atomic component {component} in a flat tuple")
        row.append(component.value)
    return tuple(row)


__all__ = [
    "AlgebraView",
    "DatalogView",
    "RelationalView",
    "View",
    "ViewCatalog",
    "ViewError",
]
