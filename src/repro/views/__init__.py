"""Materialized views with delta-driven incremental maintenance.

The top of the layer stack: everything below evaluates a query once over
an immutable database; this package serves the *same* query again and
again over data that changes a little between requests — the ROADMAP's
"heavy traffic" scenario.  A :class:`~repro.views.database.Database` is a
mutable façade (named instances, ``insert``/``delete``/``transact``
batches); its :class:`~repro.views.catalog.ViewCatalog` holds
materialized views defined by algebra expressions, flat relational
queries or Datalog programs, each maintained **incrementally** from the
exact delta of every committed batch by the delta compiler in
:mod:`repro.views.maintain` — reusing the engine's optimized plan DAGs,
the vectorized selection masks, the columnar id-delta kernels and the
semi-naive Datalog machinery rather than reinventing any of them.

Quick tour (also ``examples/views_tour.py``)::

    from repro.views import Database
    from repro.algebra import PredicateExpression, Projection

    db = Database(schema, {"PAR": [("tom", "mary")]})
    children = db.views.define_algebra("children", Projection(PredicateExpression("PAR"), (2,)))
    db.insert("PAR", [("mary", "sue")])
    children.value()          # maintained, not recomputed
"""

from repro.views.catalog import (
    AlgebraView,
    DatalogView,
    RelationalView,
    View,
    ViewCatalog,
    ViewError,
)
from repro.views.database import (
    Database,
    EpochHandle,
    EpochSnapshot,
    UpdateBatch,
)
from repro.views.maintain import Delta, views_stats
from repro.views.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    load_snapshot,
    replay_updates,
    restore_database,
    save_snapshot,
    snapshot_database,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "AlgebraView",
    "Database",
    "DatalogView",
    "Delta",
    "EpochHandle",
    "EpochSnapshot",
    "RelationalView",
    "UpdateBatch",
    "View",
    "ViewCatalog",
    "ViewError",
    "load_snapshot",
    "replay_updates",
    "restore_database",
    "save_snapshot",
    "snapshot_database",
    "views_stats",
]
