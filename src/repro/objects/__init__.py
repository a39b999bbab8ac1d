"""Complex objects, instances and databases (Section 2 of the paper).

The domain of a type is defined recursively: ``dom(U) = U`` (the atomic
universe), ``dom({T})`` is the finite powerset of ``dom(T)``, and
``dom([T1, ..., Tn]) = dom(T1) x ... x dom(Tn)``.  An *instance* of ``T`` is
a finite subset of ``dom(T)``; a *database instance* assigns an instance to
every predicate of a schema.
"""

from repro.objects.values import (
    Atom,
    ComplexValue,
    SetValue,
    TupleValue,
    atom,
    clear_intern_tables,
    intern_stats,
    intern_table_sizes,
    make_set,
    make_tuple,
    value_from_python,
    value_to_python,
)
from repro.objects.columnar import (
    ROW_DICTIONARY,
    VALUE_DICTIONARY,
    columnar_dispatch,
    columnar_settings,
    columnar_stats,
    columnar_threshold,
    set_columnar_threshold,
)
from repro.objects.domain import belongs_to, check_belongs
from repro.objects.active_domain import active_domain, active_domain_of_instance
from repro.objects.constructive import (
    clear_constructive_domain_cache,
    constructive_domain,
    constructive_domain_size,
    iter_constructive_domain,
)
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.stats import reset_runtime_stats, runtime_stats

__all__ = [
    "Atom",
    "ComplexValue",
    "SetValue",
    "TupleValue",
    "atom",
    "clear_intern_tables",
    "intern_stats",
    "intern_table_sizes",
    "ROW_DICTIONARY",
    "VALUE_DICTIONARY",
    "columnar_dispatch",
    "columnar_settings",
    "columnar_stats",
    "columnar_threshold",
    "set_columnar_threshold",
    "make_set",
    "make_tuple",
    "value_from_python",
    "value_to_python",
    "belongs_to",
    "check_belongs",
    "active_domain",
    "active_domain_of_instance",
    "clear_constructive_domain_cache",
    "constructive_domain",
    "constructive_domain_size",
    "iter_constructive_domain",
    "DatabaseInstance",
    "Instance",
    "reset_runtime_stats",
    "runtime_stats",
]
