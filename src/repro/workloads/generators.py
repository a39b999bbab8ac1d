"""Deterministic workload generators used by benchmarks, examples and tests.

The paper has no dataset; its experiments are worked examples over small
synthetic instances.  The generators here produce the instance families the
benchmarks sweep over — chains, cycles, trees, random graphs, genealogies,
random complex objects of a given type — all seeded so that every run of the
benchmark suite sees exactly the same data.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence

from repro.errors import ReproError
from repro.algebra.expressions import (
    AlgebraExpression,
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
from repro.calculus.builders import PARENT_SCHEMA, PERSON_SCHEMA
from repro.datalog.ast import Atom as DatalogAtom
from repro.datalog.ast import Literal as DatalogLiteral
from repro.datalog.ast import Program as DatalogProgram
from repro.datalog.ast import Rule as DatalogRule
from repro.objects.constructive import constructive_domain_size, iter_constructive_domain
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import ComplexValue, structural_sort_key
from repro.relational.relation import Relation
from repro.second_order.formulas import (
    SOAnd,
    SOConstant,
    SOEquals,
    SOExists,
    SOExistsRelation,
    SOForall,
    SOForallRelation,
    SOFormula,
    SOImplies,
    SONot,
    SOOr,
    SORelationAtom,
    SOTerm,
    SOVariable,
)
from repro.types.schema import DatabaseSchema
from repro.types.type_system import ComplexType, SetType, TupleType, U, tuple_type
from repro.utils.iteration import bounded


class WorkloadError(ReproError):
    """A workload could not be generated with the requested parameters."""


def _names(count: int, prefix: str = "v") -> list[str]:
    if count < 0:
        raise WorkloadError(f"cannot generate {count} names")
    return [f"{prefix}{index}" for index in range(count)]


# -- flat graph / relation workloads -------------------------------------------

def chain_pairs(length: int, prefix: str = "v") -> list[tuple[str, str]]:
    """The edge list of a simple path ``v0 -> v1 -> ... -> v<length>``."""
    names = _names(length + 1, prefix)
    return list(zip(names[:-1], names[1:]))


def cycle_pairs(length: int, prefix: str = "v") -> list[tuple[str, str]]:
    """The edge list of a directed cycle on *length* vertices."""
    if length < 1:
        raise WorkloadError(f"a cycle needs at least one vertex, got {length}")
    names = _names(length, prefix)
    return list(zip(names, names[1:] + names[:1]))


def binary_tree_pairs(depth: int, prefix: str = "v") -> list[tuple[str, str]]:
    """Parent->child edges of a complete binary tree of the given depth."""
    if depth < 0:
        raise WorkloadError(f"tree depth must be non-negative, got {depth}")
    pairs: list[tuple[str, str]] = []
    node_count = 2 ** (depth + 1) - 1
    for index in range(node_count):
        for child in (2 * index + 1, 2 * index + 2):
            if child < node_count:
                pairs.append((f"{prefix}{index}", f"{prefix}{child}"))
    return pairs


def random_graph_pairs(
    vertex_count: int, edge_count: int, seed: int = 0, prefix: str = "v"
) -> list[tuple[str, str]]:
    """A random simple directed graph with the requested numbers of vertices and edges."""
    if vertex_count < 1:
        raise WorkloadError(f"a graph needs at least one vertex, got {vertex_count}")
    maximum = vertex_count * (vertex_count - 1)
    if edge_count > maximum:
        raise WorkloadError(
            f"{edge_count} edges requested but only {maximum} distinct non-loop edges exist"
        )
    names = _names(vertex_count, prefix)
    rng = random.Random(seed)
    edges: set[tuple[str, str]] = set()
    while len(edges) < edge_count:
        source, target = rng.choice(names), rng.choice(names)
        if source != target:
            edges.add((source, target))
    return sorted(edges)


def parent_database(pairs: Sequence[tuple[str, str]]) -> DatabaseInstance:
    """Wrap an edge list as the Example 2.4 database ``(PAR: [U, U])``."""
    return DatabaseInstance.build(PARENT_SCHEMA, PAR=list(pairs))


def person_database(count: int, prefix: str = "p") -> DatabaseInstance:
    """The Example 3.2 database ``(PERSON: U)`` with *count* persons."""
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=_names(count, prefix))


def genealogy_database(generations: int, children_per_person: int = 2) -> DatabaseInstance:
    """A multi-generation genealogy as a parent database.

    Generation 0 is a single ancestor; every person in generation ``g`` has
    *children_per_person* children in generation ``g + 1``.
    """
    if generations < 1:
        raise WorkloadError(f"a genealogy needs at least one generation, got {generations}")
    if children_per_person < 1:
        raise WorkloadError(
            f"children_per_person must be at least 1, got {children_per_person}"
        )
    pairs: list[tuple[str, str]] = []
    previous = ["g0_p0"]
    for generation in range(1, generations):
        current: list[str] = []
        for parent_index, parent in enumerate(previous):
            for child_index in range(children_per_person):
                child = f"g{generation}_p{parent_index * children_per_person + child_index}"
                pairs.append((parent, child))
                current.append(child)
        previous = current
    return parent_database(pairs)


# -- complex-object workloads -------------------------------------------------------

def random_objects(
    type_: ComplexType,
    atoms: Sequence[object],
    count: int,
    seed: int = 0,
    enumeration_budget: int = 200_000,
) -> list[ComplexValue]:
    """Sample *count* distinct objects of ``cons_atoms(type_)`` deterministically.

    The constructive domain is enumerated up to *enumeration_budget* objects
    and sampled without replacement with the seeded generator; asking for
    more objects than the (possibly truncated) domain holds is an error.
    """
    if count < 0:
        raise WorkloadError(f"cannot sample {count} objects")
    domain_size = constructive_domain_size(type_, len(set(atoms)))
    pool_size = min(domain_size, enumeration_budget)
    if count > pool_size:
        raise WorkloadError(
            f"requested {count} objects but only {pool_size} are available "
            f"(domain size {domain_size}, budget {enumeration_budget})"
        )
    pool = list(
        bounded(
            iter_constructive_domain(type_, frozenset(atoms)),
            enumeration_budget,
            what=f"cons({type_})",
        )
    )
    rng = random.Random(seed)
    return rng.sample(pool, count)


def random_instance(
    type_: ComplexType,
    atoms: Sequence[object],
    count: int,
    seed: int = 0,
) -> Instance:
    """An instance of *type_* holding *count* deterministically sampled objects."""
    return Instance(type_, random_objects(type_, atoms, count, seed=seed))


def random_database(
    schema: DatabaseSchema,
    atoms: Sequence[object],
    count: int = 6,
    seed: int = 0,
) -> DatabaseInstance:
    """A deterministic random database instance of *schema*.

    Each predicate gets up to *count* objects sampled from its type's
    constructive domain over *atoms* (fewer when the domain is smaller).
    """
    assignments: dict[str, Instance] = {}
    for offset, declaration in enumerate(schema):
        available = min(count, constructive_domain_size(declaration.type, len(set(atoms))))
        assignments[declaration.name] = random_instance(
            declaration.type, atoms, available, seed=seed + offset
        )
    return DatabaseInstance(schema, assignments)


def random_update_stream(
    schema: DatabaseSchema,
    atoms: Sequence[object],
    batches: int = 10,
    batch_size: int = 4,
    seed: int = 0,
    initial: DatabaseInstance | None = None,
    insert_bias: float = 0.6,
    enumeration_budget: int = 20_000,
) -> list[dict[str, tuple[list[ComplexValue], list[ComplexValue]]]]:
    """A deterministic stream of insert/delete batches against *schema*.

    Returns *batches* update batches in the shape
    :meth:`repro.views.database.Database.transact` takes: each batch maps
    predicate names to ``(inserts, deletes)`` lists of complex values.
    The generator tracks the simulated contents of every predicate
    (seeded from *initial*, typically the matching
    :func:`random_database`), so deletes always name rows that are
    currently present and inserts rows that are currently absent — every
    generated batch is an *effective* delta, the contract the views
    differential sweep and the X24 benchmark rely on.  Inserts draw from
    the predicate's constructive domain over *atoms* (enumerated once, up
    to *enumeration_budget* objects); *insert_bias* is the probability
    that any one change is an insert rather than a delete.  The same seed
    always yields the same stream.
    """
    if batches < 0 or batch_size < 1:
        raise WorkloadError(
            f"need non-negative batches and a positive batch size, got {batches}/{batch_size}"
        )
    rng = random.Random(seed)
    pools: dict[str, list[ComplexValue]] = {}
    states: dict[str, _StreamState] = {}
    for declaration in schema:
        pools[declaration.name] = list(
            bounded(
                iter_constructive_domain(declaration.type, frozenset(atoms)),
                enumeration_budget,
                what=f"cons({declaration.type})",
            )
        )
        current = (
            # Sorted once so the simulated state (and with it the whole
            # stream) is independent of set iteration order / hash seeds.
            sorted(initial.instance(declaration.name).values, key=structural_sort_key)
            if initial is not None
            else []
        )
        states[declaration.name] = _StreamState(current)

    names = list(schema.predicate_names)
    stream: list[dict[str, tuple[list[ComplexValue], list[ComplexValue]]]] = []
    for _ in range(batches):
        batch: dict[str, tuple[list[ComplexValue], list[ComplexValue]]] = {}
        # A batch is applied *simultaneously*, so one value must not be
        # both inserted and deleted within it: everything touched this
        # batch is off-limits for further changes.
        touched: dict[str, set[ComplexValue]] = {name: set() for name in names}
        for _ in range(batch_size):
            name = rng.choice(names)
            inserts, deletes = batch.setdefault(name, ([], []))
            state = states[name]
            off_limits = touched[name]
            insertable = _pick_absent(pools[name], state.members, off_limits, rng)
            deletable = state.pick_present(off_limits, rng)
            if insertable is not None and (rng.random() < insert_bias or deletable is None):
                state.insert(insertable)
                off_limits.add(insertable)
                inserts.append(insertable)
            elif deletable is not None:
                state.delete(deletable)
                off_limits.add(deletable)
                deletes.append(deletable)
        stream.append({name: sides for name, sides in batch.items() if any(sides)})
    return stream


class _StreamState:
    """The simulated contents of one predicate while a stream is built.

    Keeps a membership set plus a deterministic *ordered* list of members
    (initial sorted order, then insertion order) so random picks are
    reproducible across processes regardless of hash seeds, and O(1)
    expected — deletions leave tombstones in the list, compacted once
    they dominate.
    """

    __slots__ = ("members", "order")

    def __init__(self, initial: list) -> None:
        self.members: set = set(initial)
        self.order: list = list(initial)

    def insert(self, value) -> None:
        self.members.add(value)
        self.order.append(value)

    def delete(self, value) -> None:
        self.members.discard(value)
        if len(self.order) > 16 and len(self.order) > 2 * len(self.members):
            self.order = [member for member in self.order if member in self.members]

    def pick_present(self, off_limits: set, rng: random.Random):
        """A current member outside *off_limits*, or ``None``."""
        order, members = self.order, self.members
        if not members:
            return None
        for _ in range(32):
            value = order[rng.randrange(len(order))]
            if value in members and value not in off_limits:
                return value
        for value in order:
            if value in members and value not in off_limits:
                return value
        return None


def _pick_absent(pool, current, off_limits, rng: random.Random):
    """A pool value outside *current* and *off_limits*, or ``None``.

    Rejection-samples so that benchmark-sized pools (tens of thousands of
    candidates) cost O(1) expected per pick; the exact full scan only
    runs when the pool is nearly exhausted.
    """
    if not pool:
        return None
    for _ in range(32):
        value = pool[rng.randrange(len(pool))]
        if value not in current and value not in off_limits:
            return value
    for value in pool:
        if value not in current and value not in off_limits:
            return value
    return None


# -- client-session scripts -----------------------------------------------------

def client_session_script(
    schema: DatabaseSchema,
    atoms: Sequence[object],
    operations: int = 100,
    seed: int = 0,
    read_ratio: float = 0.99,
    views: Sequence[str] = (),
    write_batch_size: int = 2,
) -> list[tuple]:
    """One client session's deterministic operation script for the
    serving layer (:mod:`repro.serving.workload`).

    Returns *operations* ops, each a tuple: reads are ``("epoch",)``,
    ``("get", predicate)`` or ``("view", name)`` (when *views* names
    any); writes are ``("insert", predicate, rows)`` /
    ``("delete", predicate, rows)`` with plain flat rows sampled from
    *atoms*.  *read_ratio* is the probability any one op is a read — the
    serving benchmark's 99:1 mix is ``read_ratio=0.99``.  Writes only
    target flat ``[U,...,U]`` predicates (the wire protocol's row
    shape); deletes of absent rows and inserts of present ones are fine —
    the database's effective-delta planning drops them at the door.  The
    same seed always yields the same script.
    """
    if operations < 0:
        raise WorkloadError(f"need a non-negative operation count, got {operations}")
    if not 0.0 <= read_ratio <= 1.0:
        raise WorkloadError(f"read_ratio must be within [0, 1], got {read_ratio}")
    rng = random.Random(seed)
    predicates = list(schema.predicate_names)
    writable = [
        (declaration.name, declaration.type.arity)
        for declaration in schema
        if isinstance(declaration.type, TupleType)
        and all(component == U for component in declaration.type.component_types)
    ]
    if not predicates:
        raise WorkloadError("schema has no predicates to read")
    atom_pool = list(atoms)
    views = list(views)
    script: list[tuple] = []
    for _ in range(operations):
        if not writable or rng.random() < read_ratio:
            kind = rng.randrange(10)
            if kind == 0:
                script.append(("epoch",))
            elif views and kind <= 5:
                script.append(("view", rng.choice(views)))
            else:
                script.append(("get", rng.choice(predicates)))
        else:
            name, arity = writable[rng.randrange(len(writable))]
            rows = [
                tuple(rng.choice(atom_pool) for _ in range(arity))
                for _ in range(write_batch_size)
            ]
            script.append((rng.choice(("insert", "delete")), name, rows))
    return script


# -- random Datalog programs ----------------------------------------------------

#: Variable pool for generated Datalog rules.
_DATALOG_VARIABLES = ("X", "Y", "Z", "W")


def random_datalog_program(
    seed: int = 0,
    idb_count: int = 3,
    rules_per_predicate: int = 2,
    max_body_literals: int = 3,
    negation_probability: float = 0.25,
    constants: Sequence[object] = ("v0", "v1"),
) -> DatalogProgram:
    """Generate a deterministic, safe, stratifiable random Datalog¬ program.

    One binary EDB predicate ``e`` plus *idb_count* IDB predicates
    ``p0..p<n-1>`` of arity 1 or 2.  The body of a rule for ``p_i`` draws
    positive literals from ``e`` and ``p_j`` with ``j <= i`` (so recursion
    is allowed) and negated literals only from ``e`` and ``p_j`` with
    ``j < i`` — a layered construction that is stratifiable by design.
    Safety is enforced by drawing head and negated-literal variables from
    the variables of the positive body.

    The generator exists for the semi-naive-vs-naive equivalence sweeps
    (``tests/test_datalog_seminaive.py``): the same seed always yields the
    same program, so failures reproduce.
    """
    if idb_count < 1:
        raise WorkloadError(f"need at least one IDB predicate, got {idb_count}")
    rng = random.Random(seed)
    arities = {"e": 2}
    for index in range(idb_count):
        arities[f"p{index}"] = rng.choice((1, 2, 2))

    rules: list[DatalogRule] = []
    for index in range(idb_count):
        head_predicate = f"p{index}"
        positive_pool = ["e"] + [f"p{j}" for j in range(index + 1)]
        negative_pool = ["e"] + [f"p{j}" for j in range(index)]
        for _ in range(rng.randint(1, rules_per_predicate)):
            rules.append(
                _random_rule(
                    head_predicate,
                    arities,
                    positive_pool,
                    negative_pool,
                    max_body_literals,
                    negation_probability,
                    constants,
                    rng,
                )
            )
    return DatalogProgram(rules, edb_predicates=["e"])


def _random_rule(
    head_predicate: str,
    arities: dict[str, int],
    positive_pool: Sequence[str],
    negative_pool: Sequence[str],
    max_body_literals: int,
    negation_probability: float,
    constants: Sequence[object],
    rng: random.Random,
) -> DatalogRule:
    body: list[DatalogLiteral] = []
    body_variables: list[str] = []
    for _ in range(rng.randint(1, max_body_literals)):
        predicate = rng.choice(list(positive_pool))
        terms = []
        for _ in range(arities[predicate]):
            if constants and rng.random() < 0.15:
                terms.append(rng.choice(list(constants)))
            else:
                variable = rng.choice(_DATALOG_VARIABLES)
                terms.append(variable)
                if variable not in body_variables:
                    body_variables.append(variable)
        body.append(DatalogLiteral(DatalogAtom(predicate, terms)))
    if not body_variables:
        # All-constant body: force one variable literal so the head is safe.
        body.append(DatalogLiteral(DatalogAtom("e", ["X", "Y"])))
        body_variables = ["X", "Y"]
    if negative_pool and rng.random() < negation_probability:
        predicate = rng.choice(list(negative_pool))
        terms = [rng.choice(body_variables) for _ in range(arities[predicate])]
        body.append(DatalogLiteral(DatalogAtom(predicate, terms), positive=False))
    head_terms = [rng.choice(body_variables) for _ in range(arities[head_predicate])]
    return DatalogRule(DatalogAtom(head_predicate, head_terms), body)


def random_edge_relation(
    vertex_count: int = 6, edge_count: int = 10, seed: int = 0
) -> Relation:
    """A random binary EDB relation whose vertex names overlap the constant
    pool of :func:`random_datalog_program` (``v0, v1, ...``)."""
    return Relation(2, random_graph_pairs(vertex_count, edge_count, seed=seed))


# -- random algebra expressions -------------------------------------------------

#: Estimated-cardinality ceiling above which the expression generator stops
#: growing a pool entry (products of products quickly explode otherwise).
_EXPRESSION_SIZE_CAP = 4000.0


def random_algebra_expression(
    schema: DatabaseSchema,
    seed: int = 0,
    size: int = 8,
    constants: Sequence[object] = ("a", "b", "v0", "v1", 2),
    predicate_cardinality: int = 8,
    powerset_probability: float = 0.2,
) -> AlgebraExpression:
    """Generate a deterministic, well-typed random algebra expression.

    Starts from the schema's predicates and constant singletons and applies
    *size* random well-typed operator applications (set operations,
    projection, selection, product, untuple, collapse, powerset — the
    latter usually wrapped in a collapse to form a round trip).  A coarse
    cardinality estimate (seeding each predicate at
    *predicate_cardinality*) keeps generated expressions evaluable: growth
    steps whose estimated output exceeds an internal cap are skipped.

    The generator exists for the engine's side-by-side equivalence tests:
    the same seed always yields the same expression, so failures reproduce.
    """
    if size < 1:
        raise WorkloadError(f"expression size must be at least 1, got {size}")
    rng = random.Random(seed)
    pool: list[tuple[AlgebraExpression, ComplexType, float]] = []
    for name in schema.predicate_names:
        expression = PredicateExpression(name)
        pool.append((expression, expression.output_type(schema), float(predicate_cardinality)))
    for value in constants:
        pool.append((ConstantSingleton(value), U, 1.0))

    for _ in range(size):
        grown = _grow_expression(pool, schema, rng, powerset_probability)
        if grown is not None:
            pool.append(grown)
    return pool[-1][0]


def _grow_expression(
    pool: list[tuple[AlgebraExpression, ComplexType, float]],
    schema: DatabaseSchema,
    rng: random.Random,
    powerset_probability: float,
) -> tuple[AlgebraExpression, ComplexType, float] | None:
    """One random well-typed growth step over *pool*, or ``None`` if every
    candidate the dice picked would blow past the size cap."""
    attempts = [_pick_operator(rng, powerset_probability) for _ in range(8)]
    for operator in attempts:
        grown = _apply_operator(operator, pool, schema, rng)
        if grown is not None and grown[2] <= _EXPRESSION_SIZE_CAP:
            return grown
    return None


def _pick_operator(rng: random.Random, powerset_probability: float) -> str:
    if rng.random() < powerset_probability:
        return "powerset"
    return rng.choice(
        ("setop", "setop", "projection", "projection", "selection", "selection",
         "product", "product", "untuple", "collapse")
    )


def _apply_operator(
    operator: str,
    pool: list[tuple[AlgebraExpression, ComplexType, float]],
    schema: DatabaseSchema,
    rng: random.Random,
) -> tuple[AlgebraExpression, ComplexType, float] | None:
    if operator == "setop":
        by_type: dict[ComplexType, list[tuple[AlgebraExpression, float]]] = {}
        for expression, type_, estimate in pool:
            by_type.setdefault(type_, []).append((expression, estimate))
        type_ = rng.choice(sorted(by_type, key=str))
        candidates = by_type[type_]
        (left, left_estimate), (right, right_estimate) = rng.choice(candidates), rng.choice(
            candidates
        )
        cls = rng.choice((Union, Intersection, Difference))
        estimate = {
            Union: left_estimate + right_estimate,
            Intersection: min(left_estimate, right_estimate),
            Difference: left_estimate,
        }[cls]
        return cls(left, right), type_, estimate

    if operator == "projection":
        choice = _pick_tuple_typed(pool, rng)
        if choice is None:
            return None
        expression, type_, estimate = choice
        width = rng.randint(1, type_.arity)
        coordinates = tuple(rng.randint(1, type_.arity) for _ in range(width))
        projected = Projection(expression, coordinates)
        return projected, projected.output_type(schema), estimate

    if operator == "selection":
        choice = _pick_tuple_typed(pool, rng)
        if choice is None:
            return None
        expression, type_, estimate = choice
        condition = _random_condition(type_, rng)
        if condition is None:
            return None
        return Selection(expression, condition), type_, max(1.0, estimate * 0.4)

    if operator == "product":
        left, left_type, left_estimate = rng.choice(pool)
        right, right_type, right_estimate = rng.choice(pool)
        product = Product(left, right)
        return product, product.output_type(schema), left_estimate * right_estimate

    if operator == "untuple":
        candidates = [
            entry
            for entry in pool
            if isinstance(entry[1], TupleType) and entry[1].arity == 1
        ]
        if not candidates:
            return None
        expression, type_, estimate = rng.choice(candidates)
        return Untuple(expression), type_.component(1), estimate

    if operator == "collapse":
        candidates = [entry for entry in pool if isinstance(entry[1], SetType)]
        if not candidates:
            return None
        expression, type_, estimate = rng.choice(candidates)
        return Collapse(expression), type_.element_type, estimate * 4.0

    if operator == "powerset":
        # Keep the operand small (the result has 2**n members) and usually
        # produce the collapse round trip the paper's rewrites target.
        candidates = [entry for entry in pool if entry[2] <= 8.0]
        if not candidates:
            return None
        expression, type_, estimate = rng.choice(candidates)
        powerset = Powerset(expression)
        if rng.random() < 0.6:
            return Collapse(powerset), type_, estimate
        return powerset, SetType(type_), 2.0 ** min(estimate, 10.0)

    raise WorkloadError(f"unknown expression operator {operator!r}")


# -- random second-order formulas -----------------------------------------------


def random_so_formula(
    schema: DatabaseSchema,
    seed: int = 0,
    size: int = 6,
    head: Sequence[str] = (),
    constants: Sequence[object] = ("a", "b"),
) -> SOFormula:
    """Generate a deterministic random second-order formula over *schema*.

    The formula has *size* nodes.  Its atoms are equalities and relation
    atoms over the schema's flat predicates and the relation variables
    (arity 1 or 2) quantified above them; their terms are the *head*
    variables, the first-order variables quantified above them, and
    *constants*.  Every other variable is bound, so with an empty *head*
    the formula is a sentence, and otherwise it is the body of a query with
    head *head* that :func:`repro.second_order.so_query_to_calculus`
    accepts.  About one quantifier in four rebinds a name already in scope
    — a head variable, a first-order variable, or a relation variable of
    the same arity — and so shadows it in its body.

    The sweeps that compare the second-order evaluator with a node-by-node
    walk and with its calculus translation draw from it: the same seed
    always yields the same formula, so failures reproduce.
    """
    if size < 1:
        raise WorkloadError(f"formula size must be at least 1, got {size}")
    relations: dict[str, int] = {}
    for name in schema.predicate_names:
        declared = schema.type_of(name)
        if declared == U:
            relations[name] = 1
        elif isinstance(declared, TupleType) and set(declared.component_types) == {U}:
            relations[name] = declared.arity
    return _grow_so_formula(
        random.Random(seed), size, list(head), relations, (), list(constants), itertools.count(1)
    )


#: The chance that a quantifier rebinds a name in scope.
_SO_REBIND_PROBABILITY = 0.25


def _grow_so_formula(
    rng: random.Random,
    size: int,
    variables: list[str],
    relations: dict[str, int],
    relation_variables: tuple[str, ...],
    constants: list[object],
    names: Iterator[int],
) -> SOFormula:
    def term() -> SOTerm:
        if variables and rng.random() < 0.8:
            return SOVariable(rng.choice(variables))
        return SOConstant(rng.choice(constants))

    if size == 1:
        if not relations or rng.random() < 0.3:
            return SOEquals(term(), term())
        # The last name is the innermost relation variable, when there is one.
        name = list(relations)[-1] if rng.random() < 0.4 else rng.choice(sorted(relations))
        return SORelationAtom(name, [term() for _ in range(relations[name])])

    def grow(size, variables=variables, relations=relations, relation_variables=relation_variables):
        return _grow_so_formula(
            rng, size, variables, relations, relation_variables, constants, names
        )

    kind = rng.choice(("not", "binary", "binary", "first", "first", "second"))
    if kind == "binary" and size >= 3:
        left = rng.randint(1, size - 2)
        return rng.choice((SOAnd, SOOr, SOImplies))(grow(left), grow(size - 1 - left))
    if kind == "not":
        return SONot(grow(size - 1))
    rebind = rng.random() < _SO_REBIND_PROBABILITY
    if kind == "second":
        if rebind and relation_variables:
            # A rebound relation variable keeps its arity: the calculus
            # translation types it as {[U,...,U]}, and a t-wff may not
            # rebind a variable at another type.
            name = rng.choice(relation_variables)
            arity = relations[name]
        else:
            name, arity = f"X{next(names)}", rng.choice((1, 2))
        # The innermost relation variable stays last.
        inner = {other: k for other, k in relations.items() if other != name}
        inner[name] = arity
        body = grow(
            size - 1, relations=inner, relation_variables=_rebound(relation_variables, name)
        )
        return rng.choice((SOExistsRelation, SOForallRelation))(name, arity, body)
    name = rng.choice(variables) if rebind and variables else f"x{next(names)}"
    body = grow(size - 1, variables=list(_rebound(variables, name)))
    return rng.choice((SOExists, SOForall))(name, body)


def _rebound(names: Sequence[str], name: str) -> tuple[str, ...]:
    """*names* with *name* bound innermost."""
    return (*(other for other in names if other != name), name)


def random_pipeline_query(
    schema: DatabaseSchema,
    seed: int = 0,
    depth: int = 4,
    join_probability: float = 0.3,
    max_arity: int = 6,
) -> AlgebraExpression:
    """A deterministic scan→filter/project/join pipeline over *schema*.

    Unlike :func:`random_algebra_expression` (which exercises the whole
    operator vocabulary, powerset and collapse included), every query this
    generator produces lowers to the pipelined fragment shapes fused
    codegen covers — selection/projection chains over scans, and equi-join
    products whose cross-side equality becomes a ``HashJoin`` (half the
    time with an extra residual conjunct) — so the codegen differential
    sweep and ``benchmarks/bench_codegen.py`` exercise exactly the
    fragments under test.  *depth* counts the operator applications
    stacked on the initial scan (steps the dice cannot apply well-typed
    are skipped); the same seed always yields the same query.
    """
    if depth < 1:
        raise WorkloadError(f"pipeline depth must be at least 1, got {depth}")
    rng = random.Random(seed)
    tuple_predicates = [
        declaration for declaration in schema if isinstance(declaration.type, TupleType)
    ]
    if not tuple_predicates:
        raise WorkloadError("random_pipeline_query needs a tuple-typed predicate")
    declaration = rng.choice(tuple_predicates)
    expression: AlgebraExpression = PredicateExpression(declaration.name)
    type_ = declaration.type
    for _ in range(depth):
        if rng.random() < join_probability:
            grown = _pipeline_join(expression, type_, tuple_predicates, schema, max_arity, rng)
        elif rng.random() < 0.7:
            condition = _random_condition(type_, rng)
            grown = None if condition is None else (Selection(expression, condition), type_)
        else:
            width = rng.randint(1, min(3, type_.arity))
            coordinates = tuple(rng.randint(1, type_.arity) for _ in range(width))
            projected = Projection(expression, coordinates)
            grown = (projected, projected.output_type(schema))
        if grown is not None:
            expression, type_ = grown
    return expression


def _pipeline_join(
    expression: AlgebraExpression,
    type_: TupleType,
    tuple_predicates: list,
    schema: DatabaseSchema,
    max_arity: int,
    rng: random.Random,
):
    """Extend the pipeline with an equi-join against a scanned predicate:
    ``Selection(Product(pipeline, scan), cross-side eq [∧ residual])``,
    the shape the compiler lowers to a HashJoin with the pipeline as the
    probe side.  ``None`` when no well-typed join fits under *max_arity*."""
    candidates = [d for d in tuple_predicates if type_.arity + d.type.arity <= max_arity]
    if not candidates:
        return None
    other = rng.choice(candidates)
    product = Product(expression, PredicateExpression(other.name))
    combined = product.output_type(schema)
    left_arity = type_.arity
    pairs = [
        (i, left_arity + j)
        for i in range(1, left_arity + 1)
        for j in range(1, other.type.arity + 1)
        if type_.component(i) == other.type.component(j)
    ]
    if not pairs:
        return None
    left_key, right_key = rng.choice(pairs)
    condition = SelectionCondition.eq(left_key, right_key)
    if rng.random() < 0.5:
        residual = _random_atomic_condition(combined, rng)
        if residual is not None:
            condition = SelectionCondition.conjunction(condition, residual)
    return Selection(product, condition), combined


def random_join_workload(
    shape: str = "chain",
    relations: int = 4,
    rows: int = 64,
    seed: int = 0,
) -> tuple[AlgebraExpression, DatabaseInstance]:
    """A seeded acyclic multi-join query plus the database it runs on.

    The workload the cost-based join-ordering tests and benchmarks sweep:
    *shape* picks the join-graph topology —

    * ``"chain"``: *relations* binary relations ``R0(a,b) ⋈ R1(b,c) ⋈ …``
      linked second-column-to-first-column;
    * ``"star"``: one fact table of arity ``relations - 1`` whose *j*-th
      column joins the key of dimension ``Dj`` (dimensions are small
      relative to the fact, and the last one is deliberately *selective* —
      its keys cover only a slice of the fact's domain);
    * ``"snowflake"``: a star whose first dimensions each link on to one
      sub-dimension (``Dj.2 = Sj.1``).

    The returned expression is the *syntactic* left-deep product in
    declaration order with all join equalities conjoined on top — i.e.
    deliberately not the good order — so comparing it against the engine's
    reordered plan measures exactly what the optimizer buys.  Same seed,
    same workload.
    """
    if relations < 2:
        raise WorkloadError(f"a join workload needs at least 2 relations, got {relations}")
    if shape == "chain":
        return _chain_join_workload(relations, rows, seed)
    if shape == "star":
        return _star_join_workload(relations, rows, seed)
    if shape == "snowflake":
        if relations < 3:
            raise WorkloadError("a snowflake workload needs at least 3 relations")
        return _snowflake_join_workload(relations, rows, seed)
    raise WorkloadError(f"unknown join workload shape {shape!r}")


def _join_query(
    schema_entries: list[tuple[str, TupleType]],
    data: dict[str, list[tuple]],
    pairs: list[tuple[int, int]],
) -> tuple[AlgebraExpression, DatabaseInstance]:
    schema = DatabaseSchema(schema_entries)
    database = DatabaseInstance.build(schema, **{name: rows for name, rows in data.items()})
    expression: AlgebraExpression = PredicateExpression(schema_entries[0][0])
    for name, _type in schema_entries[1:]:
        expression = Product(expression, PredicateExpression(name))
    condition = SelectionCondition.eq(*pairs[0])
    for left, right in pairs[1:]:
        condition = SelectionCondition.conjunction(
            condition, SelectionCondition.eq(left, right)
        )
    return Selection(expression, condition), database


def _chain_join_workload(
    relations: int, rows: int, seed: int
) -> tuple[AlgebraExpression, DatabaseInstance]:
    rng = random.Random(seed)
    domain = max(2, rows // 3)
    entries = [(f"R{i}", tuple_type(U, U)) for i in range(relations)]
    data = {
        f"R{i}": list(
            {
                (f"k{i}_{rng.randrange(domain)}", f"k{i + 1}_{rng.randrange(domain)}")
                for _ in range(rows)
            }
        )
        for i in range(relations)
    }
    # R_i's second column joins R_{i+1}'s first; R_i spans global
    # coordinates (2i+1, 2i+2).
    pairs = [(2 * i + 2, 2 * i + 3) for i in range(relations - 1)]
    return _join_query(entries, data, pairs)


def _star_join_workload(
    relations: int, rows: int, seed: int
) -> tuple[AlgebraExpression, DatabaseInstance]:
    rng = random.Random(seed)
    dimensions = relations - 1
    domain = max(2, rows // 3)
    dimension_rows = max(2, min(domain, rows // 4))
    entries = [("F", tuple_type(*([U] * dimensions)))]
    data: dict[str, list[tuple]] = {
        "F": list(
            {
                tuple(f"k{j}_{rng.randrange(domain)}" for j in range(dimensions))
                for _ in range(rows)
            }
        )
    }
    pairs = []
    for j in range(1, dimensions + 1):
        name = f"D{j}"
        entries.append((name, tuple_type(U, U)))
        if j == dimensions:
            # The selective dimension: keys cover only the low twentieth of
            # the fact's key domain, so joining it first pays off.
            keys = range(max(1, domain // 20))
        else:
            keys = rng.sample(range(domain), dimension_rows)
        data[name] = [(f"k{j - 1}_{k}", f"d{j}_{k}") for k in keys]
        # Fact coordinate j joins the dimension's key column.
        pairs.append((j, dimensions + 2 * (j - 1) + 1))
    return _join_query(entries, data, pairs)


def _snowflake_join_workload(
    relations: int, rows: int, seed: int
) -> tuple[AlgebraExpression, DatabaseInstance]:
    rng = random.Random(seed)
    dimensions = max(1, (relations - 1) // 2)
    subdimensions = relations - 1 - dimensions
    domain = max(2, rows // 3)
    dimension_rows = max(2, min(domain, rows // 4))
    entries = [("F", tuple_type(*([U] * dimensions)))]
    data: dict[str, list[tuple]] = {
        "F": list(
            {
                tuple(f"k{j}_{rng.randrange(domain)}" for j in range(dimensions))
                for _ in range(rows)
            }
        )
    }
    pairs = []
    offset = dimensions  # flattened width consumed so far
    dimension_key_column: list[int] = []
    for j in range(1, dimensions + 1):
        name = f"D{j}"
        entries.append((name, tuple_type(U, U)))
        keys = rng.sample(range(domain), dimension_rows)
        data[name] = [(f"k{j - 1}_{k}", f"s{j}_{k % max(2, dimension_rows // 2)}") for k in keys]
        pairs.append((j, offset + 1))
        dimension_key_column.append(offset + 2)
        offset += 2
    for j in range(1, subdimensions + 1):
        name = f"S{j}"
        entries.append((name, tuple_type(U, U)))
        parent = (j - 1) % dimensions
        data[name] = [
            (f"s{parent + 1}_{k}", f"v{j}_{k}")
            for k in range(max(2, dimension_rows // 2))
        ]
        pairs.append((dimension_key_column[parent], offset + 1))
        offset += 2
    return _join_query(entries, data, pairs)


def _pick_tuple_typed(
    pool: list[tuple[AlgebraExpression, ComplexType, float]], rng: random.Random
) -> tuple[AlgebraExpression, ComplexType, float] | None:
    candidates = [entry for entry in pool if isinstance(entry[1], TupleType)]
    if not candidates:
        return None
    return rng.choice(candidates)


def _random_condition(type_: TupleType, rng: random.Random) -> SelectionCondition | None:
    atomic = _random_atomic_condition(type_, rng)
    if atomic is None:
        return None
    roll = rng.random()
    if roll < 0.55:
        return atomic
    if roll < 0.7:
        return SelectionCondition.negation(atomic)
    other = _random_atomic_condition(type_, rng)
    if other is None:
        return atomic
    if roll < 0.85:
        return SelectionCondition.conjunction(atomic, other)
    return SelectionCondition.disjunction(atomic, other)


def _random_atomic_condition(type_: TupleType, rng: random.Random) -> SelectionCondition | None:
    """A random well-typed atomic condition over the coordinates of *type_*."""
    coordinates = list(range(1, type_.arity + 1))
    equality_pairs = [
        (i, j)
        for i in coordinates
        for j in coordinates
        if i != j and type_.component(i) == type_.component(j)
    ]
    membership_pairs = [
        (i, j)
        for i in coordinates
        for j in coordinates
        if i != j and type_.component(j) == SetType(type_.component(i))
    ]
    atomic_coordinates = [i for i in coordinates if type_.component(i) == U]
    choices: list[str] = []
    if equality_pairs:
        choices.append("eq")
    if membership_pairs:
        choices.append("member")
    if atomic_coordinates:
        choices.append("constant")
    if not choices:
        return None
    kind = rng.choice(choices)
    if kind == "eq":
        left, right = rng.choice(equality_pairs)
        return SelectionCondition.eq(left, right)
    if kind == "member":
        element, container = rng.choice(membership_pairs)
        return SelectionCondition.member(element, container)
    coordinate = rng.choice(atomic_coordinates)
    # Integer constants are deliberately in the pool: they *display* exactly
    # like coordinate indices, which structural keys must not confuse.
    constant = rng.choice(("a", "b", "v0", "v1", "v2", 1, 2))
    return SelectionCondition.eq(coordinate, ConstantOperand(constant))

