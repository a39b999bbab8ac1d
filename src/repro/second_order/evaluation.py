"""Active-domain evaluation of second-order formulas and queries.

First-order variables range over the active domain of the database plus the
constants of the formula; second-order relation variables of arity ``k``
range over *all* subsets of ``adom^k``.  The second-order ranges have size
``2^(n^k)``, so the evaluator carries an explicit budget, exactly like the
complex-object calculus evaluator: the hyper-exponential search space is the
phenomenon the paper studies, not an accident to be optimised away.

Every evaluation first compiles its formula, once, into nested closures
(:class:`_Compiler`).  The domain is indexed once, and first-order
variables hold domain indices in the slots of one environment list.  A
relation of arity ``k`` — a database predicate or a candidate for a
relation variable — is an int bitset over the row index of
``product(domain, repeat=k)``, so an atom is a shift and a mask.  Relation
symbols and variables are resolved lexically at compile time, and an atom
whose arity does not match its relation is a :class:`TypingError` then.
Candidate relations are enumerated in the same order as subsets of the
row list — by size, then in ``combinations`` order — so every answer,
budget error and statistics counter is the one a node-by-node walk of the
formula gives.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import combinations, product

from repro.errors import EvaluationError, TypingError
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
from repro.objects.instance import DatabaseInstance
from repro.relational.relation import Relation
from repro.types.type_system import TupleType


@dataclass
class SOEvaluationSettings:
    """Knobs controlling second-order evaluation.

    ``relation_budget`` bounds the number of candidate relations tried
    across all second-order quantifiers of one evaluation (a single one
    has ``2^(n^k)`` of them); exceeding it raises rather than running
    forever.
    """

    relation_budget: int | None = 2_000_000


@dataclass
class SOEvaluationStatistics:
    """Counters accumulated during one evaluation."""

    relations_tried: int = 0
    first_order_bindings: int = 0
    satisfaction_calls: int = 0


def _instance_as_tuples(database: DatabaseInstance, predicate_name: str) -> frozenset[tuple]:
    instance = database.instance(predicate_name)
    rows: set[tuple] = set()
    for value in instance:
        if hasattr(value, "components"):
            rows.add(tuple(component.value for component in value.components))
        else:
            rows.add((value.value,))
    return frozenset(rows)


def evaluation_domain(
    formula: SOFormula, database: DatabaseInstance
) -> tuple[object, ...]:
    """The active domain of the database plus the constants of the formula."""
    constants = {
        term.value
        for sub in formula.subformulas()
        for term in _terms_of(sub)
        if isinstance(term, SOConstant)
    }
    return tuple(sorted(database.active_domain() | constants, key=lambda a: (type(a).__name__, repr(a))))


def _terms_of(formula: SOFormula) -> tuple[SOTerm, ...]:
    if isinstance(formula, SOEquals):
        return (formula.left, formula.right)
    if isinstance(formula, SORelationAtom):
        return formula.terms
    return ()


def evaluate_sentence(
    formula: SOFormula,
    database: DatabaseInstance,
    settings: SOEvaluationSettings | None = None,
    statistics: SOEvaluationStatistics | None = None,
) -> bool:
    """Decide whether the database satisfies a second-order *sentence*.

    The formula must have no free first-order variables, and its free
    relation symbols must all be database predicates.  *statistics*, when
    given, receives the evaluation's counters.
    """
    settings = settings or SOEvaluationSettings()
    if formula.free_first_order_variables():
        raise EvaluationError(
            "a sentence may not have free first-order variables: "
            f"{sorted(formula.free_first_order_variables())}"
        )
    unknown = formula.free_relation_variables() - set(database.schema.predicate_names)
    if unknown:
        raise EvaluationError(
            f"free relation symbols {sorted(unknown)} are not database predicates"
        )
    statistics = statistics or SOEvaluationStatistics()
    compiler = _Compiler(database, evaluation_domain(formula, database), settings, statistics)
    return compiler.formula(formula, {}, {})()


def evaluate_query(
    head_variables: list[str],
    formula: SOFormula,
    database: DatabaseInstance,
    settings: SOEvaluationSettings | None = None,
    statistics: SOEvaluationStatistics | None = None,
) -> Relation:
    """Evaluate the second-order query ``{(x1,...,xk) | phi}``.

    Returns the flat relation of all bindings of the head variables (over
    the active domain plus formula constants) that satisfy *phi*.
    *statistics*, when given, receives the evaluation's counters.
    """
    settings = settings or SOEvaluationSettings()
    if not head_variables:
        raise EvaluationError("a query needs at least one head variable")
    if len(set(head_variables)) != len(head_variables):
        raise TypingError(f"head variables must be distinct, got {head_variables}")
    stray = formula.free_first_order_variables() - set(head_variables)
    if stray:
        raise EvaluationError(f"free variables {sorted(stray)} are not head variables")
    statistics = statistics or SOEvaluationStatistics()
    domain = evaluation_domain(formula, database)
    compiler = _Compiler(database, domain, settings, statistics)
    # The head variables take the first slots, in order.
    holds = compiler.formula(formula, {name: compiler.slot(None) for name in head_variables}, {})
    env, width = compiler.env, len(head_variables)
    rows: set[tuple] = set()
    for binding in product(range(len(domain)), repeat=width):
        env[:width] = binding
        statistics.first_order_bindings += 1
        if holds():
            rows.add(tuple(domain[index] for index in binding))
    return Relation(len(head_variables), rows)


def _iter_relations(row_count: int) -> Iterator[int]:
    """Every relation over *row_count* rows as a bitset (bit ``r`` is row
    ``r``), by increasing size, then in ``combinations`` order."""
    weights = [1 << row for row in range(row_count)]
    for size in range(row_count + 1):
        for combo in combinations(weights, size):
            yield sum(combo)


class _Compiler:
    """Lowers one formula into closures that share a slot environment.

    Slots hold domain indices (first-order variables and constants) and
    relation bitsets (relation variables and the database predicates the
    formula uses).  Every binder owns one slot, and every occurrence is
    resolved to the slot of its innermost binder.
    """

    def __init__(
        self,
        database: DatabaseInstance,
        domain: tuple[object, ...],
        settings: SOEvaluationSettings,
        statistics: SOEvaluationStatistics,
    ) -> None:
        self.database = database
        self.domain_size = len(domain)
        self.position = {value: index for index, value in enumerate(domain)}
        self.settings = settings
        self.statistics = statistics
        self.env: list = []
        #: ``predicate name -> (slot of its bitset, arity)``, indexed on first use.
        self.predicates: dict[str, tuple[int, int]] = {}

    def slot(self, value: object) -> int:
        self.env.append(value)
        return len(self.env) - 1

    def row_index(self, indices) -> int:
        row = 0
        for index in indices:
            row = row * self.domain_size + index
        return row

    def predicate(self, name: str) -> tuple[int, int]:
        entry = self.predicates.get(name)
        if entry is None:
            declared = self.database.schema.type_of(name)
            arity = declared.arity if isinstance(declared, TupleType) else 1
            bits = 0
            for row in _instance_as_tuples(self.database, name):
                bits |= 1 << self.row_index(self.position[value] for value in row)
            entry = self.predicates[name] = (self.slot(bits), arity)
        return entry

    def term(self, term: SOTerm, variables: dict[str, int]) -> int:
        if isinstance(term, SOConstant):
            return self.slot(self.position[term.value])
        if isinstance(term, SOVariable):
            return variables[term.name]
        raise EvaluationError(f"unknown term class {type(term).__name__}")

    def formula(
        self,
        formula: SOFormula,
        variables: dict[str, int],
        relations: dict[str, tuple[int, int]],
    ) -> Callable[[], bool]:
        stats, env = self.statistics, self.env

        if isinstance(formula, SOEquals):
            left = self.term(formula.left, variables)
            right = self.term(formula.right, variables)

            def equals() -> bool:
                stats.satisfaction_calls += 1
                return env[left] == env[right]

            return equals

        if isinstance(formula, SORelationAtom):
            return self.relation_atom(formula, variables, relations)

        if isinstance(formula, SONot):
            operand = self.formula(formula.operand, variables, relations)

            def negation() -> bool:
                stats.satisfaction_calls += 1
                return not operand()

            return negation

        if isinstance(formula, (SOAnd, SOOr, SOImplies)):
            left_holds = self.formula(formula.left, variables, relations)
            right_holds = self.formula(formula.right, variables, relations)
            if isinstance(formula, SOAnd):

                def conjunction() -> bool:
                    stats.satisfaction_calls += 1
                    return left_holds() and right_holds()

                return conjunction
            if isinstance(formula, SOOr):

                def disjunction() -> bool:
                    stats.satisfaction_calls += 1
                    return left_holds() or right_holds()

                return disjunction

            def implication() -> bool:
                stats.satisfaction_calls += 1
                return not left_holds() or right_holds()

            return implication

        if isinstance(formula, (SOExists, SOForall)):
            existential = isinstance(formula, SOExists)
            slot = self.slot(None)
            body = self.formula(formula.body, {**variables, formula.variable: slot}, relations)
            indices = range(self.domain_size)

            def first_order() -> bool:
                stats.satisfaction_calls += 1
                tried = 0
                try:
                    for index in indices:
                        tried += 1
                        env[slot] = index
                        if body():
                            if existential:
                                return True
                        elif not existential:
                            return False
                    return not existential
                finally:
                    stats.first_order_bindings += tried

            return first_order

        if isinstance(formula, (SOExistsRelation, SOForallRelation)):
            existential = isinstance(formula, SOExistsRelation)
            budget = self.settings.relation_budget
            slot = self.slot(0)
            scope = {**relations, formula.relation_variable: (slot, formula.arity)}
            body = self.formula(formula.body, variables, scope)
            row_count = self.domain_size**formula.arity

            def second_order() -> bool:
                stats.satisfaction_calls += 1
                for bits in _iter_relations(row_count):
                    stats.relations_tried += 1
                    if budget is not None and stats.relations_tried > budget:
                        raise EvaluationError(
                            f"second-order quantifier exceeded the relation budget of {budget}"
                        )
                    env[slot] = bits
                    if body():
                        if existential:
                            return True
                    elif not existential:
                        return False
                return not existential

            return second_order

        raise EvaluationError(f"unknown second-order formula class {type(formula).__name__}")

    def relation_atom(
        self,
        formula: SORelationAtom,
        variables: dict[str, int],
        relations: dict[str, tuple[int, int]],
    ) -> Callable[[], bool]:
        name, arity = formula.relation_name, len(formula.terms)
        if name in relations:
            relation, declared = relations[name]
            kind = "relation variable"
        elif name in self.database.schema:
            relation, declared = self.predicate(name)
            kind = "predicate"
        else:
            raise EvaluationError(
                f"relation symbol {name!r} is neither quantified nor a database predicate"
            )
        if declared != arity:
            raise TypingError(
                f"{kind} {name!r} has arity {declared} but is applied to {arity} terms"
            )
        stats, env, size = self.statistics, self.env, self.domain_size
        slots = [self.term(term, variables) for term in formula.terms]
        if arity == 1:
            (first,) = slots

            def atom() -> bool:
                stats.satisfaction_calls += 1
                return env[relation] >> env[first] & 1 == 1

        elif arity == 2:
            first, second = slots

            def atom() -> bool:
                stats.satisfaction_calls += 1
                return env[relation] >> (env[first] * size + env[second]) & 1 == 1

        else:

            def atom() -> bool:
                stats.satisfaction_calls += 1
                row = self.row_index(env[slot] for slot in slots)
                return env[relation] >> row & 1 == 1

        return atom


def relation_variable_type(arity: int) -> TupleType:
    """The flat tuple type ``[U,...,U]`` matching a relation variable's rows."""
    from repro.types.type_system import relation_type

    return relation_type(arity)
