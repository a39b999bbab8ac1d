"""Evaluation of calculus queries (Sections 2 and 6).

The generalised semantics ``Q|^Y[d]`` lets every variable of type ``T``
range over ``cons_X(T)`` where ``X = Y ∪ adom(d) ∪ adom(Q)``.  The *limited
interpretation* is ``Y = ∅``: variables range over objects constructible from
the active domain of the database and the query.  Section 6's invented-value
semantics pass non-empty ``Y`` (handled by :mod:`repro.invention.semantics`
on top of the same evaluator).

Evaluation is by brute-force enumeration of the constructive domain — this
is intentional: the paper's whole point is that the search space grows
hyper-exponentially with the set-height of intermediate types, and the
benchmarks measure exactly that growth.  Two engineering devices keep small
instances tractable without changing the semantics:

* an explicit *binding budget* guards against accidentally launching an
  enumeration that would not finish, and
* *quantifier memoisation* caches the truth value of each quantified
  subformula per binding of its free variables, so that e.g. the expensive
  antecedent of ``forall x ( phi(x) -> z in x )`` is evaluated once per
  ``x`` rather than once per output candidate ``z``.

Every evaluation first compiles its formula, once, into nested closures
(:class:`_Compiler`).  Everything that is fixed per formula node is
resolved then: the kind of each term, the predicate instance of each atom,
each quantifier's sorted free variables and enumeration-counter key, and
the quantifier strategy and memoisation setting.  Variables live in the
slots of one environment list, and each occurrence is resolved lexically
to its binder's slot.  The closures enumerate the same constructive
domains in the same order as the formula's tree semantics prescribes, so
every answer, budget error and statistics counter is the one a
node-by-node walk of the formula gives.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import BudgetExceededError, EvaluationError
from repro.calculus.formulas import (
    And,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    Membership,
    Not,
    Or,
    PredicateAtom,
)
from repro.calculus.query import CalculusQuery
from repro.calculus.terms import Constant, CoordinateTerm, Term, VariableTerm
from repro.objects.constructive import constructive_domain, iter_constructive_domain
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import ComplexValue, SetValue, TupleValue
from repro.utils.iteration import bounded


class QuantifierStrategy(enum.Enum):
    """How quantifier ranges are enumerated.

    ``SHORT_CIRCUIT`` streams the constructive domain lazily and stops at the
    first witness/counterexample.  ``EAGER`` materialises the whole range
    before iterating (the ablation baseline: same answers, more work).
    """

    SHORT_CIRCUIT = "short_circuit"
    EAGER = "eager"


@dataclass
class EvaluationSettings:
    """Knobs controlling query evaluation.

    Attributes
    ----------
    binding_budget:
        Maximum number of candidate variable bindings the evaluator may try
        across the whole evaluation (quantifiers and output candidates
        combined).  ``None`` disables the guard.
    strategy:
        Quantifier enumeration strategy (see :class:`QuantifierStrategy`).
    memoize_quantifiers:
        Cache the truth value of quantified subformulas per binding of their
        free variables.  Purely an optimisation (the semantics is
        unchanged); disable it to measure the cost in the ablation
        benchmarks.
    extra_atoms:
        Additional atomic values adjoined to the evaluation universe — the
        set ``Y`` of the paper's ``Q|^Y`` semantics.  Empty for the limited
        interpretation.
    restrict_output_to_active_domain:
        If true (the Section 6 ``Q|*`` convention), output candidates range
        only over objects built from ``adom(d) ∪ adom(Q)`` even when
        *extra_atoms* is non-empty.  Irrelevant when *extra_atoms* is empty.
    """

    binding_budget: int | None = 2_000_000
    strategy: QuantifierStrategy = QuantifierStrategy.SHORT_CIRCUIT
    memoize_quantifiers: bool = True
    extra_atoms: frozenset[object] = frozenset()
    restrict_output_to_active_domain: bool = True


@dataclass
class EvaluationStatistics:
    """Counters accumulated during one evaluation."""

    bindings_tried: int = 0
    satisfaction_calls: int = 0
    output_candidates: int = 0
    answers: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    quantifier_enumerations: dict[str, int] = field(default_factory=dict)

    def note_binding(self, budget: int | None) -> None:
        self.bindings_tried += 1
        if budget is not None and self.bindings_tried > budget:
            raise _budget_exceeded(budget)


@dataclass(frozen=True)
class EvaluationResult:
    """The answer of a query together with evaluation statistics."""

    answer: Instance
    statistics: EvaluationStatistics
    universe_atoms: frozenset[object]


#: Placeholder for a free variable not bound in the probing assignment —
#: keeps quantifier-memo keys positional (one entry per sorted free
#: variable).  Environment slot 0 always holds it.
_UNBOUND = object()


def evaluation_universe(
    query: CalculusQuery, database: DatabaseInstance, settings: EvaluationSettings
) -> frozenset[object]:
    """The atom set ``X = Y ∪ adom(d) ∪ adom(Q)`` over which variables range."""
    return frozenset(settings.extra_atoms) | database.active_domain() | query.constants()


def evaluate_query(
    query: CalculusQuery,
    database: DatabaseInstance,
    settings: EvaluationSettings | None = None,
) -> Instance:
    """Evaluate *query* on *database*; return the answer instance.

    With default settings this is the limited interpretation ``Q[d]``.
    Use :func:`evaluate_query_detailed` to also obtain statistics.
    """
    return evaluate_query_detailed(query, database, settings).answer


def evaluate_query_detailed(
    query: CalculusQuery,
    database: DatabaseInstance,
    settings: EvaluationSettings | None = None,
) -> EvaluationResult:
    """Evaluate *query* on *database*, returning answer plus statistics."""
    settings = settings or EvaluationSettings()
    if database.schema != query.schema:
        raise EvaluationError(
            f"query is defined over schema {query.schema} but the database has schema "
            f"{database.schema}"
        )
    stats = EvaluationStatistics()
    universe = evaluation_universe(query, database, settings)
    if settings.restrict_output_to_active_domain:
        output_atoms = database.active_domain() | query.constants()
    else:
        output_atoms = universe

    holds, env, slots = _compile(
        query.formula, (query.target_variable,), database, universe, settings, stats
    )
    target = slots[query.target_variable]
    answers: list[ComplexValue] = []
    candidates = iter_constructive_domain(query.target_type, output_atoms)
    for candidate in bounded(candidates, settings.binding_budget, what="output candidates"):
        stats.output_candidates += 1
        stats.note_binding(settings.binding_budget)
        env[target] = candidate
        if holds():
            answers.append(candidate)
    stats.answers = len(answers)
    return EvaluationResult(
        answer=Instance(query.target_type, answers),
        statistics=stats,
        universe_atoms=universe,
    )


def check_membership(
    query: CalculusQuery,
    database: DatabaseInstance,
    candidate: ComplexValue,
    settings: EvaluationSettings | None = None,
) -> bool:
    """Decide ``candidate ∈ Q[d]`` without enumerating the whole answer.

    This is the *data complexity* view of query evaluation used in Section 4
    (deciding ``o ∈ Q[d]``).
    """
    settings = settings or EvaluationSettings()
    universe = evaluation_universe(query, database, settings)
    return satisfies(
        database, query.formula, {query.target_variable: candidate}, universe, settings
    )


def satisfies(
    database: DatabaseInstance,
    formula: Formula,
    assignment: dict[str, ComplexValue],
    universe_atoms: frozenset[object],
    settings: EvaluationSettings | None = None,
    statistics: EvaluationStatistics | None = None,
) -> bool:
    """Decide ``d |=_Y phi[assignment]`` over the given atom universe.

    *assignment* must bind every free variable of *formula* to a value.
    This is the public, stateless entry point; repeated related checks are
    faster through :func:`evaluate_query_detailed`, which compiles the
    formula once and shares the quantifier memo across candidates.
    """
    settings = settings or EvaluationSettings()
    statistics = statistics or EvaluationStatistics()
    holds, env, slots = _compile(
        formula, assignment, database, universe_atoms, settings, statistics
    )
    for name, slot in slots.items():
        env[slot] = assignment[name]
    return holds()


def _compile(
    formula: Formula,
    bound: Iterable[str],
    database: DatabaseInstance,
    universe_atoms: frozenset[object],
    settings: EvaluationSettings,
    statistics: EvaluationStatistics,
) -> tuple[Callable[[], bool], list, dict[str, int]]:
    """Lower *formula* into a zero-argument closure deciding it.

    Returns ``(holds, env, slots)``: the caller stores the value of each
    name in *bound* in ``env[slots[name]]`` and then calls ``holds()``.
    """
    compiler = _Compiler(database, universe_atoms, settings, statistics)
    scope: dict[str, int] = {}
    for name in bound:
        scope = compiler.bind(scope, name)
    return compiler.formula(formula, scope), compiler.env, scope


class _Compiler:
    """Lowers one formula into closures that share a slot environment.

    Every binder — a quantifier, or a name the caller binds — owns one slot
    of :attr:`env`, and every variable occurrence is resolved to the slot of
    its innermost binder, so re-binding a name needs no save and restore.
    A variable with no binder reads ``_UNBOUND`` (slot 0) in memo keys and
    raises when its value is needed.
    """

    def __init__(
        self,
        database: DatabaseInstance,
        universe_atoms: frozenset[object],
        settings: EvaluationSettings,
        statistics: EvaluationStatistics,
    ) -> None:
        self.database = database
        self.universe_atoms = universe_atoms
        self.settings = settings
        self.statistics = statistics
        self.env: list = [_UNBOUND]
        # One memo per evaluation, keyed by node identity: formula nodes are
        # immutable and owned by the caller for the evaluation's lifetime,
        # and a node object shared between two positions shares its entries.
        self.memo: dict[tuple, bool] | None = {} if settings.memoize_quantifiers else None

    def bind(self, scope: dict[str, int], name: str) -> dict[str, int]:
        """A copy of *scope* with *name* bound to a fresh slot."""
        self.env.append(_UNBOUND)
        return {**scope, name: len(self.env) - 1}

    def formula(self, formula: Formula, scope: dict[str, int]) -> Callable[[], bool]:
        lower = _LOWERINGS.get(formula.__class__)
        if lower is None:
            raise EvaluationError(f"unknown formula class {type(formula).__name__}")
        return lower(self, formula, scope)

    # Terms ---------------------------------------------------------------
    def term(self, term: Term, scope: dict[str, int]) -> Callable[[], ComplexValue]:
        env = self.env
        if isinstance(term, VariableTerm):
            slot = scope.get(term.name)
            if slot is None:
                return _unbound(term.name)
            return lambda: env[slot]
        if isinstance(term, Constant):
            atom = term.as_atom()
            return lambda: atom
        if isinstance(term, CoordinateTerm):
            slot = scope.get(term.variable_name)
            if slot is None:
                return _unbound(term.variable_name)
            index = term.index

            def coordinate() -> ComplexValue:
                base = env[slot]
                if not isinstance(base, TupleValue):
                    raise EvaluationError(
                        f"term {term} selects a coordinate of the non-tuple value {base}"
                    )
                try:
                    return base.components[index - 1]
                except IndexError:
                    return base.coordinate(index)  # raises the out-of-range error

            return coordinate
        raise EvaluationError(f"unknown term class {type(term).__name__}")

    # Atoms ---------------------------------------------------------------
    def equals(self, formula: Equals, scope: dict[str, int]) -> Callable[[], bool]:
        stats = self.statistics
        left, right = self.term(formula.left, scope), self.term(formula.right, scope)

        def equals() -> bool:
            stats.satisfaction_calls += 1
            return left() == right()

        return equals

    def membership(self, formula: Membership, scope: dict[str, int]) -> Callable[[], bool]:
        stats = self.statistics
        element = self.term(formula.element, scope)
        container = self.term(formula.container, scope)

        def membership() -> bool:
            stats.satisfaction_calls += 1
            value = container()
            if not isinstance(value, SetValue):
                raise EvaluationError(
                    f"membership {formula} evaluated a non-set container value {value}"
                )
            return element() in value

        return membership

    def predicate(self, formula: PredicateAtom, scope: dict[str, int]) -> Callable[[], bool]:
        stats, database = self.statistics, self.database
        argument = self.term(formula.argument, scope)
        name = formula.predicate_name
        if name not in database.schema:

            def missing() -> bool:
                stats.satisfaction_calls += 1
                argument()
                database.instance(name)  # raises: not part of this database
                return False

            return missing
        values = database.instance(name).values

        def predicate() -> bool:
            stats.satisfaction_calls += 1
            return argument() in values

        return predicate

    # Connectives ---------------------------------------------------------
    def negation(self, formula: Not, scope: dict[str, int]) -> Callable[[], bool]:
        stats = self.statistics
        operand = self.formula(formula.operand, scope)

        def negation() -> bool:
            stats.satisfaction_calls += 1
            return not operand()

        return negation

    def conjunction(self, formula: And, scope: dict[str, int]) -> Callable[[], bool]:
        stats = self.statistics
        left, right = self.formula(formula.left, scope), self.formula(formula.right, scope)

        def conjunction() -> bool:
            stats.satisfaction_calls += 1
            return left() and right()

        return conjunction

    def disjunction(self, formula: Or, scope: dict[str, int]) -> Callable[[], bool]:
        stats = self.statistics
        left, right = self.formula(formula.left, scope), self.formula(formula.right, scope)

        def disjunction() -> bool:
            stats.satisfaction_calls += 1
            return left() or right()

        return disjunction

    def implication(self, formula: Implies, scope: dict[str, int]) -> Callable[[], bool]:
        stats = self.statistics
        left, right = self.formula(formula.left, scope), self.formula(formula.right, scope)

        def implication() -> bool:
            stats.satisfaction_calls += 1
            return not left() or right()

        return implication

    # Quantifiers ---------------------------------------------------------
    def quantifier(self, formula: Exists | Forall, scope: dict[str, int]) -> Callable[[], bool]:
        stats, env, memo = self.statistics, self.env, self.memo
        settings = self.settings
        budget = settings.binding_budget
        enumerations = stats.quantifier_enumerations
        variable_type, universe = formula.variable_type, self.universe_atoms
        type_key = str(variable_type)
        existential = formula.__class__ is Exists
        key_slots = [scope.get(name, 0) for name in sorted(formula.free_variables())]
        body_scope = self.bind(scope, formula.variable)
        slot = body_scope[formula.variable]
        body = self.formula(formula.body, body_scope)
        if settings.strategy is QuantifierStrategy.EAGER:
            domain = lambda: constructive_domain(variable_type, universe, budget=budget)
        else:
            domain = lambda: iter_constructive_domain(variable_type, universe)

        def decide() -> bool:
            candidates = domain()
            enumerations.setdefault(type_key, 0)
            tried = 0
            try:
                for candidate in candidates:
                    tried += 1
                    stats.bindings_tried += 1
                    if budget is not None and stats.bindings_tried > budget:
                        raise _budget_exceeded(budget)
                    env[slot] = candidate
                    if body():
                        if existential:
                            return True
                    elif not existential:
                        return False
                return not existential
            finally:
                enumerations[type_key] += tried

        node = id(formula)
        if len(key_slots) > 1:
            read = itemgetter(*key_slots)
            relevant = lambda: read(env)
        elif key_slots:
            (key_slot,) = key_slots
            relevant = lambda: (env[key_slot],)
        else:
            relevant = tuple

        def quantifier() -> bool:
            stats.satisfaction_calls += 1
            if memo is None:
                return decide()
            key = (node, relevant())
            cached = memo.get(key)
            if cached is not None:
                stats.memo_hits += 1
                return cached
            stats.memo_misses += 1
            result = memo[key] = decide()
            return result

        return quantifier


def _budget_exceeded(budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"query evaluation exceeded the binding budget of {budget}", budget=budget
    )


def _unbound(name: str) -> Callable[[], ComplexValue]:
    def unbound() -> ComplexValue:
        raise EvaluationError(f"variable {name!r} is unbound during evaluation")

    return unbound


_LOWERINGS = {
    Equals: _Compiler.equals,
    Membership: _Compiler.membership,
    PredicateAtom: _Compiler.predicate,
    Not: _Compiler.negation,
    And: _Compiler.conjunction,
    Or: _Compiler.disjunction,
    Implies: _Compiler.implication,
    Exists: _Compiler.quantifier,
    Forall: _Compiler.quantifier,
}
