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

The evaluator compiles a formula into Python source (:class:`_Compiler`).
Each quantifier becomes one generated function: its bound free variables
are the parameters, its loop variable is a local, and the atoms and
connectives of its body are inlined as statements; the call site probes
the quantifier memo inline and calls the function only on a miss.
Everything that is fixed per formula node is resolved then: the kind and
type of each term, each quantifier's sorted free variables,
enumeration-counter key and domain, and the strategy and memoisation
settings.

**Positions.**  A variable of type ``T`` — bound by a quantifier, or the
query's target — holds its value's *position* in ``cons_X(T)``, an int
(see :mod:`repro.objects.constructive`): an atom's index among the sorted
universe atoms, a tuple's mixed-radix number, a set's bitset of element
positions.  A quantifier loops over the position enumeration of its type,
in the order of the value enumeration, and every atom the t-wff rules
license is an int operation: ``=`` is ``==``, ``e ∈ c`` is
``c >> e & 1``, ``x.i`` is ``x // stride % radix``, and ``P(t)`` probes a
frozenset of the positions of ``P``'s values, encoded once per evaluation.
Each memoised quantifier has a memo table of its own, keyed by an int: the
position of its one free variable, the mixed-radix number of several, or
``0`` for none.  Answers stay values: each output candidate is enumerated
as a value and encoded once.

**Counting.**  The counters are closure cells of the generated code.  A
quantifier over a set-free type whose body calls no quantifier and has only
atoms on positions — a *leaf* — loops over ``range(|cons(T)|)``, so its
loop variable is the number of bindings before it, and nothing in its body
can raise.  It counts where it exits: ``v + 1`` bindings, enumerations and
runs of its body's leading satisfaction calls when it returns at position
``v``, ``|cons(T)|`` when it runs out, and under a budget it stops at the
binding the per-binding check would raise at and raises with the same
counters.  Every other quantifier counts each binding before its body, since
its body may raise or read the binding count.  Either way every binding is
still visited, in the same order.

**Where values remain.**  Names bound by the caller of :func:`satisfies`
have no static type, so they hold values, and so does a constant outside
the universe (which only :func:`satisfies` can be given).  An atom with
such a term, or one the t-wff rules do not license — a cross-type ``=``,
membership in a non-set or with an element of another type, a predicate
applied to a term of another type, a coordinate of a non-tuple — decodes
its typed terms to values and takes the checked path on values, so it
answers and raises exactly as before.  Positions of different types may
coincide (the empty set is ``0`` in every set type), so a subformula shared
by two places whose free variables have different types keys its memo on
the tuple of their values, as one with a free name the caller binds does.

**Plans.**  Strides, radices, constant positions, predicate positions,
decoders and domain views are passed to the generated factory as
arguments, so the source text depends only on the formula's structure and
the settings, and compiled factories are cached by that text in the
process-wide cache of :mod:`repro.utils.pysource`.  The compiler only
names, for each argument, the function that makes it for one evaluation
(``_radix``, ``_domain``, ...).  The first evaluation of a formula object
keeps its factory and those makers (a :class:`repro.utils.pysource.Plan`),
so a later one with the same bound names, schema and settings makes the
arguments and calls the factory: it writes no source and walks no
formula.  A formula object seen once still pays for writing its source
and, if its structure is new, for ``compile()``, which for a small formula
costs more than evaluating it, and its plan stays until the bounded memo
is cleared.  One factory call per evaluation creates the memo tables and
the counters, so concurrent evaluations share nothing.  The generated code
enumerates the same constructive domains in the same order as the
formula's tree semantics prescribes, so every answer, error and statistics
counter is the one a node-by-node walk of the formula gives.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import NoReturn

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
from repro.objects.constructive import (
    Positions,
    constructive_positions,
    iter_constructive_domain,
    position_domain,
)
from repro.objects.domain import belongs_to
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import ComplexValue, SetValue, TupleValue
from repro.types.schema import DatabaseSchema
from repro.types.set_height import is_flat
from repro.types.type_system import ComplexType, SetType, TupleType, U
from repro.utils import pysource
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


#: Placeholder for a free variable not bound by the caller — keeps
#: quantifier-memo keys positional (one entry per sorted free variable).
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
    _check_schema(query, database)
    stats = EvaluationStatistics()
    universe = evaluation_universe(query, database, settings)
    positions = Positions(universe)
    holds = _compile(
        query.formula,
        {query.target_variable: query.target_type},
        database,
        positions,
        settings,
        stats,
    )
    encode = partial(positions.encode, type_=query.target_type)
    answers: list[ComplexValue] = []
    candidates = iter_constructive_domain(
        query.target_type, _output_atoms(query, database, settings, universe)
    )
    for candidate in bounded(candidates, settings.binding_budget, what="output candidates"):
        stats.output_candidates += 1
        stats.note_binding(settings.binding_budget)
        if holds(encode(candidate)):
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
    (deciding ``o ∈ Q[d]``).  It agrees with :func:`evaluate_query`: the
    database must have the query's schema, and a candidate outside the
    output candidates — not of the target type, or built from atoms the
    output does not range over — is not a member.
    """
    settings = settings or EvaluationSettings()
    _check_schema(query, database)
    if not belongs_to(candidate, query.target_type):
        return False
    universe = evaluation_universe(query, database, settings)
    if not candidate.atoms() <= _output_atoms(query, database, settings, universe):
        return False
    positions = Positions(universe)
    holds = _compile(
        query.formula,
        {query.target_variable: query.target_type},
        database,
        positions,
        settings,
        EvaluationStatistics(),
    )
    return holds(positions.encode(candidate, query.target_type))


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
    holds = _compile(
        formula,
        dict.fromkeys(assignment),
        database,
        Positions(universe_atoms),
        settings,
        statistics,
    )
    return holds(*assignment.values())


def _check_schema(query: CalculusQuery, database: DatabaseInstance) -> None:
    if database.schema != query.schema:
        raise EvaluationError(
            f"query is defined over schema {query.schema} but the database has schema "
            f"{database.schema}"
        )


def _output_atoms(
    query: CalculusQuery,
    database: DatabaseInstance,
    settings: EvaluationSettings,
    universe: frozenset[object],
) -> frozenset[object]:
    """The atoms output candidates are built from."""
    if settings.restrict_output_to_active_domain:
        return database.active_domain() | query.constants()
    return universe


#: Prepared plans, keyed by the formula's identity, the names and types
#: ``holds`` takes, the schema's identity and the settings that shape the
#: source.  Identity, not structure: each formula node owns a memo table.
#: A formula object evaluated once (a served ``CALC`` request parses a new
#: one) still leaves a plan, so the memo is cleared wholesale at
#: ``_MAX_PLANS`` entries.  The cap sits above the largest working set
#: measured: the ``semantics`` benchmark reuses 4 plans per pass, and 99%
#: of tier-1's reuses come within 19 plans of their plan's insertion.
_PLANS: dict[tuple, pysource.Plan] = {}
_MAX_PLANS = 32


def _compile(
    formula: Formula,
    bound: dict[str, ComplexType | None],
    database: DatabaseInstance,
    positions: Positions,
    settings: EvaluationSettings,
    statistics: EvaluationStatistics,
) -> Callable[..., bool]:
    """Compile *formula* into ``holds``, which decides it.

    ``holds`` takes the names in *bound*, in order: for a name with a type,
    the position of its value in ``cons(type)`` under *positions*; for a
    name without one, its value.  A formula evaluated before with the same
    key reuses its plan and only makes the plan's constants anew.
    """
    schema = database.schema
    shape = (settings.strategy, settings.memoize_quantifiers, settings.binding_budget is None)
    key = (id(formula), tuple(bound.items()), id(schema), shape)
    plan = _PLANS.get(key)
    if plan is None or not positions.index.keys() >= plan.atoms:
        plan = _prepare(formula, bound, schema, positions, settings, key)
    budget = settings.binding_budget
    constants = [make(argument, database, positions, budget) for make, argument in plan.constants]
    return plan.factory(statistics, budget, constants)


def _prepare(
    formula: Formula,
    bound: dict[str, ComplexType | None],
    schema: DatabaseSchema,
    positions: Positions,
    settings: EvaluationSettings,
    key: tuple,
) -> pysource.Plan:
    """Write *formula*'s source and compile it.  The plan is kept under
    *key* when the compile cache keeps its factory and every constant of
    the formula is in the universe: a constant outside it is written as a
    value, which only :func:`satisfies` can be given."""
    compiler = _Compiler(schema, positions, settings)
    source = compiler.program(formula, bound)
    if compiler.conflicts:
        # A shared subformula is reached with differently typed free
        # variables, whose positions may coincide: rewrite it to key its
        # memo on their values.
        compiler = _Compiler(schema, positions, settings, value_keyed=compiler.conflicts)
        source = compiler.program(formula, bound)
    factory, _ = pysource.compiled("calculus", source, "_factory", _RUNTIME)
    atoms = frozenset(compiler.atoms)
    plan = pysource.Plan(formula, schema, factory, tuple(compiler.constants), atoms)
    if not compiler.outside and pysource.keeps(source):
        pysource.remember(_PLANS, key, plan, _MAX_PLANS)
    return plan


# The makers of the constants the compiler describes (pysource's
# ``Emitter.made_by``): each takes its argument, then the database, the
# positions of the universe and the binding budget of one evaluation.


def _radix(type_, database, positions, budget):
    return positions.size(type_)


def _stride(argument, database, positions, budget):
    return positions.stride(*argument)


def _decoder(type_, database, positions, budget):
    return partial(positions.decode, type_=type_)


def _position(atom, database, positions, budget):
    return positions.index[atom]


def _domain(type_, database, positions, budget):
    # Fetched anew: a shared enumeration may have been evicted, broken or
    # outgrown its cache since the last evaluation.
    return position_domain(type_, len(positions.atoms))


def _materializer(type_, database, positions, budget):
    return partial(constructive_positions, type_, len(positions.atoms), budget=budget)


def _predicate(argument, database, positions, budget):
    # A value with an atom outside the universe has no position, and no
    # position equals it.
    name, type_ = argument
    encode, encoded = positions.encode, set()
    for value in database.instance(name).values:
        try:
            encoded.add(encode(value, type_))
        except KeyError:
            continue
    return frozenset(encoded)


def _values(name, database, positions, budget):
    return database.instance(name).values


def _missing(name, database, positions, budget):
    return _MissingPredicate(database, name)


def _budget_exceeded(budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"query evaluation exceeded the binding budget of {budget}", budget=budget
    )


def _raise_unbound(name: str) -> NoReturn:
    raise EvaluationError(f"variable {name!r} is unbound during evaluation")


def _coordinate(value: ComplexValue, index: int, term: CoordinateTerm) -> ComplexValue:
    """``value.index`` for a value not known to be a tuple of that arity."""
    if not isinstance(value, TupleValue):
        raise EvaluationError(f"term {term} selects a coordinate of the non-tuple value {value}")
    return value.coordinate(index)  # raises when out of range


def _raise_not_a_set(formula: Membership, value: ComplexValue) -> NoReturn:
    raise EvaluationError(f"membership {formula} evaluated a non-set container value {value}")


class _MissingPredicate:
    """Stands for the instance of a predicate outside the database schema:
    testing an argument against it raises, after the argument is evaluated."""

    __slots__ = ("database", "name")

    def __init__(self, database: DatabaseInstance, name: str) -> None:
        self.database = database
        self.name = name

    def __contains__(self, value: object) -> bool:
        self.database.instance(self.name)  # raises: not part of this database
        return False


#: The counter cells of the generated code, and the statistics they mirror.
_COUNTERS = (
    ("_calls", "satisfaction_calls"),
    ("_bindings", "bindings_tried"),
    ("_hits", "memo_hits"),
    ("_misses", "memo_misses"),
)

#: The globals of every generated factory.
_RUNTIME = {
    "_UNBOUND": _UNBOUND,
    "_SetValue": SetValue,
    "_budget_exceeded": _budget_exceeded,
    "_coordinate": _coordinate,
    "_raise_not_a_set": _raise_not_a_set,
    "_raise_unbound": _raise_unbound,
}


class _Compiler(pysource.Emitter):
    """Writes one formula as the Python source of a factory.

    The factory ``_factory(_stats, _budget, _k)`` unpacks the constants
    ``_k`` into ``_k0, _k1, ...`` — predicate positions and instances,
    constant positions and atoms, strides, radices and domain sizes,
    decoders, domain views, enumeration keys and the subjects of error
    messages, each made per evaluation by a maker the compiler names —
    creates one memo table ``_m<n>`` per memoised quantifier,
    and returns ``holds``, which decides the formula for the caller's bound
    names.  The counters (``_calls``, ``_bindings``, ``_hits``, ``_misses``
    and one ``_e<n>`` per enumeration key) are closure cells shared by
    every generated function; ``holds`` loads them from the statistics when
    it starts and stores them back in a ``finally``.

    Each quantifier becomes a function ``_q<n>`` whose parameters are its
    bound free variables; a leaf one counts at its exits (:meth:`decision`).
    Every binder — a quantifier, or a name the caller binds — owns one
    local ``v<n>``, and every variable occurrence is resolved to the local
    of its innermost binder and that binder's type (``None`` for a name the
    caller binds); a variable with no binder reads ``_UNBOUND`` in memo keys
    and raises when its value is needed.
    Every other formula is emitted as statements that leave its truth
    value in ``r``, spilled into a function ``_s<n>`` of its own when it
    would nest deeper than ``pysource.MAX_INDENT``.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        positions: Positions,
        settings: EvaluationSettings,
        value_keyed: set[int] | frozenset[int] = frozenset(),
    ) -> None:
        super().__init__("holds()")
        self.schema = schema
        self.positions = positions
        self.settings = settings
        #: Enumeration key -> (its counter cell, the constant holding it).
        self.enumerations: dict[str, tuple[str, str]] = {}
        #: The atoms of the constants written as positions, and whether a
        #: constant outside the universe was written as its value.
        self.atoms: set[object] = set()
        self.outside = False
        #: Memoised quantifier id -> the types of its free variables where
        #: it was first reached.
        self.signatures: dict[int, tuple] = {}
        #: Quantifiers reached with differently typed free variables.
        self.conflicts: set[int] = set()
        #: Quantifiers whose memo keys hold values, not positions.
        self.value_keyed = value_keyed
        #: Memoised quantifier id -> the name of its memo table.
        self.tables: dict[int, str] = {}
        #: Atoms written on values and quantifier calls written so far: the
        #: code that may raise or count bindings.  A quantifier whose body
        #: adds none is a leaf (:meth:`decision`).
        self.unsafe = 0

    def program(self, formula: Formula, bound: dict[str, ComplexType | None]) -> str:
        scope = {name: (self.fresh("v"), type_) for name, type_ in bound.items()}
        self.out.signature = f"holds({', '.join(local for local, _ in scope.values())})"
        self.formula(formula, scope)
        self.line("return bool(r)")
        prologue = ["_enumerations = _stats.quantifier_enumerations"]
        for table in self.tables.values():
            prologue += [f"{table} = {{}}", f"{table}_get = {table}.get"]
        # An enumeration counter is stored only once its quantifier has run.
        cells = [
            (
                cell,
                f"_enumerations.get({key})",
                f"if {cell} is not None: _enumerations[{key}] = {cell}",
            )
            for cell, key in self.enumerations.values()
        ]
        return self.factory("_stats, _budget", prologue, _COUNTERS, cells)

    def radix(self, type_: ComplexType) -> str:
        """The constant holding ``|cons(type_)|``."""
        return self.once(_radix, type_)

    # Formulas ------------------------------------------------------------
    def formula(self, formula: Formula, scope: dict) -> None:
        """Emit statements leaving the truth value of *formula* in ``r``."""
        if self.deep():
            self.spill(formula, scope)
            return
        kind = formula.__class__
        self.out.pending += 1
        if kind is Equals:
            left, left_type = self.term(formula.left, scope)
            right, right_type = self.term(formula.right, scope)
            if left_type is None or left_type != right_type:
                self.unsafe += 1
                left = self.value(formula.left, left, left_type)
                right = self.value(formula.right, right, right_type)
            self.line(f"r = {left} == {right}")
        elif kind is Membership:
            self.membership(formula, scope)
        elif kind is PredicateAtom:
            self.predicate(formula, scope)
        elif kind is Not:
            self.formula(formula.operand, scope)
            self.line("r = not r")
        elif kind is And or kind is Or or kind is Implies:
            self.formula(formula.left, scope)
            with self.block("if not r:" if kind is Or else "if r:"):
                self.formula(formula.right, scope)
            if kind is Implies:
                self.line("else:")
                self.line("    r = True")
        elif kind is Exists or kind is Forall:
            self.quantifier(formula, scope)
        else:
            raise EvaluationError(f"unknown formula class {type(formula).__name__}")

    def membership(self, formula: Membership, scope: dict) -> None:
        element, element_type = self.term(formula.element, scope)
        container, container_type = self.term(formula.container, scope)
        if isinstance(container_type, SetType) and container_type.element_type == element_type:
            self.line(f"r = {container} >> {element} & 1")
            return
        self.unsafe += 1
        element = self.value(formula.element, element, element_type)
        container = self.value(formula.container, container, container_type)
        if isinstance(container_type, SetType):
            self.line(f"r = {element} in {container}")
            return
        # The container is evaluated and checked before the element.
        self.line(f"c = {container}")
        self.line("if not isinstance(c, _SetValue):")
        self.line(f"    _raise_not_a_set({self.constant(formula)}, c)")
        self.line(f"r = {element} in c")

    def predicate(self, formula: PredicateAtom, scope: dict) -> None:
        argument, argument_type = self.term(formula.argument, scope)
        name, schema = formula.predicate_name, self.schema
        if name not in schema:
            self.unsafe += 1
            values = self.made_by(_missing, name)
        elif argument_type is not None and argument_type == schema.type_of(name):
            values = self.once(_predicate, (name, argument_type))
        else:
            self.unsafe += 1
            argument = self.value(formula.argument, argument, argument_type)
            values = self.made_by(_values, name)
        self.line(f"r = {argument} in {values}")

    def spill(self, formula: Formula, scope: dict) -> None:
        """Emit *formula* as a function of its own, called here."""
        parameters = [scope[name][0] for name in sorted(formula.free_variables()) if name in scope]
        name, previous = self.begin("_s", parameters)
        self.formula(formula, scope)
        self.line("return r")
        self.end(previous)
        self.line(f"r = {name}({', '.join(parameters)})")

    # Quantifiers ---------------------------------------------------------
    def quantifier(self, formula: Exists | Forall, scope: dict) -> None:
        free = sorted(formula.free_variables())
        parameters = [scope[name][0] for name in free if name in scope]
        call = f"{self.decision(formula, scope, parameters)}({', '.join(parameters)})"
        self.unsafe += 1
        if not self.settings.memoize_quantifiers:
            self.line(f"r = {call}")
            return
        node = id(formula)
        signature = tuple(scope[name][1] if name in scope else _UNBOUND for name in free)
        if self.signatures.setdefault(node, signature) != signature:
            self.conflicts.add(node)
        if node not in self.tables:
            self.tables[node] = self.fresh("_m")
        table, key = self.tables[node], self.memo_key(node, free, scope)
        if not (key.isidentifier() or key.isdecimal()):
            self.line(f"m = {key}")
            key = "m"
        self.line(f"r = {table}_get({key})")
        self.line("if r is None:")
        self.line("    _misses += 1")
        self.line(f"    r = {table}[{key}] = {call}")
        self.line("else:")
        self.line("    _hits += 1")

    def memo_key(self, node: int, free: list[str], scope: dict) -> str:
        """An expression for the key of the quantifier *node* in its memo
        table, given its sorted free variables *free*.

        Every place that reaches a quantifier not in ``value_keyed`` binds
        its free variables with the same types and leaves the same ones
        unbound, so positions key it: one position, the mixed-radix number
        of several, or ``0`` for none.  When a free name holds a value (the
        caller bound it), or the quantifier is in ``value_keyed``, the key
        is the tuple of the free variables' values, ``_UNBOUND`` standing
        for a name not bound."""
        bound = [scope[name] for name in free if name in scope]
        if node in self.value_keyed or any(type_ is None for _, type_ in bound):
            key = [self.decoded(*scope[name]) if name in scope else "_UNBOUND" for name in free]
            return f"({''.join(f'{part}, ' for part in key)})"
        if not bound:
            return "0"
        (key, _), *rest = bound
        for local, type_ in rest:
            key = f"{key if key.isidentifier() else f'({key})'} * {self.radix(type_)} + {local}"
        return key

    def decision(self, formula: Exists | Forall, scope: dict, parameters: list[str]) -> str:
        """Emit the function deciding *formula* by enumerating its domain.

        The body is written first.  When it adds nothing :attr:`unsafe` and
        the variable's type is set-free, the quantifier is a *leaf*: its
        domain is ``range(|cons(T)|)``, so the loop variable counts the
        bindings before it, and nothing in the body can raise.  A leaf
        counts its bindings, enumerations and the body's leading
        satisfaction calls where its loop exits; under a budget it stops at
        the binding the per-binding check would raise at and raises there
        with the same counters.  Any other quantifier counts each binding,
        and checks the budget, before its body."""
        name, previous = self.begin("_q", parameters)
        settings, variable_type = self.settings, formula.variable_type
        key = str(variable_type)
        if key not in self.enumerations:
            self.enumerations[key] = (f"_e{len(self.enumerations)}", self.constant(key))
        counter = self.enumerations[key][0]
        if settings.strategy is QuantifierStrategy.EAGER:
            self.line(f"d = {self.made_by(_materializer, variable_type)}()")
            domain = "d"
        else:
            domain = self.once(_domain, variable_type)
        variable = self.fresh("v")
        existential = formula.__class__ is Exists
        budget = settings.binding_budget is not None
        self.line(f"if {counter} is None:")
        self.line(f"    {counter} = 0")
        unsafe = self.unsafe
        with self.block(f"for {variable} in {domain}:", loop=True):
            first = len(self.out.lines)
            self.formula(formula.body, {**scope, formula.variable: (variable, variable_type)})
            leaf = self.unsafe == unsafe and is_flat(variable_type)
            calls = self.take_calls(first) if leaf else 0
            with self.block("if r:" if existential else "if not r:"):
                if leaf:
                    self.line(f"{variable} += 1")
                    self.tally(counter, variable, calls, variable)
                self.line(f"return {existential}")
        if leaf:
            size = self.radix(variable_type)
            with self.block("else:") if budget else nullcontext():
                self.tally(counter, size, calls, size)
                self.line(f"return {not existential}")
            if budget:
                self.tally(counter, f"{variable} + 1", calls, variable)
                self.line("raise _budget_exceeded(_budget)")
                self.insert(first, [f"if {variable} >= room: break"])
                self.insert(first - 1, ["room = _budget - _bindings"])
        else:
            self.line(f"return {not existential}")
            prelude = ["_bindings += 1", f"{counter} += 1"]
            if budget:
                prelude += ["if _bindings > _budget:", "    raise _budget_exceeded(_budget)"]
            self.insert(first, prelude)
        self.end(previous)
        return name

    def tally(self, counter: str, bindings: str, calls: int, runs: str) -> None:
        """Count *bindings* bindings and enumerations of *counter*, and
        *runs* runs of a loop body that left out *calls* leading calls."""
        self.line(f"_bindings += {bindings}")
        self.line(f"{counter} += {bindings}")
        self.calls(calls, runs)

    # Terms ---------------------------------------------------------------
    def term(self, term: Term, scope: dict) -> tuple[str, ComplexType | None]:
        """A Python expression for *term*, and the type in whose ``cons`` it
        gives a position: ``None`` when it gives a value instead, or raises."""
        if isinstance(term, VariableTerm):
            binding = scope.get(term.name)
            if binding is None:
                return f"_raise_unbound({self.constant(term.name)})", None
            return binding
        if isinstance(term, Constant):
            if term.value not in self.positions.index:
                self.outside = True
                return self.constant(term.as_atom()), None
            self.atoms.add(term.value)
            return self.made_by(_position, term.value), U
        if isinstance(term, CoordinateTerm):
            binding = scope.get(term.variable_name)
            if binding is None:
                return f"_raise_unbound({self.constant(term.variable_name)})", None
            local, type_ = binding
            index = term.index
            if isinstance(type_, TupleType) and index <= len(type_.component_types):
                return self.coordinate(local, type_, index), type_.component_types[index - 1]
            value = self.decoded(local, type_)
            return f"_coordinate({value}, {index}, {self.constant(term)})", None
        raise EvaluationError(f"unknown term class {type(term).__name__}")

    def coordinate(self, local: str, type_: TupleType, index: int) -> str:
        """``x.index`` of the position *local* of a tuple type."""
        radix = self.radix(type_.component_types[index - 1])
        if index == len(type_.component_types):
            return f"{local} % {radix}"
        stride = self.once(_stride, (type_, index))
        if index == 1:
            return f"{local} // {stride}"
        return f"{local} // {stride} % {radix}"

    def value(self, term: Term, code: str, type_: ComplexType | None) -> str:
        """An expression for the value of *term*, which :meth:`term` wrote
        as *code* of *type_*."""
        if type_ is not None and isinstance(term, Constant):
            return self.constant(term.as_atom())
        return self.decoded(code, type_)

    def decoded(self, code: str, type_: ComplexType | None) -> str:
        """An expression for the value at the position *code* of *type_*;
        *code* itself when it is a value already (*type_* is ``None``)."""
        if type_ is None:
            return code
        decode = self.once(_decoder, type_)
        return f"{decode}({code})"
