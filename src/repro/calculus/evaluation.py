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

Every evaluation first compiles its formula into Python source
(:class:`_Compiler`).  Each quantifier becomes one generated function: its
bound free variables are the parameters, its loop variable is a local, and
the atoms and connectives of its body are inlined as statements; the call
site probes the quantifier memo inline and calls the function only on a
miss.  Everything that is fixed per formula node is resolved then: the kind
and type of each term, each quantifier's sorted free variables,
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
Memo keys are tuples of ints.  Answers stay values: each output candidate
is enumerated as a value and encoded once.

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
values too.

Strides, radices, constant positions, predicate positions, decoders and
domain views are passed to the generated factory as arguments, so the
source text depends only on the formula's structure and the settings, and
compiled factories are cached by that text in the process-wide cache of
:mod:`repro.utils.pysource`.  The cache pays off when a structure repeats;
a structure seen once pays for writing its source and for ``compile()``,
which for a small formula costs more than evaluating it.  One factory call
per evaluation creates the memo and the counters, so concurrent
evaluations share nothing.  The generated code enumerates the same
constructive domains in the same order as the formula's tree semantics
prescribes, so every answer, error and statistics counter is the one a
node-by-node walk of the formula gives.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
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
    name without one, its value.
    """
    compiler = _Compiler(database, positions, settings)
    source = compiler.program(formula, bound)
    if compiler.conflicts:
        # A shared subformula is reached with differently typed free
        # variables, whose positions may coincide: rewrite it to key its
        # memo on their values.
        compiler = _Compiler(database, positions, settings, value_keyed=compiler.conflicts)
        source = compiler.program(formula, bound)
    factory, _ = pysource.compiled("calculus", source, "_factory", _RUNTIME)
    memo = {} if settings.memoize_quantifiers else None
    return factory(statistics, settings.binding_budget, memo, tuple(compiler.constants))


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

    The factory ``_factory(_stats, _budget, _memo, _k)`` unpacks the
    constants ``_k`` into ``_k0, _k1, ...`` — predicate positions and
    instances, constant positions and atoms, strides and radices, decoders,
    memo node ids, domain views, enumeration keys and the subjects of error
    messages — and returns ``holds``, which decides the formula for the
    caller's bound names.  The counters (``_calls``, ``_bindings``,
    ``_hits``, ``_misses`` and one ``_e<n>`` per enumeration key) are
    closure cells shared by every generated function; ``holds`` loads them
    from the statistics when it starts and stores them back in a
    ``finally``.

    Each quantifier becomes a function ``_q<n>`` whose parameters are its
    bound free variables.  Every binder — a quantifier, or a name the
    caller binds — owns one local ``v<n>``, and every variable occurrence
    is resolved to the local of its innermost binder and that binder's
    type (``None`` for a name the caller binds); a variable with no binder
    reads ``_UNBOUND`` in memo keys and raises when its value is needed.
    Every other formula is emitted as statements that leave its truth
    value in ``r``, spilled into a function ``_s<n>`` of its own when it
    would nest deeper than ``pysource.MAX_INDENT``.
    """

    def __init__(
        self,
        database: DatabaseInstance,
        positions: Positions,
        settings: EvaluationSettings,
        value_keyed: set[int] | frozenset[int] = frozenset(),
    ) -> None:
        super().__init__("holds()")
        self.database = database
        self.positions = positions
        self.settings = settings
        #: Enumeration key -> (its counter cell, the constant holding it).
        self.enumerations: dict[str, tuple[str, str]] = {}
        #: Constants fixed by the structure alone (a stride, a decoder, a
        #: predicate's positions), written once each.
        self.shared: dict[tuple, str] = {}
        #: Memoised quantifier id -> the types of its free variables where
        #: it was first reached.
        self.signatures: dict[int, tuple] = {}
        #: Quantifiers reached with differently typed free variables.
        self.conflicts: set[int] = set()
        #: Quantifiers whose memo keys hold values, not positions.
        self.value_keyed = value_keyed

    def program(self, formula: Formula, bound: dict[str, ComplexType | None]) -> str:
        scope = {name: (self.fresh("v"), type_) for name, type_ in bound.items()}
        self.out.signature = f"holds({', '.join(local for local, _ in scope.values())})"
        self.formula(formula, scope)
        self.line("return bool(r)")
        prologue = ["_enumerations = _stats.quantifier_enumerations"]
        if self.settings.memoize_quantifiers:
            prologue.append("_memo_get = _memo.get")
        # An enumeration counter is stored only once its quantifier has run.
        cells = [
            (
                cell,
                f"_enumerations.get({key})",
                f"if {cell} is not None: _enumerations[{key}] = {cell}",
            )
            for cell, key in self.enumerations.values()
        ]
        return self.factory("_stats, _budget, _memo", prologue, _COUNTERS, cells)

    def once(self, key: tuple, make: Callable[[], object]) -> str:
        """The constant for *key*, made by *make* the first time."""
        name = self.shared.get(key)
        if name is None:
            name = self.shared[key] = self.constant(make())
        return name

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
        name, schema = formula.predicate_name, self.database.schema
        if name not in schema:
            values = self.constant(_MissingPredicate(self.database, name))
        elif argument_type is not None and argument_type == schema.type_of(name):
            values = self.once(("P", name), partial(self.encoded, name, argument_type))
        else:
            argument = self.value(formula.argument, argument, argument_type)
            values = self.constant(self.database.instance(name).values)
        self.line(f"r = {argument} in {values}")

    def encoded(self, name: str, type_: ComplexType) -> frozenset[int]:
        """The positions of the values of predicate *name*.  A value with an
        atom outside the universe has none, and no position equals it."""
        encode = self.positions.encode
        positions = set()
        for value in self.database.instance(name).values:
            try:
                positions.add(encode(value, type_))
            except KeyError:
                continue
        return frozenset(positions)

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
        if not self.settings.memoize_quantifiers:
            self.line(f"r = {call}")
            return
        node = id(formula)
        signature = tuple(scope[name][1] if name in scope else _UNBOUND for name in free)
        if self.signatures.setdefault(node, signature) != signature:
            self.conflicts.add(node)
        key = [self.constant(node)]
        for name in free:
            if name not in scope:
                key.append("_UNBOUND")
                continue
            local, type_ = scope[name]
            key.append(self.decoded(local, type_) if node in self.value_keyed else local)
        self.line(f"m = ({', '.join(key)},)")
        self.line("r = _memo_get(m)")
        self.line("if r is None:")
        self.line("    _misses += 1")
        self.line(f"    r = _memo[m] = {call}")
        self.line("else:")
        self.line("    _hits += 1")

    def decision(self, formula: Exists | Forall, scope: dict, parameters: list[str]) -> str:
        """Emit the function deciding *formula* by enumerating its domain."""
        name, previous = self.begin("_q", parameters)
        settings, variable_type = self.settings, formula.variable_type
        atom_count = len(self.positions.atoms)
        key = str(variable_type)
        if key not in self.enumerations:
            self.enumerations[key] = (f"_e{len(self.enumerations)}", self.constant(key))
        counter = self.enumerations[key][0]
        if settings.strategy is QuantifierStrategy.EAGER:
            materialize = partial(
                constructive_positions,
                variable_type,
                atom_count,
                budget=settings.binding_budget,
            )
            self.line(f"d = {self.constant(materialize)}()")
            domain = "d"
        else:
            view = partial(position_domain, variable_type, atom_count)
            domain = self.once(("domain", variable_type), view)
        variable = self.fresh("v")
        self.line(f"if {counter} is None:")
        self.line(f"    {counter} = 0")
        with self.block(f"for {variable} in {domain}:", loop=True):
            self.line("_bindings += 1")
            self.line(f"{counter} += 1")
            if settings.binding_budget is not None:
                self.line("if _bindings > _budget:")
                self.line("    raise _budget_exceeded(_budget)")
            self.formula(formula.body, {**scope, formula.variable: (variable, variable_type)})
            existential = formula.__class__ is Exists
            self.line("if r:" if existential else "if not r:")
            self.line(f"    return {existential}")
        self.line(f"return {not existential}")
        self.end(previous)
        return name

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
            position = self.positions.index.get(term.value)
            if position is None:
                return self.constant(term.as_atom()), None
            return self.constant(position), U
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
        component = type_.component_types[index - 1]
        radix = self.once(("radix", component), partial(self.positions.size, component))
        if index == len(type_.component_types):
            return f"{local} % {radix}"
        stride = self.once(("stride", type_, index), partial(self.positions.stride, type_, index))
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
        decode = self.once(("decode", type_), lambda: partial(self.positions.decode, type_=type_))
        return f"{decode}({code})"
