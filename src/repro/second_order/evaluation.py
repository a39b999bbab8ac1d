"""Active-domain evaluation of second-order formulas and queries.

First-order variables range over the active domain of the database plus the
constants of the formula; second-order relation variables of arity ``k``
range over *all* subsets of ``adom^k``.  The second-order ranges have size
``2^(n^k)``, so the evaluator carries an explicit budget, exactly like the
complex-object calculus evaluator: the hyper-exponential search space is the
phenomenon the paper studies, not an accident to be optimised away.

The evaluator writes a formula as Python source (:class:`_Compiler`),
compiled once per process by :mod:`repro.utils.pysource`.  First-order
variables are locals holding domain indices: an atom's index is its
position in ``cons(U)`` (:class:`repro.objects.constructive.Positions`),
which alone decides the order of the domain.  A relation of arity ``k``
— a database predicate or a candidate for a relation variable — is an int
bitset over the row index of ``product(domain, repeat=k)``, so an atom is
an inline shift and mask.  A first-order quantifier is an inline ``for``
loop over the domain indices, a second-order one an inline loop over the
subset bitsets of :func:`repro.objects.constructive.subset_bitsets` with
the budget check in its body, and each breaks at its first witness or
counterexample.  A predicate's bitset is the position of its extension in
``cons({T})``.

Relation symbols are resolved while the source is written, so an atom
whose arity does not match its relation, or that applies a non-flat
predicate, is a :class:`TypingError` before anything is enumerated.  The
predicate bitsets, the constants' indices and the domain are arguments of
the generated factory, so the source depends only on the formula's
structure and the budget setting.

**Plans.**  The compiler only names the makers of the bitsets and
indices.  The first evaluation of a formula object that passes its checks
keeps its factory and those makers (a :class:`repro.utils.pysource.Plan`),
so a later one with the same head, schema and budget setting makes the
bitsets and indices for its database and calls the factory: it checks
nothing again, writes no source and walks no formula.

**Counting.**  The counters are closure cells of the generated code.  Only
the relation budget can raise, so a first-order loop whose body quantifies
no relation counts where it exits: its loop variable is the number of
bindings before it, so a break at ``v`` adds ``v + 1`` bindings and ``v + 1``
runs of its body's leading satisfaction calls, and running out adds ``n``.
Relation loops, and the first-order loops around them, count each
candidate and binding as they start it, so the counters are exact when the
budget fires.

**Spill rule.**  CPython refuses a function that nests more than 20 loops
and ``try`` blocks, or 100 indentation levels.  A subformula is written as
a function of its own, with its free variables as parameters, once the
function being written nests ``pysource.MAX_BLOCKS`` loops (counting the
``try`` around the main body) or more than ``pysource.MAX_INDENT``
indentation levels.

Candidate relations are enumerated in the same order as subsets of the
row list — by size, then in ``combinations`` order — so every answer,
budget error and statistics counter is the one a node-by-node walk of the
formula gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
from repro.objects.constructive import Positions, subset_bitsets
from repro.objects.instance import DatabaseInstance
from repro.relational.relation import Relation
from repro.types.schema import DatabaseSchema
from repro.types.type_system import TupleType, U
from repro.utils import pysource


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


def evaluation_domain(
    formula: SOFormula, database: DatabaseInstance
) -> tuple[object, ...]:
    """The active domain of the database plus the constants of the formula,
    in the order of their domain indices: an atom's index is its position
    in ``cons(U)``."""
    return Positions(database.active_domain() | _constants(formula)).atoms


def _constants(formula: SOFormula) -> frozenset[object]:
    """The atoms the constants of *formula* stand for."""
    return frozenset(
        term.value
        for sub in formula.subformulas()
        for term in _terms_of(sub)
        if isinstance(term, SOConstant)
    )


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
    return _run(formula, [], database, settings, statistics)


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
    rows = _run(formula, head_variables, database, settings, statistics)
    return Relation(len(head_variables), rows)


#: Prepared plans, keyed by the formula's identity, the head, the schema's
#: identity and whether the relation budget is off: all the source and
#: the checks of :func:`_prepare` depend on.  Cleared wholesale at
#: ``_MAX_PLANS`` entries, above the largest working set measured: the
#: ``semantics`` benchmark reuses 3 plans per pass, and tier-1 reuses a
#: plan within 1 plan of its insertion.
_PLANS: dict[tuple, pysource.Plan] = {}
_MAX_PLANS = 32


def _run(
    formula: SOFormula,
    head: list[str],
    database: DatabaseInstance,
    settings: SOEvaluationSettings,
    statistics: SOEvaluationStatistics | None,
) -> bool | set[tuple]:
    """Evaluate *formula*: its truth value when *head* is empty, otherwise
    the set of bindings of *head* that satisfy it.  A formula evaluated
    before with the same key reuses its plan and only makes the plan's
    constants anew."""
    schema = database.schema
    key = (id(formula), tuple(head), id(schema), settings.relation_budget is None)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _prepare(formula, head, schema, settings, key)
    positions = Positions(database.active_domain() | plan.atoms)
    constants = [make(argument, database, positions) for make, argument in plan.constants]
    statistics = statistics or SOEvaluationStatistics()
    return plan.factory(statistics, settings.relation_budget, positions.atoms, constants)()


def _prepare(
    formula: SOFormula,
    head: list[str],
    schema: DatabaseSchema,
    settings: SOEvaluationSettings,
    key: tuple,
) -> pysource.Plan:
    """Check *formula* against *head* (a sentence when it is empty) and
    *schema*, write its source and compile it.  The plan is kept under
    *key* when the compile cache keeps its factory."""
    stray = formula.free_first_order_variables() - set(head)
    if stray and head:
        raise EvaluationError(f"free variables {sorted(stray)} are not head variables")
    if stray:
        raise EvaluationError(
            f"a sentence may not have free first-order variables: {sorted(stray)}"
        )
    if not head:
        unknown = formula.free_relation_variables() - set(schema.predicate_names)
        if unknown:
            raise EvaluationError(
                f"free relation symbols {sorted(unknown)} are not database predicates"
            )
    compiler = _Compiler(schema, settings)
    source = compiler.program(formula, head)
    factory, _ = pysource.compiled("second-order", source, "_factory", _RUNTIME)
    plan = pysource.Plan(formula, schema, factory, tuple(compiler.constants), _constants(formula))
    if pysource.keeps(source):
        pysource.remember(_PLANS, key, plan, _MAX_PLANS)
    return plan


# The makers of the constants the compiler describes (pysource's
# ``Emitter.made_by``): each takes its argument, then the database and the
# domain indices of one evaluation.


def _index(atom, database, positions):
    return positions.index[atom]


def _bitset(predicate, database, positions):
    name, declared = predicate
    # The relation's bitset is the position of its extension in cons({T}).
    return positions.bitset(database.instance(name).values, declared)


def _over_budget(budget: int) -> EvaluationError:
    return EvaluationError(f"second-order quantifier exceeded the relation budget of {budget}")


#: The globals of every generated factory.
_RUNTIME = {
    "_over_budget": _over_budget,
    "_product": product,
    "_relations": subset_bitsets,
}

#: The counter cells of the generated code, and the statistics they mirror.
_COUNTERS = (
    ("_calls", "satisfaction_calls"),
    ("_bindings", "first_order_bindings"),
    ("_tried", "relations_tried"),
)


class _Compiler(pysource.Emitter):
    """Writes one formula as the Python source of a factory.

    The factory ``_factory(_stats, _budget, _domain, _k)`` unpacks into
    ``_k0, _k1, ...`` the bitsets of the predicates the formula uses and the
    domain indices of its constants, which the compiler only describes
    (``_bitset``, ``_index``), and returns ``run``.  The counters
    ``_calls``, ``_bindings`` and ``_tried`` are closure cells shared by
    every generated function; a first-order loop counts at its exits where
    it can (:meth:`first_order`).  Every binder owns one local — ``v<n>``
    for a domain index, ``b<n>`` for a relation bitset — and every
    occurrence is resolved to the local of its innermost binder.  Every
    formula is written as statements that leave its truth value in ``r``,
    and a subformula that would nest too deep as a function ``_s<n>``.
    """

    def __init__(self, schema: DatabaseSchema, settings: SOEvaluationSettings) -> None:
        super().__init__("run()")
        self.schema = schema
        self.budget = settings.relation_budget
        #: ``predicate name -> (constant holding its bitset, arity)``.
        self.predicates: dict[str, tuple[str, int]] = {}
        #: Relation quantifiers written so far: the code that can raise.
        self.relation_loops = 0

    def program(self, formula: SOFormula, head: list[str]) -> str:
        if not head:
            self.formula(formula, {}, {})
            self.line("return bool(r)")
        else:
            variables = {name: self.fresh("v") for name in head}
            self.line("rows = set()")
            locals_ = ", ".join(variables.values())
            with self.block(f"for {locals_}, in _product(_d, repeat={len(head)}):", loop=True):
                self.line("_bindings += 1")
                self.formula(formula, variables, {})
                self.line("if r:")
                values = ", ".join(f"_domain[{local}]" for local in variables.values())
                self.line(f"    rows.add(({values},))")
            self.line("return rows")
        prologue = ["_n = len(_domain)", "_d = range(_n)"]
        return self.factory("_stats, _budget, _domain", prologue, _COUNTERS)

    def formula(self, formula: SOFormula, variables: dict, relations: dict) -> None:
        """Write statements leaving the truth value of *formula* in ``r``."""
        if self.deep():
            self.spill(formula, variables, relations)
            return
        kind = formula.__class__
        self.out.pending += 1
        if kind is SOEquals:
            left = self.term(formula.left, variables)
            self.line(f"r = {left} == {self.term(formula.right, variables)}")
        elif kind is SORelationAtom:
            relation = self.relation(formula, relations)
            row, *rest = (self.term(term, variables) for term in formula.terms)
            for index in rest:
                row = f"{row if row.isidentifier() else f'({row})'} * _n + {index}"
            self.line(f"r = {relation} >> {row} & 1")
        elif kind is SONot:
            self.formula(formula.operand, variables, relations)
            self.line("r = not r")
        elif kind is SOAnd or kind is SOOr or kind is SOImplies:
            self.formula(formula.left, variables, relations)
            with self.block("if not r:" if kind is SOOr else "if r:"):
                self.formula(formula.right, variables, relations)
            if kind is SOImplies:
                self.line("else: r = True")
        elif kind is SOExists or kind is SOForall:
            self.first_order(formula, variables, relations)
        elif kind is SOExistsRelation or kind is SOForallRelation:
            self.relation_loops += 1
            local = self.fresh("b")
            with self.block(f"for {local} in _relations(range(_n ** {formula.arity})):", loop=True):
                self.line("_tried += 1")
                if self.budget is not None:
                    self.line("if _tried > _budget: raise _over_budget(_budget)")
                scope = {**relations, formula.relation_variable: (local, formula.arity)}
                self.formula(formula.body, variables, scope)
                self.line("if r: break" if kind is SOExistsRelation else "if not r: break")
            self.line(f"else: r = {kind is SOForallRelation}")
        else:
            raise EvaluationError(f"unknown second-order formula class {type(formula).__name__}")

    def first_order(self, formula: SOExists | SOForall, variables: dict, relations: dict) -> None:
        """Write the loop of a first-order quantifier, which stops at the
        first witness or counterexample.  The body is written first.  Only
        the relation budget can raise, so when the body quantifies no
        relation the loop counts its bindings and its body's leading
        satisfaction calls where it exits, the loop variable being the
        number of bindings before it; otherwise it counts each binding
        before its body."""
        local, existential = self.fresh("v"), formula.__class__ is SOExists
        relation_loops = self.relation_loops
        with self.block(f"for {local} in _d:", loop=True):
            first = len(self.out.lines)
            self.formula(formula.body, {**variables, formula.variable: local}, relations)
            counted = self.relation_loops == relation_loops
            calls = self.take_calls(first) if counted else 0
            with self.block("if r:" if existential else "if not r:"):
                if counted:
                    self.line(f"{local} += 1")
                    self.line(f"_bindings += {local}")
                    self.calls(calls, local)
                self.line("break")
        if not counted:
            self.insert(first, ["_bindings += 1"])
            self.line(f"else: r = {not existential}")
            return
        with self.block("else:"):
            self.line("_bindings += _n")
            self.calls(calls, "_n")
            self.line(f"r = {not existential}")

    def spill(self, formula: SOFormula, variables: dict, relations: dict) -> None:
        """Write *formula* as a function of its own, called here."""
        parameters = [variables[name] for name in sorted(formula.free_first_order_variables())]
        free = sorted(formula.free_relation_variables())
        parameters += [relations[name][0] for name in free if name in relations]
        name, previous = self.begin("_s", parameters)
        self.formula(formula, variables, relations)
        self.line("return r")
        self.end(previous)
        self.line(f"r = {name}({', '.join(parameters)})")

    def term(self, term: SOTerm, variables: dict) -> str:
        if isinstance(term, SOConstant):
            return self.made_by(_index, term.value)
        if isinstance(term, SOVariable):
            return variables[term.name]
        raise EvaluationError(f"unknown term class {type(term).__name__}")

    def relation(self, formula: SORelationAtom, relations: dict) -> str:
        """The name holding the bitset *formula* applies, checked against
        the number of its terms."""
        name, arity = formula.relation_name, len(formula.terms)
        if name in relations:
            relation, declared = relations[name]
            kind = "relation variable"
        elif name in self.schema:
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
        return relation

    def predicate(self, name: str) -> tuple[str, int]:
        entry = self.predicates.get(name)
        if entry is None:
            declared = self.schema.type_of(name)
            tuples = isinstance(declared, TupleType)
            if not (declared == U or tuples and set(declared.component_types) == {U}):
                raise TypingError(
                    f"predicate {name!r} has the non-flat type {declared}; "
                    "second-order atoms apply flat relations only"
                )
            arity = declared.arity if tuples else 1
            entry = self.predicates[name] = (self.made_by(_bitset, (name, declared)), arity)
        return entry
