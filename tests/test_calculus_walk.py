"""The calculus evaluator against a node-by-node walk of each formula.

The evaluator compiles a formula into loops over positions, and a loop that
cannot raise counts its bindings where it exits rather than per binding.
:class:`_Walker` reads the same semantics off the formula tree, on values,
with the evaluator's counters, quantifier memo and binding budget: the
oracle the compiled evaluator must match in answers, errors and every
statistics counter, also at the moment a budget error fires.
"""

from __future__ import annotations

import pytest

from repro.algebra.translate import algebra_to_calculus
from repro.calculus import evaluation
from repro.calculus.builders import (
    PARENT_SCHEMA,
    PERSON_SCHEMA,
    even_cardinality_query,
    grandparent_query,
    superset_intersection_query,
    transitive_closure_query,
)
from repro.calculus.evaluation import (
    EvaluationSettings,
    EvaluationStatistics,
    QuantifierStrategy,
    evaluate_query_detailed,
    evaluation_universe,
    satisfies,
)
from repro.calculus.query import CalculusQuery
from repro.calculus.formulas import (
    And,
    Equals,
    Exists,
    Forall,
    Implies,
    Membership,
    Not,
    Or,
    PredicateAtom,
)
from repro.calculus.terms import Constant, CoordinateTerm, VariableTerm
from repro.errors import BudgetExceededError, EvaluationError, ReproError
from repro.objects.constructive import constructive_domain, iter_constructive_domain
from repro.objects.instance import DatabaseInstance, Instance
from repro.objects.values import SetValue, TupleValue
from repro.second_order import so_query_to_calculus
from repro.types.set_height import is_flat
from repro.types.type_system import U
from repro.utils.iteration import bounded
from repro.workloads import random_algebra_expression

from test_second_order import _sweep_case

CHAIN6 = [f"v{index}" for index in range(6)]
PARENTS3 = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("v0", "v1"), ("v1", "v2")])
PERSONS = ["p0", "p1", "p2", "p3"]

#: The calculus queries of the ``semantics`` benchmark, on its instances.
SEMANTICS = {
    "grandparent_chain6": (
        grandparent_query(),
        DatabaseInstance.build(PARENT_SCHEMA, PAR=list(zip(CHAIN6, CHAIN6[1:]))),
    ),
    "closure_chain3": (transitive_closure_query(), PARENTS3),
    "superset_chain3": (superset_intersection_query(), PARENTS3),
    "even_persons3": (
        even_cardinality_query(),
        DatabaseInstance.build(PERSON_SCHEMA, PERSON=PERSONS[:3]),
    ),
    "even_persons4": (
        even_cardinality_query(),
        DatabaseInstance.build(PERSON_SCHEMA, PERSON=PERSONS),
    ),
}

#: Stands for a free variable no binder binds, in memo keys.
_UNBOUND = object()


class _Walker:
    """The calculus semantics read node by node on values, with the
    evaluator's counters, quantifier memo and binding budget.

    ``fired`` records where a budget error came from: ``"leaf"`` for a
    binding of a quantifier whose type is set-free and whose body
    quantifies nothing, ``"non-leaf"`` for one of any other quantifier,
    and ``"output candidates"`` for an output candidate."""

    def __init__(self, database, universe, settings, statistics):
        self.database = database
        self.universe = universe
        self.settings = settings
        self.budget = settings.binding_budget
        self.statistics = statistics
        self.memo = {} if settings.memoize_quantifiers else None
        self.fired = None
        #: Quantifier id -> its sorted free variables, its enumeration key
        #: and where its bindings fire.
        self.quantifiers = {}

    def term(self, term, assignment):
        if isinstance(term, Constant):
            return term.as_atom()
        name = term.name if isinstance(term, VariableTerm) else term.variable_name
        if name not in assignment:
            raise EvaluationError(f"variable {name!r} is unbound during evaluation")
        value = assignment[name]
        if isinstance(term, CoordinateTerm):
            if not isinstance(value, TupleValue):
                raise EvaluationError(
                    f"term {term} selects a coordinate of the non-tuple value {value}"
                )
            return value.coordinate(term.index)
        return value

    def check(self, where):
        """Raise the budget error when the bindings counted pass the budget."""
        if self.budget is not None and self.statistics.bindings_tried > self.budget:
            self.fired = where
            raise BudgetExceededError(
                f"query evaluation exceeded the binding budget of {self.budget}",
                budget=self.budget,
            )

    def holds(self, formula, assignment) -> bool:
        statistics = self.statistics
        statistics.satisfaction_calls += 1
        kind = type(formula)
        if kind is Equals:
            return self.term(formula.left, assignment) == self.term(formula.right, assignment)
        if kind is Membership:
            container = self.term(formula.container, assignment)
            if not isinstance(container, SetValue):
                raise EvaluationError(
                    f"membership {formula} evaluated a non-set container value {container}"
                )
            return self.term(formula.element, assignment) in container
        if kind is PredicateAtom:
            argument = self.term(formula.argument, assignment)
            return argument in self.database.instance(formula.predicate_name).values
        if kind is Not:
            return not self.holds(formula.operand, assignment)
        if kind in (And, Or, Implies):
            left = self.holds(formula.left, assignment)
            if kind is And:
                return left and self.holds(formula.right, assignment)
            if kind is Or:
                return left or self.holds(formula.right, assignment)
            return not left or self.holds(formula.right, assignment)
        if id(formula) not in self.quantifiers:
            leaf = is_flat(formula.variable_type) and not any(
                isinstance(sub, (Exists, Forall)) for sub in formula.body.subformulas()
            )
            free = sorted(formula.free_variables())
            key = str(formula.variable_type)
            self.quantifiers[id(formula)] = free, key, "leaf" if leaf else "non-leaf"
        if self.memo is None:
            return self.quantify(formula, assignment)
        free = self.quantifiers[id(formula)][0]
        key = (id(formula), tuple(assignment.get(name, _UNBOUND) for name in free))
        if key in self.memo:
            statistics.memo_hits += 1
            return self.memo[key]
        statistics.memo_misses += 1
        self.memo[key] = self.quantify(formula, assignment)
        return self.memo[key]

    def quantify(self, formula, assignment) -> bool:
        statistics, type_ = self.statistics, formula.variable_type
        if self.settings.strategy is QuantifierStrategy.EAGER:
            domain = constructive_domain(type_, self.universe, self.budget)
        else:
            domain = iter_constructive_domain(type_, self.universe)
        _, key, where = self.quantifiers[id(formula)]
        enumerations = statistics.quantifier_enumerations
        enumerations.setdefault(key, 0)
        existential = type(formula) is Exists
        for value in domain:
            statistics.bindings_tried += 1
            enumerations[key] += 1
            self.check(where)
            if bool(self.holds(formula.body, {**assignment, formula.variable: value})) is existential:
                return existential
        return not existential

    def evaluate(self, query) -> Instance:
        """:func:`evaluate_query_detailed`'s answer, with its counters."""
        statistics = self.statistics
        atoms = self.universe
        if self.settings.restrict_output_to_active_domain:
            atoms = self.database.active_domain() | query.constants()
        candidates = iter_constructive_domain(query.target_type, atoms)
        answers = []
        for candidate in bounded(candidates, self.budget, what="output candidates"):
            statistics.output_candidates += 1
            statistics.bindings_tried += 1
            self.check("output candidates")
            if self.holds(query.formula, {query.target_variable: candidate}):
                answers.append(candidate)
        statistics.answers = len(answers)
        return Instance(query.target_type, answers)


def _outcome(decide):
    """What *decide* returns, or the error it raises as a string."""
    try:
        return decide()
    except ReproError as error:
        return f"{type(error).__name__}: {error}"


def _check(query, database, settings, context) -> tuple[bool, str | None]:
    """Compare the evaluator with the walker on *query*: the answer and
    every counter, or the error, of two evaluations, the second of which
    reuses the plan the first prepared.  Returns whether it raised, and
    where a budget error fired (see :class:`_Walker`)."""
    statistics = EvaluationStatistics()
    universe = evaluation_universe(query, database, settings)
    walker = _Walker(database, universe, settings, statistics)
    walked = _outcome(lambda: walker.evaluate(query))
    expected = walked if isinstance(walked, str) else (walked, statistics)
    for run in range(2):
        evaluated = _outcome(lambda: evaluate_query_detailed(query, database, settings))
        if not isinstance(evaluated, str):
            evaluated = evaluated.answer, evaluated.statistics
        assert evaluated == expected, (context, run)
    return isinstance(walked, str), walker.fired


def _check_formula(database, formula, universe, settings, context) -> str | None:
    """Compare the evaluator with the walker through :func:`satisfies` on
    the sentence *formula*: the truth value or the error, and every
    counter, also when a budget error fires, of two evaluations, the second
    of which reuses the plan the first prepared.  Returns where a budget
    error fired."""
    walked = EvaluationStatistics()
    walker = _Walker(database, universe, settings, walked)
    expected = _outcome(lambda: walker.holds(formula, {})), walked
    for run in range(2):
        evaluated = EvaluationStatistics()
        actual = _outcome(lambda: satisfies(database, formula, {}, universe, settings, evaluated))
        assert (actual, evaluated) == expected, (context, run)
    return walker.fired


def _check_sentence(query, database, settings, context) -> str | None:
    """:func:`_check_formula` on the sentence ``exists t (phi)``, whose
    target stays typed."""
    sentence = Exists(query.target_variable, query.target_type, query.formula)
    universe = evaluation_universe(query, database, settings)
    return _check_formula(database, sentence, universe, settings, context)


def _budgets(query, database) -> list[int]:
    """Budgets for *query* that fire all over its search space: powers of
    two up to its binding count, and the binding count after its first
    output candidate, which fires at the second."""
    unbounded = EvaluationSettings(binding_budget=None)
    universe = evaluation_universe(query, database, unbounded)
    statistics = EvaluationStatistics()
    walker = _Walker(database, universe, unbounded, statistics)
    walker.evaluate(query)
    total = statistics.bindings_tried
    statistics = EvaluationStatistics(bindings_tried=1)
    walker = _Walker(database, universe, unbounded, statistics)
    first = next(iter_constructive_domain(query.target_type, universe))
    walker.holds(query.formula, {query.target_variable: first})
    budgets = {0, statistics.bindings_tried, total - 1, total}
    budgets.update(1 << power for power in range(total.bit_length()))
    return sorted(budgets)


@pytest.mark.parametrize("name", sorted(SEMANTICS))
def test_semantics_queries_match_the_walk_under_budgets(name):
    """Each ``semantics`` query agrees with the walk unbounded, and under
    budgets that fire in a leaf loop, in a loop that is not a leaf and
    among the output candidates."""
    query, database = SEMANTICS[name]
    _check(query, database, EvaluationSettings(binding_budget=None), name)
    fired = set()
    for budget in _budgets(query, database):
        settings = EvaluationSettings(binding_budget=budget)
        fired.add(_check(query, database, settings, (name, budget))[1])
        fired.add(_check_sentence(query, database, settings, (name, budget)))
    assert {"leaf", "non-leaf", "output candidates"} <= fired, fired


@pytest.mark.parametrize(
    "mode",
    [{"strategy": QuantifierStrategy.EAGER}, {"memoize_quantifiers": False}],
    ids=["eager", "without-memo"],
)
def test_the_closure_query_matches_the_walk_in_other_modes(mode):
    query, database = SEMANTICS["closure_chain3"]
    for budget in (None, 700):
        settings = EvaluationSettings(binding_budget=budget, **mode)
        _check(query, database, settings, budget)
        _check_sentence(query, database, settings, budget)


def test_random_expressions_translate_to_the_walked_answers():
    """The Theorem 3.8 translations of
    ``test_random_expressions_translate_to_the_same_answer`` under its
    50,000-binding budget."""
    database = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b"), ("b", "c"), ("c", 2)])
    settings = EvaluationSettings(binding_budget=50_000)
    agreed = 0
    for seed in range(60):
        expression = random_algebra_expression(PARENT_SCHEMA, seed=seed, size=4)
        query = algebra_to_calculus(expression, PARENT_SCHEMA)
        context = (seed, str(expression))
        if _check(query, database, settings, context)[0]:
            _check_sentence(query, database, settings, context)
        else:
            agreed += 1
    assert agreed >= 50, agreed


def test_second_order_translations_match_the_walk():
    """The Proposition 3.9 translations of the second-order sweep's queries
    (``tests/test_second_order.py``) under its 20,000-binding budget."""
    settings = EvaluationSettings(binding_budget=20_000)
    agreed = 0
    for seed in range(400):
        database, head, formula, _ = _sweep_case(seed)
        if not head:
            continue
        query = so_query_to_calculus(head, formula, database.schema)
        context = (seed, str(formula))
        if _check(query, database, settings, context)[0]:
            _check_sentence(query, database, settings, context)
        else:
            agreed += 1
    assert agreed >= 150, agreed


def test_every_counted_binding_is_a_visited_one(monkeypatch):
    """The quantifier enumerations count exactly the positions the loops
    draw from their domains: a loop that counts where it exits counts no
    binding it did not visit."""
    visited = 0

    class Counting:
        def __init__(self, domain):
            self.domain = domain

        def __iter__(self):
            nonlocal visited
            for position in self.domain:
                visited += 1
                yield position

    position_domain = evaluation.position_domain
    monkeypatch.setattr(
        evaluation, "position_domain", lambda *arguments: Counting(position_domain(*arguments))
    )
    settings = EvaluationSettings(binding_budget=None)
    for name, (query, database) in sorted(SEMANTICS.items()):
        visited = 0
        statistics = evaluate_query_detailed(query, database, settings).statistics
        assert visited == sum(statistics.quantifier_enumerations.values()) > 0, name
    query, database = SEMANTICS["closure_chain3"]
    sentence = Exists(query.target_variable, query.target_type, query.formula)
    visited, statistics = 0, EvaluationStatistics()
    with pytest.raises(BudgetExceededError):
        satisfies(
            database,
            sentence,
            {},
            database.active_domain(),
            EvaluationSettings(binding_budget=700),
            statistics,
        )
    assert visited == sum(statistics.quantifier_enumerations.values()) == 701


def test_the_grandparent_inner_quantifier_counts_where_it_exits(monkeypatch):
    """In ``exists x (exists y (...))`` over pairs, the inner quantifier is
    a leaf: only the outer loop counts per binding, and the memo keys are
    ints, not tuples."""
    from repro.utils import pysource

    # Without plans kept from earlier tests, the evaluation writes its source.
    monkeypatch.setattr(evaluation, "_PLANS", {})
    sources = []
    compiled = pysource.compiled

    def recording(generator, source, *rest):
        sources.append(source)
        return compiled(generator, source, *rest)

    monkeypatch.setattr(evaluation.pysource, "compiled", recording)
    query, database = SEMANTICS["grandparent_chain6"]
    evaluate_query_detailed(query, database)
    (source,) = sources
    assert source.count("_bindings += 1") == 1
    assert source.count("_bindings += v") == 2  # a witness, and the budget
    assert "m = (" not in source


def test_a_formula_that_reaches_a_subformula_twice_keeps_its_own_memo(monkeypatch):
    """Plans are keyed by the formula object, not its structure: a formula
    that reaches one quantifier twice shares its memo table between both
    places, so the second place hits where the equal tree misses."""
    monkeypatch.setattr(evaluation, "_PLANS", {})
    database = SEMANTICS["even_persons4"][1]

    def a_person_equal_to_t():
        y = VariableTerm("y")
        return Exists("y", U, And(PredicateAtom("PERSON", y), Equals(y, VariableTerm("t"))))

    shared = a_person_equal_to_t()
    dag, tree = And(shared, shared), And(shared, a_person_equal_to_t())
    assert dag == tree
    for formula in (dag, tree, dag):
        query = CalculusQuery(PERSON_SCHEMA, "t", U, formula)
        _check(query, database, EvaluationSettings(), "dag" if formula is dag else "tree")


def test_a_universe_without_a_formula_constant_takes_the_value_path(monkeypatch):
    """A plan is reused only over a universe that holds every constant of
    its formula: :func:`satisfies` may be given one that lacks a constant,
    which is then written as a value."""
    monkeypatch.setattr(evaluation, "_PLANS", {})
    database = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a", "b"])
    formula = Exists("x", U, Equals(VariableTerm("x"), Constant("c")))
    for universe in ({"a", "b", "c"}, {"a", "b"}, {"a", "b", "c"}):
        _check_formula(database, formula, frozenset(universe), EvaluationSettings(), universe)


def test_a_predicate_outside_the_schema_raises_where_it_is_tested(monkeypatch):
    """Plans are keyed by the schema: over a database whose schema lacks a
    predicate, testing an argument against it raises, as it does on the
    first evaluation."""
    monkeypatch.setattr(evaluation, "_PLANS", {})
    formula = Exists("x", U, PredicateAtom("PERSON", VariableTerm("x")))
    persons = DatabaseInstance.build(PERSON_SCHEMA, PERSON=["a"])
    parents = DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b")])
    for database in (persons, parents, persons):
        universe = database.active_domain()
        _check_formula(database, formula, universe, EvaluationSettings(), database.schema)


@pytest.mark.parametrize(
    ("first", "second"),
    [
        ({"binding_budget": None, "memoize_quantifiers": False}, {"binding_budget": None}),
        ({"binding_budget": 300, "strategy": QuantifierStrategy.EAGER}, {"binding_budget": 300}),
        ({"binding_budget": None}, {"binding_budget": 300}),
    ],
    ids=["memoize_quantifiers", "strategy", "binding_budget"],
)
def test_each_setting_that_shapes_the_source_gets_its_own_plan(first, second, monkeypatch):
    """Plans are keyed by the settings the source depends on: with the
    memo off no memo is probed, the eager strategy materialises a domain
    (and over 300 elements raises before any binding), and a source
    written without a budget checks none."""
    monkeypatch.setattr(evaluation, "_PLANS", {})
    query, database = SEMANTICS["closure_chain3"]
    sentence = Exists(query.target_variable, query.target_type, query.formula)
    universe = evaluation_universe(query, database, EvaluationSettings())
    for values in (first, second, first):
        settings = EvaluationSettings(**values)
        _check(query, database, settings, values)
        _check_formula(database, sentence, universe, settings, values)


def test_a_warm_evaluation_writes_no_source(monkeypatch):
    """Once a formula is prepared, evaluating it again writes no source,
    also over a database with another number of atoms."""
    monkeypatch.setattr(evaluation, "_PLANS", {})
    programs = []
    program = evaluation._Compiler.program

    def counting(compiler, *arguments):
        programs.append(arguments)
        return program(compiler, *arguments)

    monkeypatch.setattr(evaluation._Compiler, "program", counting)
    query = grandparent_query()
    for length in (6, 3, 6):
        chain = CHAIN6[:length]
        database = DatabaseInstance.build(PARENT_SCHEMA, PAR=list(zip(chain, chain[1:])))
        _check(query, database, EvaluationSettings(), length)
    assert len(programs) == 1


def test_a_source_the_compile_cache_does_not_keep_leaves_no_plan(monkeypatch):
    """A plan would pin the factory of a source too long for the compile
    cache, so none is kept: each evaluation writes and compiles it anew."""
    from repro.utils import pysource

    monkeypatch.setattr(evaluation, "_PLANS", {})
    monkeypatch.setattr(pysource, "_COMPILED", {})
    monkeypatch.setattr(pysource, "_MAX_SOURCE_CHARS", 100)
    fresh = []
    compiled = pysource.compiled

    def recording(*arguments):
        function, compiled_now = compiled(*arguments)
        fresh.append(compiled_now)
        return function, compiled_now

    monkeypatch.setattr(pysource, "compiled", recording)
    chain = CHAIN6[:3]
    database = DatabaseInstance.build(PARENT_SCHEMA, PAR=list(zip(chain, chain[1:])))
    _check(grandparent_query(), database, EvaluationSettings(), "uncached")
    assert fresh == [True, True]
    assert evaluation._PLANS == {}
