"""Translation of second-order queries into CALC_{0,1} (Proposition 3.9).

A second-order relation variable of arity ``m`` becomes a calculus variable
of type ``{[U,...,U]}`` — set-height 1 — and a relation atom ``X(t1,...,tm)``
becomes the shorthand ``[t1,...,tm] ∈ X`` expanded with an auxiliary tuple
variable.  Database predicate atoms ``R(t1,...,tm)`` are likewise expanded
through an auxiliary tuple variable so the calculus predicate (which takes a
single typed argument) can be applied.  First-order variables keep their
atom type.  The resulting query is in ``CALC_{0,1}`` whenever the input and
output are flat, which is one direction of Proposition 3.9 — the direction
the tests check instance-by-instance.
"""

from __future__ import annotations

from repro.errors import TypingError
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
    conjunction,
)
from repro.calculus.query import CalculusQuery
from repro.calculus.terms import Constant, Term, VariableTerm
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
from repro.types.type_system import SetType, TupleType, U, relation_type


class _Translator:
    """Stateful translator carrying the schema and fresh-name counter.

    The scope is passed down the recursion: *variables* maps each
    first-order name to the calculus term it stands for — a head variable
    to its coordinate of the target, a quantified name to its calculus
    variable — and *relations* maps each quantified relation variable to
    its calculus variable and arity.  A quantifier extends a copy for its
    body, so it shadows an outer binding of its name only there.

    The calculus has one namespace, shared with the target variable and
    the auxiliary ``_row<n>`` variables, so names are kept apart: a
    quantifier whose name is already bound in its scope (as the target,
    a head variable, or by an enclosing quantifier of either kind) binds
    a fresh calculus variable instead, and fresh names avoid every name
    of the formula.
    """

    def __init__(self, schema: DatabaseSchema, formula: SOFormula, target: str) -> None:
        self.schema = schema
        self.target = target
        self._counter = 0
        self._taken = {target} | formula.free_first_order_variables()
        self._taken |= formula.free_relation_variables()
        for sub in formula.subformulas():
            if isinstance(sub, (SOExists, SOForall)):
                self._taken.add(sub.variable)
            elif isinstance(sub, (SOExistsRelation, SOForallRelation)):
                self._taken.add(sub.relation_variable)

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        while f"{prefix}{self._counter}" in self._taken:
            self._counter += 1
        return f"{prefix}{self._counter}"

    def binder(
        self, name: str, variables: dict[str, Term], relations: dict[str, tuple[str, int]]
    ) -> str:
        """The calculus variable a quantifier of *name* binds."""
        if name == self.target or name in variables or name in relations:
            return self.fresh("_q")
        return name

    # Terms -------------------------------------------------------------
    def term(self, so: SOTerm, variables: dict[str, Term]) -> Term:
        if isinstance(so, SOConstant):
            return Constant(so.value)
        if isinstance(so, SOVariable):
            return variables[so.name]
        raise TypingError(f"unknown second-order term class {type(so).__name__}")

    # Formulas ------------------------------------------------------------
    def formula(
        self,
        so: SOFormula,
        variables: dict[str, Term],
        relations: dict[str, tuple[str, int]],
    ) -> Formula:
        if isinstance(so, SOEquals):
            return Equals(self.term(so.left, variables), self.term(so.right, variables))

        if isinstance(so, SORelationAtom):
            return self.relation_atom(so, variables, relations)

        scope = (variables, relations)
        if isinstance(so, SONot):
            return Not(self.formula(so.operand, *scope))
        if isinstance(so, SOAnd):
            return And(self.formula(so.left, *scope), self.formula(so.right, *scope))
        if isinstance(so, SOOr):
            return Or(self.formula(so.left, *scope), self.formula(so.right, *scope))
        if isinstance(so, SOImplies):
            return Implies(self.formula(so.left, *scope), self.formula(so.right, *scope))

        if isinstance(so, (SOExists, SOForall)):
            name = self.binder(so.variable, variables, relations)
            inner = {**variables, so.variable: VariableTerm(name)}
            constructor = Exists if isinstance(so, SOExists) else Forall
            return constructor(name, U, self.formula(so.body, inner, relations))

        if isinstance(so, (SOExistsRelation, SOForallRelation)):
            name = self.binder(so.relation_variable, variables, relations)
            variable_type = SetType(relation_type(so.arity))
            inner = {**relations, so.relation_variable: (name, so.arity)}
            body = self.formula(so.body, variables, inner)
            constructor = Exists if isinstance(so, SOExistsRelation) else Forall
            return constructor(name, variable_type, body)

        raise TypingError(f"unknown second-order formula class {type(so).__name__}")

    def relation_atom(
        self,
        atom: SORelationAtom,
        variables: dict[str, Term],
        relations: dict[str, tuple[str, int]],
    ) -> Formula:
        name = atom.relation_name
        terms = [self.term(t, variables) for t in atom.terms]

        if name in relations:
            # A quantified relation variable: [t1,...,tm] ∈ X.
            set_variable, arity = relations[name]
            if arity != len(terms):
                raise TypingError(
                    f"relation variable {name!r} has arity {arity} but is applied to "
                    f"{len(terms)} terms"
                )
            return self._tuple_membership(terms, set_variable, arity)

        if name in self.schema:
            declared = self.schema.type_of(name)
            if isinstance(declared, TupleType):
                if declared.arity != len(terms):
                    raise TypingError(
                        f"predicate {name!r} has arity {declared.arity} but is applied to "
                        f"{len(terms)} terms"
                    )
                return self._predicate_application(terms, name, declared)
            if declared == U and len(terms) == 1:
                return PredicateAtom(name, terms[0])
            raise TypingError(
                f"predicate {name!r} of type {declared} cannot take {len(terms)} atomic terms"
            )

        raise TypingError(
            f"relation symbol {name!r} is neither a quantified relation variable nor a "
            "database predicate"
        )

    def _tuple_membership(self, terms: list[Term], set_variable: str, arity: int) -> Formula:
        auxiliary = self.fresh("_row")
        row = VariableTerm(auxiliary)
        equalities = [
            Equals(row.coordinate(index), term) for index, term in enumerate(terms, start=1)
        ]
        body = conjunction([Membership(row, VariableTerm(set_variable))] + equalities)
        return Exists(auxiliary, relation_type(arity), body)

    def _predicate_application(
        self, terms: list[Term], predicate: str, declared: TupleType
    ) -> Formula:
        auxiliary = self.fresh("_row")
        row = VariableTerm(auxiliary)
        equalities = [
            Equals(row.coordinate(index), term) for index, term in enumerate(terms, start=1)
        ]
        body = conjunction([PredicateAtom(predicate, row)] + equalities)
        return Exists(auxiliary, declared, body)


def so_query_to_calculus(
    head_variables: list[str],
    formula: SOFormula,
    schema: DatabaseSchema,
    target_variable: str = "t",
    name: str | None = None,
) -> CalculusQuery:
    """Translate the SO query ``{(x1,...,xk) | phi}`` into a calculus query.

    The resulting query maps *schema* to the flat type ``[U,...,U]`` of arity
    ``k`` and, for flat schemas, lies in ``CALC_{0,1}`` (Proposition 3.9).
    """
    if not head_variables:
        raise TypingError("a second-order query needs at least one head variable")
    if len(set(head_variables)) != len(head_variables):
        raise TypingError(f"head variables must be distinct, got {head_variables}")
    stray = formula.free_first_order_variables() - set(head_variables)
    if stray:
        raise TypingError(f"free variables {sorted(stray)} are not head variables")
    unknown = formula.free_relation_variables() - set(schema.predicate_names)
    if unknown:
        raise TypingError(
            f"free relation symbols {sorted(unknown)} are not database predicates"
        )
    target = VariableTerm(target_variable)
    head = {name: target.coordinate(index) for index, name in enumerate(head_variables, start=1)}
    body = _Translator(schema, formula, target_variable).formula(formula, head, {})
    return CalculusQuery(schema, target_variable, relation_type(len(head_variables)), body, name=name)


def so_sentence_to_calculus(
    formula: SOFormula,
    schema: DatabaseSchema,
    witness_predicate: str | None = None,
    name: str | None = None,
) -> CalculusQuery:
    """Translate an SO *sentence* into a calculus query with a boolean flavour.

    The resulting query returns the active domain restricted to
    *witness_predicate* (or the whole active domain when ``None``) if the
    sentence holds, and the empty instance otherwise — the same convention
    the paper's Example 3.2 uses for even-cardinality recognition.
    """
    if formula.free_first_order_variables():
        raise TypingError(
            "a sentence may not have free first-order variables: "
            f"{sorted(formula.free_first_order_variables())}"
        )
    body = _Translator(schema, formula, "t").formula(formula, {}, {})
    target = VariableTerm("t")
    if witness_predicate is not None:
        declared = schema.type_of(witness_predicate)
        if declared != U:
            raise TypingError(
                f"witness predicate {witness_predicate!r} must have type U, got {declared}"
            )
        guard: Formula = PredicateAtom(witness_predicate, target)
    else:
        guard = Equals(target, target)
    return CalculusQuery(schema, "t", U, And(guard, body), name=name)
