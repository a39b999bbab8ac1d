"""Property-based side-by-side tests: the engine equals the legacy oracle.

Expressions come from :func:`repro.workloads.random_algebra_expression`
(seeded, so every failure reproduces); each is evaluated by the legacy
tree-walking interpreter and by the engine in several configurations.  The
property: for every expression the legacy interpreter can evaluate, every
engine configuration returns exactly the same instance — and when the
legacy interpreter exceeds its powerset budget, the engine with the
logical optimizer disabled raises too (with the optimizer enabled it may
legitimately succeed by removing the powerset).
"""

import pytest

from repro.errors import EvaluationError
from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.calculus.builders import PARENT_SCHEMA
from repro.objects.values import clear_intern_tables
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.workloads import random_algebra_expression, random_database

NESTED_SCHEMA = DatabaseSchema(
    [("R", parse_type("[U, {U}]")), ("S", parse_type("{U}")), ("NAME", parse_type("U"))]
)

ATOMS = ["a", "b", "v0", "v1", "v2"]

#: Engine configurations swept by every equivalence test.  "strict" (no
#: logical pass) must match the oracle bit for bit, including budget
#: errors; the others must match whenever the oracle succeeds.
STRICT = AlgebraEvaluationSettings(engine_logical_optimize=False)
CONFIGURATIONS = {
    "strict": STRICT,
    "optimized": AlgebraEvaluationSettings(),
    "no-hash-join": AlgebraEvaluationSettings(engine_hash_join=False),
    "no-cse": AlgebraEvaluationSettings(engine_cse=False),
}


def _databases():
    return (
        (PARENT_SCHEMA, random_database(PARENT_SCHEMA, ATOMS, count=6, seed=11)),
        (NESTED_SCHEMA, random_database(NESTED_SCHEMA, ["a", "b", "v0"], count=5, seed=12)),
    )


@pytest.mark.parametrize("seed", range(40))
def test_engine_matches_legacy_on_random_expressions(seed):
    for schema, database in _databases():
        expression = random_algebra_expression(schema, seed=seed, size=8)
        try:
            oracle = evaluate_expression_legacy(expression, database)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate_expression(expression, database, STRICT)
            continue
        for name, settings in CONFIGURATIONS.items():
            answer = evaluate_expression(expression, database, settings)
            assert answer == oracle, (
                f"engine configuration {name!r} diverged from the oracle on "
                f"seed {seed}: {expression}"
            )


@pytest.mark.parametrize("seed", range(40, 60))
def test_engine_matches_legacy_with_powerset_round_trips(seed):
    """Higher powerset pressure: most powersets appear as 𝒞(𝒫(E))."""
    for schema, database in _databases():
        expression = random_algebra_expression(
            schema, seed=seed, size=10, powerset_probability=0.45
        )
        try:
            oracle = evaluate_expression_legacy(expression, database)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate_expression(expression, database, STRICT)
            continue
        assert evaluate_expression(expression, database, STRICT) == oracle
        assert evaluate_expression(expression, database) == oracle


def test_generator_is_deterministic():
    first = random_algebra_expression(PARENT_SCHEMA, seed=7, size=8)
    second = random_algebra_expression(PARENT_SCHEMA, seed=7, size=8)
    assert str(first) == str(second)


def test_generator_covers_the_operator_alphabet():
    seen = set()
    for seed in range(60):
        expression = random_algebra_expression(PARENT_SCHEMA, seed=seed, size=10)
        seen |= {type(node).__name__ for node in expression.walk()}
    assert {"PredicateExpression", "Product", "Selection", "Projection"} <= seen
    assert "Powerset" in seen or "Collapse" in seen


def _sweep_engine_vs_legacy(seed):
    """Evaluate one seeded expression per database; return the successful
    oracle answers after asserting engine/legacy agreement."""
    oracles = []
    for schema, database in _databases():
        expression = random_algebra_expression(schema, seed=seed, size=8)
        try:
            oracle = evaluate_expression_legacy(expression, database)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate_expression(expression, database, STRICT)
            continue
        assert evaluate_expression(expression, database, STRICT) == oracle
        assert evaluate_expression(expression, database) == oracle
        oracles.append(oracle)
    return oracles


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_engine_matches_legacy_under_both_interning_modes(seed):
    """No answer depends on which instances the intern tables hold: after
    the tables are cleared, the databases are rebuilt from values equal to
    (but not the same as) those the engine's caches kept, the engine/legacy
    agreement still holds, and both sweeps give equal instances."""
    first = _sweep_engine_vs_legacy(seed)
    clear_intern_tables()
    second = _sweep_engine_vs_legacy(seed)
    assert first == second
