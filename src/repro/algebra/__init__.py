"""The complex-object algebra (Section 2 of the paper).

Algebra expressions are built from predicate symbols and singleton constants
with union, intersection, difference, projection, selection, cartesian
product, untuple, collapse and powerset.  Every expression carries an
inferred type and evaluates to an *instance* of that type.

The algebra is expressively equivalent to the calculus for ``i >= k``
(Theorem 3.8); :mod:`repro.algebra.translate` implements the algebra-to-
calculus direction of that equivalence, and :mod:`repro.algebra.derived`
provides the nest/unnest/join operators that the paper notes are simulable.
"""

from repro.algebra.expressions import (
    AlgebraExpression,
    Collapse,
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
from repro.algebra.evaluation import (
    AlgebraEvaluationSettings,
    evaluate_expression,
    evaluate_expression_legacy,
)
from repro.algebra.vectorized import (
    CompiledCondition,
    compile_condition,
    vectorized_stats,
)
from repro.algebra.classification import alg_classification, expression_types, in_alg
from repro.algebra.translate import algebra_to_calculus
from repro.algebra.derived import join, nest, unnest
from repro.algebra.optimizer import (
    CostEstimate,
    DatabaseStatistics,
    OptimizationResult,
    estimate_cost,
    optimize,
)

__all__ = [
    "CostEstimate",
    "DatabaseStatistics",
    "OptimizationResult",
    "estimate_cost",
    "optimize",
    "AlgebraExpression",
    "Collapse",
    "ConstantSingleton",
    "Difference",
    "Intersection",
    "Powerset",
    "PredicateExpression",
    "Product",
    "Projection",
    "Selection",
    "SelectionCondition",
    "Union",
    "Untuple",
    "AlgebraEvaluationSettings",
    "evaluate_expression",
    "evaluate_expression_legacy",
    "CompiledCondition",
    "compile_condition",
    "vectorized_stats",
    "alg_classification",
    "expression_types",
    "in_alg",
    "algebra_to_calculus",
    "join",
    "nest",
    "unnest",
]
