"""NP-style queries as second-order sentences and CALC_{0,1} queries (Thm 4.3).

Run with::

    python examples/np_queries.py

Theorem 4.3 identifies the existential fragment of CALC_{0,1} (the language
SF) with the generic NPTIME queries, via Fagin's theorem.  This example
builds the two canonical NPTIME properties — 3-colourability and
even cardinality — as second-order sentences, evaluates them natively, and
pushes them through the Proposition 3.9 translation into the complex-object
calculus to show both engines agree.
"""

from __future__ import annotations

from repro.calculus.classification import calc_classification
from repro.calculus.evaluation import EvaluationSettings, evaluate_query
from repro.calculus.printer import format_query
from repro.objects.instance import DatabaseInstance
from repro.second_order import (
    GRAPH_SCHEMA,
    PERSON_SCHEMA,
    evaluate_sentence,
    even_cardinality_sentence,
    is_existential,
    so_sentence_to_calculus,
    three_colorability_sentence,
)

UNBOUNDED = EvaluationSettings(binding_budget=None)


def graph(vertices: str, edges: list[tuple[str, str]]) -> DatabaseInstance:
    return DatabaseInstance.build(GRAPH_SCHEMA, V=list(vertices), E=edges)


def main() -> None:
    print("=== 3-colourability (existential SO / SF / NPTIME) ===")
    sentence = three_colorability_sentence()
    print(f"existential second-order sentence? {is_existential(sentence)}")
    triangle = graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    k4 = graph("abcd", [(x, y) for x in "abcd" for y in "abcd" if x < y])
    for label, database in (("triangle K3", triangle), ("complete graph K4", k4)):
        print(f"  {label}: 3-colourable = {evaluate_sentence(sentence, database)}")

    print()
    print("=== Even cardinality (Example 3.2) in two engines ===")
    sentence = even_cardinality_sentence()
    calculus_query = so_sentence_to_calculus(sentence, PERSON_SCHEMA, witness_predicate="PERSON")
    print(f"translated calculus query lies in {calc_classification(calculus_query)}")
    print("query text (truncated):")
    print("  " + format_query(calculus_query)[:120] + " ...")
    for size in range(5):
        database = DatabaseInstance.build(PERSON_SCHEMA, PERSON=[f"p{i}" for i in range(size)])
        so_answer = evaluate_sentence(sentence, database)
        calculus_answer = evaluate_query(calculus_query, database, UNBOUNDED)
        agrees = (len(calculus_answer) > 0) == (so_answer and size > 0)
        print(
            f"  |PERSON| = {size}: SO says even={so_answer}, calculus returns "
            f"{len(calculus_answer)} witnesses (agreement: {agrees})"
        )
        assert agrees, f"the engines disagree at |PERSON| = {size}"


if __name__ == "__main__":
    main()
