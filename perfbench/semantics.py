"""The ``semantics`` workload: the paper's queries, evaluated in process.

A fixed rotation of (query, database) pairs, each 3–110 ms on a 2-vCPU
VM: CALC_{0,0} grandparent, the CALC_{0,1} queries of Examples 3.1 and
3.2, the second-order specimens, and the two polynomial baselines for the
transitive-closure mapping (the while-change program, which runs through
the engine and its plan cache, and semi-naive Datalog).  Every answer is
checked against its known value, and the four transitive-closure
evaluators must agree on the same 3-vertex chain.

The seed chooses the atom labels and where the rotation starts.  Labels
share one prefix, so their sort order — and with it every evaluator's
enumeration order and cost — is the same for every seed.

Entry points are looked up on their modules at call time, so the
benchmark's tracing wrappers see every call.
"""

from __future__ import annotations

from time import perf_counter

from perfbench.common import reference_kernel
from repro.calculus import evaluation as calculus_evaluation
from repro.calculus.builders import (
    PARENT_SCHEMA,
    PERSON_SCHEMA,
    even_cardinality_query,
    grandparent_query,
    superset_intersection_query,
    transitive_closure_query,
)
from repro.datalog import evaluation as datalog_evaluation
from repro.datalog.builders import transitive_closure_program as datalog_closure
from repro.fixpoint.builders import transitive_closure_program as fixpoint_closure
from repro.objects.instance import DatabaseInstance
from repro.objects.stats import runtime_stats
from repro.relational.relation import Relation
from repro.second_order import evaluation as so_evaluation
from repro.second_order.builders import (
    GRAPH_SCHEMA,
    PERSON_SCHEMA as SO_PERSON_SCHEMA,
    even_cardinality_sentence,
    reachability_query,
    three_colorability_sentence,
)

#: Unbounded: every suite entry is small enough to finish.
_CALCULUS = calculus_evaluation.EvaluationSettings(binding_budget=None)

#: Calculus statistics summed per window (from each evaluation's result).
CALCULUS_COUNTERS = ("memo_hits", "memo_misses", "bindings_tried", "satisfaction_calls")


def _pairs(values) -> frozenset:
    return frozenset(tuple(component.value for component in value.components) for value in values)


def _atoms(values) -> frozenset:
    return frozenset(value.value for value in values)


class Entry:
    """One suite entry: a thunk that evaluates it, the layer that does the
    work, and the normalized answer it must produce."""

    __slots__ = ("name", "layer", "evaluate", "normalize", "expected")

    def __init__(self, name, layer, evaluate, normalize, expected) -> None:
        self.name = name
        self.layer = layer
        self.evaluate = evaluate
        self.normalize = normalize
        self.expected = expected


class Suite:
    """The rotation, built from the seed."""

    def __init__(self, seed: int) -> None:
        label = f"s{seed % 10}"
        chain6 = [f"{label}v{index}" for index in range(6)]
        a, b, c = chain6[:3]
        chain3 = [(a, b), (b, c)]
        closure3 = frozenset({(a, b), (b, c), (a, c)})
        persons = [f"{label}p{index}" for index in range(4)]
        cycle = [f"{label}w{index}" for index in range(4)]

        grandparents = DatabaseInstance.build(PARENT_SCHEMA, PAR=list(zip(chain6, chain6[1:])))
        parents3 = DatabaseInstance.build(PARENT_SCHEMA, PAR=chain3)
        persons3 = DatabaseInstance.build(PERSON_SCHEMA, PERSON=persons[:3])
        persons4 = DatabaseInstance.build(PERSON_SCHEMA, PERSON=persons)
        so_persons4 = DatabaseInstance.build(SO_PERSON_SCHEMA, PERSON=persons)
        cycle4 = DatabaseInstance.build(
            GRAPH_SCHEMA, V=cycle, E=[(cycle[i], cycle[(i + 1) % 4]) for i in range(4)]
        )
        graph3 = DatabaseInstance.build(GRAPH_SCHEMA, V=[a, b, c], E=chain3)
        edges3 = {"PAR": Relation(2, chain3)}

        grandparent = grandparent_query()
        closure = transitive_closure_query()
        superset = superset_intersection_query()
        parity = even_cardinality_query()
        so_parity = even_cardinality_sentence()
        colouring = three_colorability_sentence()
        head, reachability = reachability_query()
        program = fixpoint_closure()
        datalog = datalog_closure("PAR", "TC")

        def calculus(query, database):
            return lambda: calculus_evaluation.evaluate_query_detailed(query, database, _CALCULUS)

        answer_pairs = lambda result: _pairs(result.answer.values)  # noqa: E731
        answer_atoms = lambda result: _atoms(result.answer.values)  # noqa: E731
        self.entries = [
            Entry(
                "grandparent_chain6", "calculus", calculus(grandparent, grandparents),
                answer_pairs, frozenset(zip(chain6, chain6[2:])),
            ),
            Entry(
                "closure_chain3", "calculus", calculus(closure, parents3), answer_pairs, closure3
            ),
            Entry(
                "superset_chain3", "calculus", calculus(superset, parents3),
                answer_pairs, frozenset(chain3),
            ),
            Entry(
                "even_persons3", "calculus", calculus(parity, persons3), answer_atoms, frozenset()
            ),
            Entry(
                "even_persons4", "calculus", calculus(parity, persons4),
                answer_atoms, frozenset(persons),
            ),
            Entry(
                "even_persons4", "second_order",
                lambda: so_evaluation.evaluate_sentence(so_parity, so_persons4), bool, True,
            ),
            Entry(
                "colourable_cycle4", "second_order",
                lambda: so_evaluation.evaluate_sentence(colouring, cycle4), bool, True,
            ),
            Entry(
                "reach_chain3", "second_order",
                lambda: so_evaluation.evaluate_query(head, reachability, graph3),
                lambda relation: relation.tuples, closure3,
            ),
            Entry(
                "closure_chain3", "fixpoint", lambda: program.run(parents3),
                lambda result: _pairs(result.output.values), closure3,
            ),
            Entry(
                "closure_chain3", "datalog",
                lambda: datalog_evaluation.evaluate_program(datalog, edges3),
                lambda facts: facts["TC"].tuples, closure3,
            ),
        ]
        start = seed % len(self.entries)
        self.rotation = self.entries[start:] + self.entries[:start]

    @staticmethod
    def key(entry: Entry) -> str:
        """The entry's metric key, ``<layer>.<name>``."""
        return f"{entry.layer}.{entry.name}"


def run_pass(suite: Suite, window: dict, recorder=None) -> None:
    """Evaluate every entry once, timing each and checking its answer."""
    clock = perf_counter
    pass_start = clock()
    closures = {}
    for entry in suite.rotation:
        if recorder is not None:
            recorder.request = f"0:{window['ops'] + 1}"
        start = clock()
        result = entry.evaluate()
        end = clock()
        window["ops"] += 1
        window["op_seconds"][Suite.key(entry)].append(end - start)
        if entry.layer == "calculus":
            statistics = result.statistics
            for counter in CALCULUS_COUNTERS:
                window["calculus"][counter] += getattr(statistics, counter)
        answer = entry.normalize(result)
        if answer != entry.expected:
            shown = sorted(answer) if isinstance(answer, frozenset) else answer
            window["failures"].append(f"{Suite.key(entry)}: got {shown}")
        if entry.layer in ("fixpoint", "datalog"):
            closures[entry.layer] = answer
    if closures.get("fixpoint") != closures.get("datalog"):
        window["failures"].append("fixpoint and Datalog closures disagree")
    window["pass_seconds"].append(clock() - pass_start)


def new_window(suite: Suite) -> dict:
    return {
        "ops": 0,
        "op_seconds": {Suite.key(entry): [] for entry in suite.entries},
        "pass_seconds": [],
        "calculus": dict.fromkeys(CALCULUS_COUNTERS, 0),
        "failures": [],
    }


def run_window(suite: Suite, seconds: float, recorder=None) -> dict:
    """Whole passes until *seconds* have elapsed; the window's counts, times
    and the ``runtime_stats()`` counters diffed across it.  The reference
    kernel is timed before the first pass and after every pass, outside the
    pass times (``kernel_seconds``)."""
    window = new_window(suite)
    before = runtime_stats()
    start = perf_counter()
    deadline = start + seconds
    kernels = [min(reference_kernel(), reference_kernel())]
    while perf_counter() < deadline:
        run_pass(suite, window, recorder)
        kernels.append(min(reference_kernel(), reference_kernel()))
    window["kernel_seconds"] = kernels
    window["start"] = start
    window["end"] = perf_counter()
    after = runtime_stats()
    window["counters"] = {
        family: {name: value - before[family].get(name, 0) for name, value in counters.items()}
        for family, counters in after.items()
    }
    return window
