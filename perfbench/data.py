"""Deterministic inputs for the served workloads.

Every function here is a pure function of the run's seed, so the client
process and the program process build the same data independently: the
program process receives only the generated inputs (rows, view and query
definitions), and the client keeps its own copy to check the answers.
Row order is fixed by the seed alone, never by set iteration order, so a
run does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import reduce

from repro.algebra.expressions import (
    ConstantOperand,
    PredicateExpression,
    Product,
    Projection,
    Selection,
    SelectionCondition,
)
from repro.objects.instance import DatabaseInstance
from repro.types.parser import parse_type
from repro.types.schema import DatabaseSchema
from repro.workloads import random_update_stream

#: Rows of the fact table in both served workloads.
FACT_ROWS = 10_000

_PAIR = parse_type("[U, U]")
_TRIPLE = parse_type("[U, U, U]")


def _all(*conditions: SelectionCondition) -> SelectionCondition:
    return reduce(SelectionCondition.conjunction, conditions)


def _eq_const(coordinate: int, value: str) -> SelectionCondition:
    return SelectionCondition.eq(coordinate, ConstantOperand(value))


def _distinct_sample(rng: random.Random, columns: list[list[str]], count: int) -> list[tuple]:
    """*count* distinct rows drawn column by column, in draw order."""
    seen: set[tuple] = set()
    rows: list[tuple] = []
    while len(rows) < count:
        row = tuple(rng.choice(column) for column in columns)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


# -- serve_rw -------------------------------------------------------------------

#: The fact table ``F`` draws every column from these 30 atoms, so its
#: 27,000-row space is dense enough (37%) for inserts and deletes to stay
#: effective, and small enough for ``random_update_stream`` to enumerate.
RW_ATOMS = tuple(f"x{i:02d}" for i in range(30))

RW_SCHEMA = DatabaseSchema([("F", _TRIPLE), ("DG", _PAIR)])

#: The writer only touches ``F``.
RW_WRITE_SCHEMA = DatabaseSchema([("F", _TRIPLE)])

_F = PredicateExpression("F")

#: The three maintained views: a selection (about 11 rows), a projection
#: (30 rows) and a selective join with ``DG`` (about 67 rows).
RW_VIEWS = {
    "sel": Selection(_F, _all(_eq_const(1, "x07"), _eq_const(2, "x03"))),
    "proj": Projection(_F, (1,)),
    "join": Selection(
        Product(_F, PredicateExpression("DG")),
        _all(SelectionCondition.eq(3, 4), _eq_const(5, "g1"), _eq_const(1, "x05")),
    ),
}

#: The reader's request mix, drawn with these weights: the epoch plus
#: small view and table reads.  Four cacheable names, so that most reads
#: between two commits hit the epoch-keyed response cache.
RW_READS = {
    b"EPOCH\n": 1,
    b"VIEW sel\n": 2,
    b"VIEW join\n": 2,
    b"VIEW proj\n": 1,
    b"GET DG\n": 1,
}

#: Rows changed per generated batch; each batch becomes one INSERT and/or
#: one DELETE request.
RW_BATCH_SIZE = 4


def rw_rows(seed: int) -> dict[str, list[tuple]]:
    """The serve_rw tables: a 10,000-row fact table and a 30-row dimension."""
    rng = random.Random(f"serve_rw:{seed}")
    fact = rng.sample(list(itertools.product(RW_ATOMS, repeat=3)), FACT_ROWS)
    groups = [(atom, f"g{index % 5}") for index, atom in enumerate(RW_ATOMS)]
    return {"F": fact, "DG": groups}


class Write:
    """One write request: its wire line and the rows it changes."""

    __slots__ = ("verb", "rows", "line")

    def __init__(self, verb: str, rows: list[tuple]) -> None:
        self.verb = verb
        self.rows = rows
        self.line = f"{verb} F {json.dumps(rows)}\n".encode()


def rw_writes(seed: int, fact: list[tuple], count: int) -> list[Write]:
    """*count* effective writes against *fact*, from ``random_update_stream``.

    Each generated batch splits into an INSERT of its new rows and a DELETE
    of its removed rows; a batch never touches one row twice, so both
    requests stay effective when applied in order.
    """
    initial = DatabaseInstance(RW_WRITE_SCHEMA, {"F": fact})
    stream = random_update_stream(
        RW_WRITE_SCHEMA,
        RW_ATOMS,
        batches=count,
        batch_size=RW_BATCH_SIZE,
        seed=seed,
        initial=initial,
        insert_bias=0.5,
        enumeration_budget=len(RW_ATOMS) ** 3,
    )
    writes: list[Write] = []
    for batch in stream:
        inserts, deletes = batch.get("F", ((), ()))
        for verb, values in (("INSERT", inserts), ("DELETE", deletes)):
            if values:
                rows = [tuple(atom.value for atom in value.components) for value in values]
                writes.append(Write(verb, rows))
    return writes[:count]


def rw_read_lines(seed: int, count: int) -> list[bytes]:
    rng = random.Random(f"serve_rw-reads:{seed}")
    return rng.choices(list(RW_READS), weights=list(RW_READS.values()), k=count)


# -- serve_adhoc ----------------------------------------------------------------

ADHOC_SCHEMA = DatabaseSchema([("F", _TRIPLE), ("D1", _PAIR), ("D2", _PAIR)])

#: Distinct values of the dimension attributes ``D1.2`` and ``D2.2``.
ADHOC_LABELS = 10

#: Projections of the 7-column star product ``F × D1 × D2``: every ordered
#: choice of 2 or 3 columns that keeps a fact column (216 of them).  With
#: the label pairs they give 21,600 parameterizations, enough for a server
#: several times faster than today's to run 30 s without repeating one.
ADHOC_PROJECTIONS = tuple(
    columns
    for size in (2, 3)
    for columns in itertools.permutations(range(1, 8), size)
    if min(columns) <= 3
)

_STAR = Product(
    Product(PredicateExpression("F"), PredicateExpression("D1")),
    PredicateExpression("D2"),
)


def adhoc_rows(seed: int) -> dict[str, list[tuple]]:
    """The star schema: a 10,000-row fact table ``F(a, b, m)`` and two
    100-row dimensions whose second column takes 10 labels."""
    rng = random.Random(f"serve_adhoc:{seed}")
    keys1 = [f"a{index:02d}" for index in range(100)]
    keys2 = [f"b{index:02d}" for index in range(100)]
    measures = [f"m{index:03d}" for index in range(500)]
    fact = _distinct_sample(rng, [keys1, keys2, measures], FACT_ROWS)
    labels1 = [f"c{index % ADHOC_LABELS}" for index in range(100)]
    labels2 = [f"d{index % ADHOC_LABELS}" for index in range(100)]
    rng.shuffle(labels1)
    rng.shuffle(labels2)
    return {"F": fact, "D1": list(zip(keys1, labels1)), "D2": list(zip(keys2, labels2))}


def adhoc_names() -> list[str]:
    """Every parameterization of the star-join family."""
    return list(adhoc_queries())


def _star_selection(c: str, d: str) -> Selection:
    condition = _all(
        SelectionCondition.eq(1, 4),
        SelectionCondition.eq(2, 6),
        _eq_const(5, c),
        _eq_const(7, d),
    )
    return Selection(_STAR, condition)


def adhoc_queries() -> dict:
    """Every parameterization by name: both dimension labels fixed, then one
    projection.  Names sharing a label pair share the selection below their
    projection; every name still has its own expression object, so its own
    plan-cache key."""
    queries = {}
    for c in range(ADHOC_LABELS):
        for d in range(ADHOC_LABELS):
            selection = _star_selection(f"c{c}", f"d{d}")
            for p, columns in enumerate(ADHOC_PROJECTIONS):
                queries[f"star_c{c}_d{d}_p{p:03d}"] = Projection(selection, columns)
    return queries


def adhoc_expression(name: str) -> Projection:
    """A fresh expression for one parameterization (the client's check)."""
    _star, c, d, p = name.split("_")
    return Projection(_star_selection(c, d), ADHOC_PROJECTIONS[int(p[1:])])


def adhoc_answer(rows: dict[str, list[tuple]], name: str) -> set[tuple]:
    """One parameterization's answer computed in plain Python, without the
    engine: the rows of ``F × D1 × D2`` that join and carry both labels,
    projected."""
    _star, c, d, p = name.split("_")
    labels1, labels2 = dict(rows["D1"]), dict(rows["D2"])
    columns = ADHOC_PROJECTIONS[int(p[1:])]
    answer = set()
    for a, b, m in rows["F"]:
        if labels1[a] == c and labels2[b] == d:
            joined = (a, b, m, a, c, b, d)
            answer.add(tuple(joined[column - 1] for column in columns))
    return answer


def adhoc_order(seed: int) -> list[str]:
    """The order in which the client requests the parameterizations."""
    names = adhoc_names()
    random.Random(f"serve_adhoc-order:{seed}").shuffle(names)
    return names
