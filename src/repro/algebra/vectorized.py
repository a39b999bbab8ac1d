"""Vectorized (column-at-a-time) evaluation of selection conditions.

A selection over a **stored** container — a predicate's
:class:`~repro.objects.instance.Instance` or a flat
:class:`~repro.relational.relation.Relation` — need not call
:func:`repro.algebra.evaluation.condition_holds` once per tuple (a
recursive tree-walk that re-resolves operands, re-constructs constant
atoms and re-compares values for every row).  Both containers cache
row-aligned per-coordinate id columns over
:data:`~repro.objects.columnar.VALUE_DICTIONARY`, so a flat condition can
run **column-at-a-time** over them:

1. **classify** — :func:`compile_condition` walks the
   :class:`~repro.algebra.expressions.SelectionCondition` tree once and
   either compiles it into a mask program or returns ``None``, in which
   case callers keep the per-tuple path.  Every ``eq``/``in`` atom over
   coordinate operands (and ``eq`` against constants) compiles; an ``in``
   atom whose container is not a coordinate does not — its per-row error
   semantics (the container is never a set) stay with the scalar path;
2. **columns** — each referenced coordinate is the container's cached
   ``array("I")`` id column (equal values share an id, so id comparisons
   are value comparisons), encoded once per stored object, never per
   query;
3. **mask** — each atom materializes one boolean mask (``bytearray``,
   one 0/1 byte per row): coordinate equality compares two columns
   element-wise, constant equality scans for a single target id with
   C-speed ``array.index``, and membership evaluates **once per distinct
   id (pair)** — the memoized answer is replayed for every row sharing
   the ids, so a deep set-membership test runs once, not once per row;
4. **combine** — ``or``/``not`` merge masks with single bulk integer
   bitwise operations (:func:`~repro.objects.columnar.mask_or` and
   friends), not per-row boolean logic; a conjunction goes further and
   **short-circuits set-at-a-time**: its conjuncts are ordered by the
   optimizer's selectivity estimate and every conjunct after the first is
   evaluated only over the rows surviving so far (see
   :func:`_compile_ordered_conjunction`);
5. **decode** — only the surviving rows are selected
   (``itertools.compress``); nothing else is materialized or decoded.

The consumers are the engine's ``Filter`` directly over a ``Scan`` (in the
interpreting executor and in fused codegen fragments) and
:func:`repro.relational.algebra.select_where`.  Rows no stored container
holds — a filter over any other operator, a hash-join residual, the legacy
interpreter's and the nested algebra's selections, view deltas — are
checked per tuple, so :data:`~repro.objects.columnar.VALUE_DICTIONARY`
never labels a transient row.

Those consumers mask only a container that clears
:func:`~repro.objects.columnar.columnar_dispatch`, the size threshold
that also selects columnar set storage; smaller containers keep the
per-tuple path, whose constant factors win there.  There is no switch
beyond the threshold: ``tests/test_vectorized_filter.py`` pins identical
answers with it at 1 (masks on every stored container) and at
``sys.maxsize`` (masks off).
"""

from __future__ import annotations

from array import array
from itertools import compress

from repro.errors import EvaluationError, TypingError
from repro.algebra.expressions import ConstantOperand, SelectionCondition
from repro.objects.columnar import (
    ID_TYPECODE,
    VALUE_DICTIONARY,
    mask_and,
    mask_eq_columns,
    mask_eq_target,
    mask_fill,
    mask_not,
    mask_or,
)
from repro.objects.values import Atom, SetValue
from repro.types.type_system import TupleType


class _VectorizedState:
    """The process-wide vectorized-filter engagement counters."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = {
            "conditions_compiled": 0,
            "conditions_rejected": 0,
            "batches": 0,
            "rows_in": 0,
            "rows_out": 0,
            "membership_evaluations": 0,
            "conjunctions_ordered": 0,
            "conjunct_rows_skipped": 0,
        }


_VECTORIZED = _VectorizedState()


def vectorized_enabled() -> bool:
    """Always ``True``: vectorized filters have no switch; the columnar size
    threshold selects them.  Kept only because ``perfbench/program.py``
    still imports it to check its configuration."""
    return True


def vectorized_stats() -> dict[str, int]:
    """A snapshot of the engagement counters (tests assert deltas)."""
    return dict(_VECTORIZED.stats)


class CompiledCondition:
    """A selection condition compiled to a column-at-a-time mask program.

    ``coordinates`` lists the (1-based) tuple coordinates the condition
    reads; callers supply one row-aligned id column per coordinate (a
    stored container's cached column) and get back the row-survival mask.
    """

    __slots__ = ("condition", "coordinates", "_program")

    def __init__(self, condition: SelectionCondition, coordinates: tuple[int, ...], program):
        self.condition = condition
        self.coordinates = coordinates
        self._program = program

    def mask(self, columns: dict[int, array], count: int) -> bytearray:
        """Evaluate the program over per-coordinate *columns* of *count* rows."""
        stats = _VECTORIZED.stats
        stats["batches"] += 1
        stats["rows_in"] += count
        result = self._program(columns, count)
        stats["rows_out"] += sum(result)
        return result


def compile_condition(
    condition: SelectionCondition, tuple_type: TupleType | None = None
) -> CompiledCondition | None:
    """Compile *condition* into a :class:`CompiledCondition`, or ``None``.

    The classifier accepts exactly the flat condition trees the mask
    kernels evaluate faithfully: ``eq`` atoms over coordinate/constant
    operands, ``in`` atoms whose container side is a coordinate, and
    ``not``/``and``/``or`` over compilable operands.  Everything else
    (unknown kinds, malformed operands, ``in`` against a constant
    container whose per-row type error belongs to the scalar path) makes
    the whole condition fall back to the per-tuple interpreter — a
    partial hybrid would re-introduce the per-row loop it exists to
    remove.

    When *tuple_type* is given, the condition is additionally required to
    :meth:`~SelectionCondition.validate` against it, falling back on
    failure.  This is the total-ness certificate: over type-conforming
    rows a validated condition's atoms can never raise, so evaluating
    every atom's mask eagerly is observationally identical to the scalar
    path's short-circuiting ``and``/``or`` — production callers always
    pass the operand type.
    """
    stats = _VECTORIZED.stats
    if tuple_type is not None:
        if not isinstance(tuple_type, TupleType):
            stats["conditions_rejected"] += 1
            return None
        try:
            condition.validate(tuple_type)
        except TypingError:
            stats["conditions_rejected"] += 1
            return None
    coordinates: set[int] = set()
    program = _compile(condition, coordinates)
    if program is None:
        stats["conditions_rejected"] += 1
        return None
    stats["conditions_compiled"] += 1
    return CompiledCondition(condition, tuple(sorted(coordinates)), program)


def _compile(condition: SelectionCondition, coordinates: set[int]):
    """Recursively compile to a ``(columns, count) -> bytearray`` program."""
    if not isinstance(condition, SelectionCondition):
        return None
    kind = condition.kind
    if kind == "eq":
        return _compile_equality(condition, coordinates)
    if kind == "in":
        return _compile_membership(condition, coordinates)
    if kind == "not":
        inner = _compile(condition.operands[0], coordinates)
        if inner is None:
            return None
        return lambda columns, count: mask_not(inner(columns, count))
    if kind == "and":
        return _compile_ordered_conjunction(condition, coordinates)
    if kind == "or":
        left = _compile(condition.operands[0], coordinates)
        right = _compile(condition.operands[1], coordinates)
        if left is None or right is None:
            return None
        return lambda columns, count: mask_or(
            left(columns, count), right(columns, count)
        )
    return None


def _and_chain(condition: SelectionCondition) -> list[SelectionCondition]:
    """The flattened conjunct list of a (possibly nested) ``and`` tree."""
    if condition.kind != "and":
        return [condition]
    return _and_chain(condition.operands[0]) + _and_chain(condition.operands[1])


def _conjunct_cost_rank(condition: SelectionCondition) -> int:
    """Tie-break ordering for conjuncts with equal selectivity estimates:
    plain equality masks are pure C scans (cheapest), boolean subtrees sit
    in the middle, and membership atoms run Python-level containment
    probes per distinct id (most expensive, go last)."""
    if condition.kind == "eq":
        return 0
    if condition.kind == "in":
        return 2
    return 1


def _mask_positions(mask: bytearray) -> list[int]:
    """The row positions a 0/1 mask keeps (C-speed ``compress`` scan)."""
    return list(compress(range(len(mask)), mask))


def _compile_ordered_conjunction(condition: SelectionCondition, coordinates: set[int]):
    """Compile an ``and`` tree to a selectivity-ordered short-circuit program.

    The eager path evaluated every conjunct's mask over the *full* batch
    and combined them afterwards — column-at-a-time, but with no analogue
    of the scalar path's short-circuiting ``and``.  This program restores
    it set-at-a-time: conjuncts are ordered by the optimizer's
    :func:`~repro.algebra.optimizer._condition_selectivity` estimate (most
    selective first, cheapest kind on ties), the first conjunct masks the
    full batch, and every later conjunct is evaluated **only over the
    surviving rows' columns** — the columns are compressed to the
    survivors with C-speed ``itertools.compress`` and the sub-mask is
    scattered back through the surviving positions.  Evaluating a
    validated conjunct over a subset of rows is sound for the same reason
    the eager path was: over type-conforming rows no atom can raise, so
    dropping rows other conjuncts rejected cannot change the outcome.
    """
    from repro.algebra.optimizer import DEFAULT_SELECTIVITY, _condition_selectivity

    conjuncts = _and_chain(condition)
    compiled: list[tuple] = []
    for conjunct in conjuncts:
        referenced: set[int] = set()
        program = _compile(conjunct, referenced)
        if program is None:
            return None
        compiled.append((conjunct, program, frozenset(referenced)))
        coordinates.update(referenced)
    order = sorted(
        range(len(compiled)),
        key=lambda i: (
            _condition_selectivity(compiled[i][0], DEFAULT_SELECTIVITY),
            _conjunct_cost_rank(compiled[i][0]),
            i,
        ),
    )

    def conjunction_mask(columns, count):
        stats = _VECTORIZED.stats
        stats["conjunctions_ordered"] += 1
        mask: bytearray | None = None
        for index in order:
            _, program, referenced = compiled[index]
            if mask is None:
                mask = program(columns, count)
                continue
            survivors = _mask_positions(mask)
            if not survivors:
                break
            if len(survivors) == count:
                mask = mask_and(mask, program(columns, count))
                continue
            stats["conjunct_rows_skipped"] += count - len(survivors)
            narrowed = {
                coordinate: array(ID_TYPECODE, compress(columns[coordinate], mask))
                for coordinate in referenced
            }
            sub_mask = program(narrowed, len(survivors))
            for position, keep in zip(survivors, sub_mask):
                if not keep:
                    mask[position] = 0
        return mask

    return conjunction_mask


def _compile_equality(condition: SelectionCondition, coordinates: set[int]):
    left, right = condition.operands
    if isinstance(left, int) and isinstance(right, int):
        coordinates.update((left, right))
        return lambda columns, count: mask_eq_columns(columns[left], columns[right])
    if isinstance(left, int) and isinstance(right, ConstantOperand):
        coordinate, constant = left, right
    elif isinstance(left, ConstantOperand) and isinstance(right, int):
        coordinate, constant = right, left
    elif isinstance(left, ConstantOperand) and isinstance(right, ConstantOperand):
        # Row-independent: one comparison decides the whole batch.
        return lambda columns, count: mask_fill(
            count, Atom(left.value) == Atom(right.value)
        )
    else:
        return None
    coordinates.add(coordinate)

    def equality_mask(columns, count):
        # The columns were encoded before this runs, so a constant equal to
        # any coordinate value is guaranteed to have an id by now; a
        # constant the dictionary has never seen matches no row at all.
        target = VALUE_DICTIONARY.id_of(Atom(constant.value))
        if target is None:
            return mask_fill(count, False)
        return mask_eq_target(columns[coordinate], target)

    return equality_mask


def _compile_membership(condition: SelectionCondition, coordinates: set[int]):
    element, container = condition.operands
    if not isinstance(container, int):
        # A constant container fails with a per-row type error on the
        # scalar path; keep those semantics there.
        return None
    coordinates.add(container)
    if isinstance(element, ConstantOperand):
        constant = element.value

        def membership_mask(columns, count):
            # One membership test per *distinct* container id, and a bulk
            # equality-mask scan per containing id: the per-row loop is
            # gone entirely — rows inherit their container's answer.
            column = columns[container]
            element_value = Atom(constant)
            distinct = set(column)
            _VECTORIZED.stats["membership_evaluations"] += len(distinct)
            result = None
            for set_id in distinct:
                if _membership(element_value, set_id):
                    hit = mask_eq_target(column, set_id)
                    result = hit if result is None else mask_or(result, hit)
            return result if result is not None else mask_fill(count, False)

        return membership_mask
    if not isinstance(element, int):
        return None
    coordinates.add(element)

    def membership_mask(columns, count):
        # One membership test per distinct (element id, container id) pair,
        # in the order the rows first hold them, so the first failing row
        # raises the non-set error; the rows replay the answers at C level.
        decode = VALUE_DICTIONARY.decode
        memo = dict.fromkeys(zip(columns[element], columns[container]))
        for pair in memo:
            memo[pair] = _membership(decode(pair[0]), pair[1])
        mask = bytearray(map(memo.__getitem__, zip(columns[element], columns[container])))
        _VECTORIZED.stats["membership_evaluations"] += len(memo)
        return mask

    return membership_mask


def _membership(element, set_id: int) -> int:
    """Whether *element* belongs to the container labelled *set_id* (the
    scalar path's non-set error included, so the two paths stay
    observationally aligned)."""
    container = VALUE_DICTIONARY.decode(set_id)
    if not isinstance(container, SetValue):
        raise EvaluationError(
            f"selection membership evaluated against the non-set value {container}"
        )
    return 1 if element in container else 0
