"""Vectorized (column-at-a-time) evaluation of selection conditions.

The scan path's last per-element hot loop was the selection predicate:
``Selection`` in the legacy interpreter, the engine's ``Filter`` node and
the residual check after a ``HashJoin`` probe all called
:func:`repro.algebra.evaluation.condition_holds` once per tuple — a
recursive tree-walk that re-resolves operands, re-constructs constant
atoms and re-compares values for every row.  With dictionary-encoded id
columns in place (PR 3, :mod:`repro.objects.columnar`), flat conditions
can instead run **column-at-a-time**:

1. **classify** — :func:`compile_condition` walks the
   :class:`~repro.algebra.expressions.SelectionCondition` tree once and
   either compiles it into a mask program or returns ``None``, in which
   case callers keep the per-tuple path.  Every ``eq``/``in`` atom over
   coordinate operands (and ``eq`` against constants) compiles; an ``in``
   atom whose container is not a coordinate does not — its per-row error
   semantics (the container is never a set) stay with the scalar path;
2. **encode** — each referenced coordinate becomes a row-aligned
   ``array("I")`` id column over
   :data:`~repro.objects.columnar.VALUE_DICTIONARY` (equal values share
   an id, so id comparisons are value comparisons).  ``Instance`` and
   ``Relation`` cache these per-coordinate columns, so steady-state scans
   skip the encode entirely;
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

The ablation switch :func:`set_vectorized_filters` /
:func:`vectorized_filters` mirrors ``set_columnar``: disabling it restores
the historical per-tuple path everywhere, and
``tests/test_vectorized_filter.py`` pins identical answers across the
full (vectorized × columnar) mode cube.  Batches below
:func:`~repro.objects.columnar.columnar_threshold` rows also keep the
per-tuple path — below it, the constant factors of building columns win.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from itertools import compress

from repro.errors import EvaluationError, TypingError
from repro.algebra.expressions import ConstantOperand, SelectionCondition
from repro.objects.columnar import (
    ID_TYPECODE,
    VALUE_DICTIONARY,
    columnar_threshold,
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
    """The process-wide vectorized-filter switch and engagement counters."""

    __slots__ = ("enabled", "stats")

    def __init__(self) -> None:
        self.enabled = True
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
    """Whether selection consumers may dispatch to the mask kernels."""
    return _VECTORIZED.enabled


def set_vectorized_filters(enabled: bool) -> bool:
    """Enable/disable vectorized selection; returns the previous setting.

    Disabling restores the historical per-tuple ``condition_holds`` loop
    in the legacy interpreter, the engine's ``Filter`` operator, the
    hash-join residual check, the nested algebra and the flat relational
    layer; answers are identical in both modes.
    """
    previous = _VECTORIZED.enabled
    _VECTORIZED.enabled = bool(enabled)
    return previous


@contextmanager
def vectorized_filters(enabled: bool = True):
    """Context-manager form of :func:`set_vectorized_filters`."""
    previous = set_vectorized_filters(enabled)
    try:
        yield
    finally:
        set_vectorized_filters(previous)


def vectorized_stats() -> dict[str, int]:
    """A snapshot of the engagement counters (tests assert deltas)."""
    return dict(_VECTORIZED.stats)


def vectorized_dispatch(row_count: int) -> bool:
    """The dispatch policy every consumer applies before taking the
    vectorized path: the switch is on and the batch clears the (shared)
    columnar size threshold."""
    return _VECTORIZED.enabled and row_count >= columnar_threshold()


class CompiledCondition:
    """A selection condition compiled to a column-at-a-time mask program.

    ``coordinates`` lists the (1-based) tuple coordinates the condition
    reads; callers supply one row-aligned id column per coordinate (built
    with :meth:`encode_columns`, or served from a container's cache) and
    get back the row-survival mask / the surviving rows.
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

    def encode_columns(self, rows) -> dict[int, array]:
        """Row-aligned id columns for *rows* (a sequence of tuple values),
        one per referenced coordinate."""
        encode = VALUE_DICTIONARY.encode
        return {
            coordinate: array(
                ID_TYPECODE, [encode(row.coordinate(coordinate)) for row in rows]
            )
            for coordinate in self.coordinates
        }

    def filter_values(self, rows) -> list:
        """The rows of *rows* (tuple values) satisfying the condition."""
        rows = rows if isinstance(rows, list) else list(rows)
        mask = self.mask(self.encode_columns(rows), len(rows))
        return list(compress(rows, mask))

    def filter_component_rows(self, rows: list[tuple]) -> list[tuple]:
        """The rows of *rows* (flattened component tuples, 0-indexed by
        ``coordinate - 1``) satisfying the condition — the hash-join
        residual shape, filtered *before* any output tuple is built."""
        encode = VALUE_DICTIONARY.encode
        columns = {
            coordinate: array(
                ID_TYPECODE, [encode(row[coordinate - 1]) for row in rows]
            )
            for coordinate in self.coordinates
        }
        mask = self.mask(columns, len(rows))
        return list(compress(rows, mask))


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


def vectorized_filter(condition, rows, tuple_type) -> list | None:
    """The one dispatch sequence every set-at-a-time consumer applies:
    threshold check, classify/compile against the operand type, then
    batch-filter.  Returns the surviving rows, or ``None`` when the
    per-tuple path should run instead (switch off, batch too small, or
    the condition does not compile)."""
    if not vectorized_dispatch(len(rows)):
        return None
    compiled = compile_condition(condition, tuple_type)
    if compiled is None:
        return None
    return compiled.filter_values(list(rows))


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
        # memo-keyed by a single packed integer (ids fit 32 bits) so the
        # replay loop costs one shift, one dict probe per row.
        decode = VALUE_DICTIONARY.decode
        memo: dict[int, int] = {}
        lookup = memo.get

        def probe(element_id: int, set_id: int) -> int:
            key = (element_id << 32) | set_id
            hit = lookup(key, -1)
            if hit < 0:
                hit = _membership(decode(element_id), set_id)
                memo[key] = hit
            return hit

        mask = bytearray(map(probe, columns[element], columns[container]))
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
