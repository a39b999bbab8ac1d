"""Generated Python source: the writer, the constant scheme and the compile
cache shared by the engine's fused fragments (:mod:`repro.engine.codegen`)
and the calculus and second-order evaluators.

Each generator writes source that depends only on the structure it
compiles.  The values it runs on reach the generated code one way in all
three: as the constants ``_k``, one per ``(make, argument)`` pair the
generator described (:meth:`Emitter.made_by`, :meth:`Emitter.once`), which
the caller makes for each run from that run's context; the helpers the
code calls are the *runtime* globals of :func:`compiled`.  So
:func:`compiled` compiles a text once per process.  Its one cache is keyed
by the generator and the text, bounded in entries and source size, and
written under one lock, which also guards the generators' own memos
(:func:`remember`).  :class:`Emitter` writes the generated functions.
CPython refuses a function that nests more than 20 loops and ``try``
blocks, or 100 indentation levels, so a generator spills deep code into a
function of its own once :meth:`Emitter.deep` says so.

The evaluators count satisfaction calls in a ``_calls`` cell.  The emitter
batches the increments written back to back into one statement, and
:meth:`Emitter.take_calls` takes a loop body's leading increment back out of
the loop, for the generator to count at the loop's exits
(:meth:`Emitter.calls`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Mapping, Sequence
from hashlib import sha256
from typing import NamedTuple

#: Indentation levels a generated function may reach before code is
#: spilled into a function of its own.
MAX_INDENT = 24

#: Loops and ``try`` blocks a generated function may nest before code is
#: spilled into a function of its own.
MAX_BLOCKS = 16

#: Compiled functions keyed by ``(generator, source text)``.  Ad hoc
#: queries and formulas keep adding structures, so the cache is cleared
#: wholesale when it would pass ``_MAX_ENTRIES`` entries or
#: ``_MAX_SOURCE_CHARS`` characters of source; a larger source is compiled
#: but not kept.  The caps sit above the largest working set measured:
#: 1,000 ``serve_adhoc`` queries level off at 216 fused fragments and
#: 518 KB of source.
_COMPILED: dict[tuple[str, str], Callable] = {}
_MAX_ENTRIES = 1024
_MAX_SOURCE_CHARS = 4 << 20

#: Guards every write to ``_COMPILED`` and to the memos passed to
#: :func:`remember`; the serving layer compiles from several threads.
#: Reads are lock-free: entries never change once stored and dict reads
#: are atomic under the GIL, so the worst race is a duplicate compile
#: whose last write wins.
_LOCK = threading.Lock()


def compiled(
    generator: str, source: str, entry: str, runtime: Mapping[str, object] | None = None
) -> tuple[Callable, bool]:
    """The function *entry* that *source* defines, and whether this call
    compiled it rather than finding it cached.

    *runtime* holds the globals of the generated code; *generator* names
    the code generator and anything besides the text that the compiled
    function depends on.
    """
    key = (generator, source)
    function = _COMPILED.get(key)
    if function is not None:
        return function, False
    namespace = dict(runtime or {})
    name = f"<{generator} {sha256(source.encode()).hexdigest()[:10]}>"
    exec(compile(source, name, "exec"), namespace)
    function = namespace[entry]
    if keeps(source):
        with _LOCK:
            if len(_COMPILED) >= _MAX_ENTRIES or (
                sum(len(text) for _, text in _COMPILED) + len(source) > _MAX_SOURCE_CHARS
            ):
                _COMPILED.clear()
            _COMPILED[key] = function
    return function, True


def keeps(source: str) -> bool:
    """Whether :func:`compiled` keeps the function it compiles from
    *source*, so that what holds on to that function costs nothing more."""
    return len(source) <= _MAX_SOURCE_CHARS


def remember(memo: dict, key: Hashable, value: object, limit: int) -> None:
    """Store *value* under *key* in *memo*, clearing *memo* first when it
    holds *limit* entries."""
    with _LOCK:
        if len(memo) >= limit:
            memo.clear()
        memo[key] = value


class Plan(NamedTuple):
    """What an evaluator keeps of a formula it evaluated, under a key of
    the ids of *formula* and *schema* and of what else shapes the source:
    the compiled *factory*, one ``(make, argument)`` pair per constant the
    factory takes (:meth:`Emitter.made_by`), and the *atoms* the formula's
    constants stand for.  Nothing of a database or atom set."""

    #: Pinned, like *schema*, so that no other object takes its id.
    formula: object
    schema: object
    factory: Callable
    constants: tuple[tuple[Callable, object], ...]
    atoms: frozenset[object]


def _fixed(argument: object, *context: object) -> object:
    """Makes the constant :meth:`Emitter.constant` was given: *argument*
    in every run."""
    return argument


class Function:
    """One generated function while its body is written.  As a context
    manager it closes the block that :meth:`Emitter.block` opened."""

    __slots__ = ("signature", "lines", "indent", "blocks", "loops", "pending")

    def __init__(self, signature: str, indent: int, blocks: int = 0) -> None:
        self.signature = signature
        self.lines: list[str] = []
        self.indent = indent
        #: Loops and ``try`` blocks open where the next line goes.
        self.blocks = blocks
        #: Whether each open :meth:`Emitter.block` is a loop.
        self.loops: list[bool] = []
        #: Increments of ``_calls`` not yet written.  They are written just
        #: before the next line, so increments made back to back cost one
        #: statement, made before anything can raise.
        self.pending = 0

    def __enter__(self) -> Function:
        return self

    def __exit__(self, *exception) -> None:
        self.indent -= 1
        self.blocks -= self.loops.pop()


class Emitter:
    """Writes generated functions line by line.

    ``out`` is the function being written — by default the main function
    of a :meth:`factory`, whose body sits in a ``try`` at indent 3.
    :meth:`begin` starts another one and :meth:`end` files it in
    ``functions`` and resumes the previous one.  ``constants`` describe the
    values the generated code receives as ``_k0, _k1, ...``: one
    ``(make, argument)`` pair each, and the generator makes each value for
    a run of the generated code as ``make(argument, ...)`` with that run's
    context (:meth:`made_by`, :meth:`once`).  The generated function
    unpacks them with the line :meth:`unpack` writes.
    """

    def __init__(self, signature: str, indent: int = 3, blocks: int = 1) -> None:
        self.out = Function(signature, indent, blocks)
        self.functions: list[Function] = []
        self.constants: list[tuple[Callable, object]] = []
        #: The name of each constant :meth:`once` described.
        self.shared: dict[tuple[Callable, object], str] = {}
        self.names = 0

    def fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names - 1}"

    def constant(self, value: object) -> str:
        """The name of a constant that is *value* in every run."""
        return self.made_by(_fixed, value)

    def made_by(self, make: Callable, argument: object) -> str:
        """The name of a constant that ``make(argument, ...)`` makes for
        each run, from the run's context."""
        self.constants.append((make, argument))
        return f"_k{len(self.constants) - 1}"

    def once(self, make: Callable, argument: object) -> str:
        """The constant *make* makes from *argument*, described the first
        time only."""
        name = self.shared.get((make, argument))
        if name is None:
            name = self.shared[make, argument] = self.made_by(make, argument)
        return name

    def unpack(self) -> list[str]:
        """The line, unindented, that unpacks the constants ``_k`` into
        ``_k0, _k1, ...``; none when there are no constants."""
        if not self.constants:
            return []
        return ["".join(f"_k{n}, " for n in range(len(self.constants))) + "= _k"]

    def line(self, text: str) -> None:
        out = self.out
        indent = "    " * out.indent
        if out.pending:
            out.lines.append(f"{indent}_calls += {out.pending}")
            out.pending = 0
        out.lines.append(indent + text)

    def take_calls(self, first: int) -> int:
        """Remove line *first* of the function being written when it is a
        ``_calls`` increment, and return the increment (else 0).  It is the
        leading increment of a loop body that starts there, which the
        caller counts at the loop's exits instead, once per iteration run
        (:meth:`calls`); that is exact only when nothing in the body can
        raise."""
        lines = self.out.lines
        increment = lines[first].lstrip()
        if not increment.startswith("_calls += "):
            return 0
        del lines[first]
        return int(increment[len("_calls += "):])

    def calls(self, per: int, iterations: str) -> None:
        """Write the ``_calls`` increment of *iterations* (a name) runs of a
        loop body whose leading increment of *per* calls was taken out
        (:meth:`take_calls`)."""
        if per:
            self.line(f"_calls += {iterations if per == 1 else f'{per} * {iterations}'}")

    def insert(self, index: int, lines: Sequence[str]) -> None:
        """Write *lines* before the line *index* of the function being
        written, indented as that line: code that depends on what was
        written after it."""
        text = self.out.lines
        indent = text[index][: len(text[index]) - len(text[index].lstrip())]
        text[index:index] = [indent + line for line in lines]

    def block(self, header: str, loop: bool = False) -> Function:
        """Write *header*; what the ``with`` body writes goes one level
        deeper.  *loop* marks a loop, which CPython counts as a block."""
        self.line(header)
        out = self.out
        out.indent += 1
        out.blocks += loop
        out.loops.append(loop)
        return out

    def deep(self) -> bool:
        """Whether code written now should go to a function of its own."""
        return self.out.indent > MAX_INDENT or self.out.blocks >= MAX_BLOCKS

    def begin(self, prefix: str, parameters: Sequence[str]) -> tuple[str, Function]:
        """Start writing a new function nested in the factory; returns its
        name and the function to resume when :meth:`end` finishes it."""
        name = self.fresh(prefix)
        previous, self.out = self.out, Function(f"{name}({', '.join(parameters)})", 2)
        return name, previous

    def end(self, previous: Function) -> None:
        self.functions.append(self.out)
        self.out = previous

    def factory(
        self,
        parameters: str,
        prologue: Sequence[str],
        counters: Sequence[tuple[str, str]],
        cells: Sequence[tuple[str, str, str]] = (),
    ) -> str:
        """The source of ``_factory(<parameters>, _k)``, which unpacks the
        constants ``_k``, runs *prologue*, defines ``functions`` and the
        main function ``out``, and returns the main function.

        The generated functions share closure cells: *counters* pairs a
        cell with the attribute of ``_stats`` it mirrors, and *cells* gives
        any other cell as ``(cell, load expression, store statement)``.
        The main function loads every cell when it starts and stores it
        back in a ``finally``, so the statistics are exact even when the
        evaluation raises.
        """
        cells = [
            *((cell, f"_stats.{name}", f"_stats.{name} = {cell}") for cell, name in counters),
            *cells,
        ]
        declare = "        nonlocal " + ", ".join(cell for cell, _, _ in cells)
        lines = [f"def _factory({parameters}, _k):"]
        lines += ["    " + line for line in (*self.unpack(), *prologue)]
        lines.append("    " + " = ".join(cell for cell, _, _ in cells) + " = None")
        for function in self.functions:
            lines += [f"    def {function.signature}:", declare, *function.lines]
        main = self.out
        lines += [f"    def {main.signature}:", declare]
        lines += [f"        {cell} = {load}" for cell, load, _ in cells]
        lines += ["        try:", *main.lines, "        finally:"]
        lines += [f"            {store}" for _, _, store in cells]
        lines.append(f"    return {main.signature.partition('(')[0]}")
        return "\n".join(lines) + "\n"
