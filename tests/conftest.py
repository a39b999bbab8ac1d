"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.calculus.builders import PARENT_SCHEMA, PERSON_SCHEMA
from repro.calculus.evaluation import EvaluationSettings
from repro.engine.codegen import set_codegen
from repro.engine.joinorder import set_join_ordering
from repro.objects.instance import DatabaseInstance
from repro.observability.trace import set_tracing

# CI runs the tier-1 suite once with the fused-codegen ablation switch off
# (REPRO_DISABLE_CODEGEN=1) so the interpreting-oracle path stays green on
# its own; the switch is flipped at collection time, before any test runs.
if os.environ.get("REPRO_DISABLE_CODEGEN"):
    set_codegen(False)

# Same contract for cost-based join ordering: REPRO_DISABLE_JOIN_ORDERING=1 compiles
# every plan in syntactic order with binary joins only (no statistics
# collection, no MultiwayHashJoin), which must be answer-equivalent.
if os.environ.get("REPRO_DISABLE_JOIN_ORDERING"):
    set_join_ordering(False)

# The eighth family runs the other way around: tracing defaults OFF, and
# REPRO_TRACE=1 re-runs the engine + views + serving + observability
# suites fully traced — spans, histograms and query-log records on every
# query and commit must change no answer.  The env var already seeds the
# switch at import; the explicit set keeps the contract if that default
# ever changes.
if os.environ.get("REPRO_TRACE"):
    set_tracing(True)

# A property that fails prints the @reproduce_failure line that replays its
# example.  Everything else is the profile already loaded (Hypothesis's own
# "ci" profile on a CI runner), so example counts, deadlines and
# randomness are unchanged.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture
def parent_db() -> DatabaseInstance:
    """The Example 2.4 style parent relation: tom -> mary -> sue."""
    return DatabaseInstance.build(
        PARENT_SCHEMA, PAR=[("tom", "mary"), ("mary", "sue")]
    )


@pytest.fixture
def chain_db() -> DatabaseInstance:
    """A three-atom chain a -> b -> c (kept small: the calculus evaluator is
    hyper-exponential in the active-domain size)."""
    return DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b"), ("b", "c")])


@pytest.fixture
def person_db_even() -> DatabaseInstance:
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=["p1", "p2", "p3", "p4"])


@pytest.fixture
def person_db_odd() -> DatabaseInstance:
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=["p1", "p2", "p3"])


@pytest.fixture
def decided_sources(monkeypatch):
    """A function that starts recording, for each source the ``_Compiler``
    of an evaluator module writes, whether it has a loop whose body's
    leading atom decides it (``_Compiler.decided``), and returns the
    record: source text -> bool."""

    def record(module) -> dict[str, bool]:
        sources, deciding = {}, set()
        decided, program = module._Compiler.decided, module._Compiler.program

        def writing_decided(compiler, *arguments):
            deciding.add(compiler)
            return decided(compiler, *arguments)

        def writing(compiler, *arguments):
            source = program(compiler, *arguments)
            sources[source] = compiler in deciding
            return source

        monkeypatch.setattr(module._Compiler, "decided", writing_decided)
        monkeypatch.setattr(module._Compiler, "program", writing)
        return sources

    return record


@pytest.fixture
def unbounded_settings() -> EvaluationSettings:
    """Evaluation settings without a binding budget (tests use tiny inputs)."""
    return EvaluationSettings(binding_budget=None)
