"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment of EXPERIMENTS.md (X1-X14),
mapping to a figure, example or theorem of the paper.  The absolute numbers
are machine-dependent; what must hold is the *shape* reported in
EXPERIMENTS.md (who wins, growth rates, crossovers).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.calculus.builders import PARENT_SCHEMA, PERSON_SCHEMA
from repro.calculus.evaluation import EvaluationSettings
from repro.objects.instance import DatabaseInstance

#: Directory benchmark reports (``BENCH_<name>.json``) are written to.
REPORT_DIRECTORY = Path(__file__).resolve().parent


def write_bench_report(name: str, payload: dict) -> Path:
    """Write *payload* to ``benchmarks/BENCH_<name>.json`` and return the path.

    The JSON reports give the perf trajectory concrete data points that
    survive between runs (wall-clock numbers are machine-dependent; the
    *ratios* in a report are the part expected to hold everywhere).
    """
    path = REPORT_DIRECTORY / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def chain_database(length: int) -> DatabaseInstance:
    """A parent chain v0 -> v1 -> ... -> v<length> (length edges)."""
    edges = [(f"v{i}", f"v{i+1}") for i in range(length)]
    return DatabaseInstance.build(PARENT_SCHEMA, PAR=edges)


def person_database(size: int) -> DatabaseInstance:
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=[f"p{i}" for i in range(size)])


@pytest.fixture
def unbounded_settings() -> EvaluationSettings:
    return EvaluationSettings(binding_budget=None)


@pytest.fixture(params=["object", "columnar"])
def representation_mode(request) -> str:
    """Parametrize a benchmark over the set-storage representations.

    Yields the mode name with the columnar threshold set accordingly (its
    default for ``columnar``, ``sys.maxsize`` for ``object``), so one
    benchmark body measures both the id-array kernels and the object path
    (see ``bench_columnar.py``).
    """
    from repro.objects.columnar import columnar_settings, columnar_threshold

    columnar = request.param == "columnar"
    with columnar_settings(threshold=columnar_threshold() if columnar else sys.maxsize):
        yield request.param
