"""Deterministic fault injection for the durability stack.

Production code never fails on cue, so the reliability tests drive
failures themselves: every dangerous point in the serving core — a WAL
write, an fsync, a checkpoint rename, each stateful view-maintenance
rule — calls :func:`fault_point` with a **registered site name**, and an
armed :class:`FaultPlan` decides whether that particular hit raises.
Plans are explicit and counted (fire on the *n*-th hit of a site), so a
failing sweep case reproduces exactly; :meth:`FaultPlan.scattered` adds a
seeded variant for property sweeps that want the trigger positions
varied but reproducible.

Three fault kinds model the failure modes that matter:

* ``"error"`` — raise :class:`InjectedFault` (an ``IOError``): the
  component sees an ordinary exception and must leave no half-applied
  state behind (transact aborts cleanly, a maintainer rolls back and is
  quarantined);
* ``"crash"`` — raise :class:`SimulatedCrash`: a process kill.  It
  derives from ``BaseException`` on purpose, so no ``except Exception``
  cleanup handler in the stack can soften it — exactly like a real
  ``kill -9``, whatever is on disk is all recovery gets;
* ``"torn"`` — only meaningful at write sites: persist a *prefix* of the
  bytes, then crash.  This is how the WAL's torn-tail detection and the
  snapshot corruption handling are exercised without reaching under the
  filesystem.

The module also owns the reliability counter family
(:func:`reliability_stats`, the sixth family aggregated by
:func:`repro.objects.stats.runtime_stats`).
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from repro.errors import ReliabilityError


class InjectedFault(IOError):
    """An injected I/O failure (the ``"error"`` fault kind)."""


class SimulatedCrash(BaseException):
    """An injected process kill (the ``"crash"`` and ``"torn"`` kinds).

    Derives from ``BaseException`` so ordinary ``except Exception``
    recovery paths cannot catch it — a crashed process runs no handlers.
    Tests catch it explicitly and then exercise recovery from disk.
    """


#: Fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = ("error", "crash", "torn")

#: The registered fault sites: name -> one-line description.  Components
#: register their sites at import time; a plan naming an unknown site is
#: an error (a typo would otherwise silently never fire).
_SITES: dict[str, str] = {}


def register_fault_site(name: str, description: str) -> str:
    """Register a named fault site (idempotent); returns the name."""
    _SITES[name] = description
    return name


def fault_sites() -> dict[str, str]:
    """Every registered site and its description, sorted by name."""
    return dict(sorted(_SITES.items()))


class FaultSpec:
    """One site's failure instruction: fire *kind* on the *at*-th hit.

    ``keep_bytes`` applies to ``"torn"`` specs at write sites: how many
    bytes of the record make it to disk before the crash (default: half).
    """

    __slots__ = ("kind", "at", "keep_bytes")

    def __init__(self, kind: str = "error", at: int = 1, keep_bytes: int | None = None) -> None:
        if kind not in FAULT_KINDS:
            raise ReliabilityError(f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
        if at < 1:
            raise ReliabilityError(f"fault trigger position must be >= 1, got {at}")
        self.kind = kind
        self.at = at
        self.keep_bytes = keep_bytes

    def __repr__(self) -> str:
        return f"FaultSpec({self.kind!r}, at={self.at})"


class FaultPlan:
    """A deterministic schedule of injected failures, one spec per site.

    The plan counts hits per site; when a site's counter reaches its
    spec's ``at``, the fault fires (once — a fired spec is spent, so
    recovery code re-running the same site does not re-crash).
    """

    def __init__(self, specs: dict[str, FaultSpec] | None = None) -> None:
        self.specs: dict[str, FaultSpec] = {}
        self.hits: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        for site, spec in (specs or {}).items():
            self.add(site, spec)

    def add(self, site: str, spec: FaultSpec) -> "FaultPlan":
        if site not in _SITES:
            raise ReliabilityError(
                f"unknown fault site {site!r}; registered sites: {sorted(_SITES)}"
            )
        self.specs[site] = spec
        return self

    @classmethod
    def single(cls, site: str, kind: str = "error", at: int = 1,
               keep_bytes: int | None = None) -> "FaultPlan":
        """A plan that fires one fault at one site."""
        return cls({site: FaultSpec(kind, at=at, keep_bytes=keep_bytes)})

    @classmethod
    def scattered(cls, sites: list[str], seed: int, kind: str = "crash",
                  max_at: int = 5) -> "FaultPlan":
        """A seeded plan arming every listed site at a random hit count —
        the property sweep's way of varying *where* in a run each site
        fires while staying reproducible."""
        rng = random.Random(seed)
        return cls({site: FaultSpec(kind, at=rng.randint(1, max_at)) for site in sites})

    # -- firing ----------------------------------------------------------------
    def trigger(self, site: str) -> FaultSpec | None:
        """Count a hit of *site*; return the spec if this hit fires.

        Write sites with byte-level control call this and interpret the
        returned spec themselves; everything else uses :func:`fault_point`.
        """
        spec = self.specs.get(site)
        if spec is None:
            return None
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        if count != spec.at:
            return None
        self.fired[site] = self.fired.get(site, 0) + 1
        _count("faults_injected")
        return spec

    def raise_for(self, site: str, spec: FaultSpec) -> None:
        """Raise the exception *spec* prescribes for *site*."""
        if spec.kind == "error":
            raise InjectedFault(f"injected fault at {site!r} (hit {spec.at})")
        _count("crashes_simulated")
        raise SimulatedCrash(f"simulated crash at {site!r} (hit {spec.at})")


class _ReliabilityState:
    """The process-wide fault plan and counters (the sixth family)."""

    __slots__ = ("plan", "stats")

    def __init__(self) -> None:
        self.plan: FaultPlan | None = None
        self.stats = {
            "faults_injected": 0,
            "crashes_simulated": 0,
            "wal_records_written": 0,
            "wal_bytes_written": 0,
            "wal_fsyncs": 0,
            "wal_records_replayed": 0,
            "wal_torn_tails_truncated": 0,
            "checkpoints_written": 0,
            "corrupt_checkpoints_skipped": 0,
            "recoveries": 0,
            "batches_aborted": 0,
            "maintainer_rollbacks": 0,
        }


_RELIABILITY = _ReliabilityState()


def reliability_stats() -> dict[str, int]:
    """A snapshot of the reliability counters (tests assert deltas)."""
    return dict(_RELIABILITY.stats)


def _count(counter: str, amount: int = 1) -> None:
    _RELIABILITY.stats[counter] += amount


# -- plan activation ---------------------------------------------------------------

def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Arm *plan* process-wide (or disarm with ``None``); returns the
    previous plan."""
    previous = _RELIABILITY.plan
    _RELIABILITY.plan = plan
    return previous


def active_fault_plan() -> FaultPlan | None:
    return _RELIABILITY.plan


@contextmanager
def fault_plan(plan: FaultPlan):
    """Context-manager form of :func:`set_fault_plan`."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def fault_point(site: str) -> None:
    """The generic injection hook: no-op unless an armed plan fires here.

    ``"torn"`` specs at non-write sites degrade to a plain crash — there
    are no bytes to tear.
    """
    plan = _RELIABILITY.plan
    if plan is None:
        return
    spec = plan.trigger(site)
    if spec is not None:
        plan.raise_for(site, spec)


def wal_enabled() -> bool:
    """Always ``True``: a durable database always appends to its WAL.
    Kept only because ``perfbench/program.py`` still imports it to check
    its configuration."""
    return True
