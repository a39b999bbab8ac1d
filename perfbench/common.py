"""Measurement helpers shared by the client and the program process:
percentiles with their sample counts, CPU steal, the host-speed reference,
peak RSS, and the run's environment fingerprint."""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import platform
import random
import resource
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter


class Metric:
    """One reported number with its unit and the samples it summarizes."""

    __slots__ = ("value", "unit", "samples")

    def __init__(self, value: float, unit: str, samples: int = 1) -> None:
        self.value = value
        self.unit = unit
        self.samples = samples

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (``fraction`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """How many of *count* samples lie beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: What one run of :func:`reference_kernel` takes on the reference host.
#: Time metrics are rescaled to that host: multiplied by this over the
#: kernel's duration measured beside them.
REFERENCE_SECONDS = 0.0017

#: Rows of the fixed fact table :func:`reference_kernel` scans.
KERNEL_ROWS = 10_000


@functools.cache
def _kernel_table() -> tuple[list[tuple], dict, dict]:
    """A fixed star schema shaped like ``serve_adhoc``'s: 10,000 fact rows
    ``(a, b, m)`` and two 100-row dimensions with 10 labels each."""
    rng = random.Random("reference-kernel")
    fact = [
        (f"a{rng.randrange(100):02d}", f"b{rng.randrange(100):02d}", f"m{rng.randrange(500):03d}")
        for _ in range(KERNEL_ROWS)
    ]
    labels1 = {f"a{index:02d}": f"c{index % 10}" for index in range(100)}
    labels2 = {f"b{index:02d}": f"d{index % 10}" for index in range(100)}
    return fact, labels1, labels2


def reference_kernel() -> float:
    """Seconds one run of a fixed pure-Python task takes on this host now.

    The task is a plain-Python star join: 10,000 fact rows scanned with
    two hash probes each, a set of projected tuples, and the answer
    rendered as JSON, over about a megabyte of heap, like the program's
    queries and commits.  It runs no program code, so a change to the
    program never changes it.  On a shared VM the same code runs about
    twice as fast in one minute as in another; this kernel follows the
    host more closely than one that fits in a few kilobytes (see
    ``README.md``).  The cyclic collector is paused meanwhile, so the size
    of the heap the kernel shares a process with does not change its time.
    """
    fact, labels1, labels2 = _kernel_table()
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for c, d in (("c3", "d7"), ("c8", "d1")):
            answer = set()
            for a, b, m in fact:
                if labels1[a] == c and labels2[b] == d:
                    answer.add((m, a, d))
            json.dumps({"values": [{"items": list(row)} for row in sorted(answer)]})
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_factor(kernel_seconds: float) -> float:
    """Multiplier from this host's time to reference time."""
    return REFERENCE_SECONDS / kernel_seconds


def speed_factors(samples: list[tuple[float, float]], times: list[float],
                  half_width: float = 1.0) -> list[float]:
    """For each of *times*, :func:`speed_factor` of the median kernel
    duration sampled within ``half_width`` seconds of it (the nearest sample
    when none is that close).  *samples* are ``(time, kernel seconds)``
    pairs sorted by time."""
    stamps = [stamp for stamp, _kernel in samples]
    factors = []
    for moment in times:
        low = bisect_left(stamps, moment - half_width)
        high = bisect_right(stamps, moment + half_width)
        if low == high:
            nearest = min(range(len(stamps)), key=lambda i: abs(stamps[i] - moment))
            low, high = nearest, nearest + 1
        factors.append(speed_factor(median([kernel for _s, kernel in samples[low:high]])))
    return factors


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    values = [int(field) for field in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user time.
    return steal, sum(values[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    return ratio(after[0] - before[0], after[1] - before[1])


def process_usage() -> dict:
    """This process's CPU seconds and peak RSS."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def peak_rss_kb(pid: int) -> int:
    """Peak RSS so far of process *pid*, in KiB (``VmHWM`` in ``/proc``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def ablation_variables() -> list[str]:
    """``REPRO_*`` environment variables that are set (there must be none:
    each one switches the program into an ablated or traced mode)."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git (the
    benchmark also runs in exported trees, where this is ``"unknown"``)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "platform": platform.platform(),
    }
