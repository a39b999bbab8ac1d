"""The metrics registry: histograms, gauges, and text exposition.

One process-wide :class:`MetricsRegistry` (:data:`METRICS`) unifies the
three metric kinds a serving process exposes:

* **histograms** — log-bucketed latency distributions
  (:class:`Histogram`): bucket upper bounds double from 1µs to ~67s, so
  37 integer counters cover every latency this system can produce with
  <2× relative error, and p50/p95/p99 fall out of a cumulative walk
  (:meth:`Histogram.percentile`).  Observation is two integer increments
  and a float add — cheap enough for per-request use;
* **gauges** — named callables sampled at exposition time (current
  epoch, pinned readers, WAL bytes, quarantined views, cache sizes).
  Callback-based on purpose: the owning component registers a closure
  over its live state instead of pushing updates it would otherwise have
  to guard on the hot path;
* **counters** — the eight runtime counter families are *already*
  counters; the exposition pulls them from
  :func:`repro.objects.stats.runtime_stats` instead of duplicating them.

:meth:`MetricsRegistry.render_exposition` emits the Prometheus text
format (``# TYPE`` comments, cumulative ``_bucket{le=...}`` lines,
``_sum``/``_count``), which is what the serving ``METRICS`` verb returns.
"""

from __future__ import annotations

import math
import threading

#: Histogram bucket upper bounds: 1µs doubling up to ~67s.  Everything
#: slower lands in the +Inf bucket.
BUCKET_BOUNDS = tuple(1e-6 * 2.0 ** k for k in range(27))


class Histogram:
    """A fixed-bucket latency histogram (seconds).

    Buckets are cumulative only at render time; internally each bucket
    counts its own range so :meth:`observe` is one index computation and
    one increment.  The GIL makes the unlocked increments safe in the
    same diagnostic sense as the counter families (see
    :mod:`repro.objects.stats`).
    """

    __slots__ = ("name", "labels", "counts", "sum", "count")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        """Record one measurement."""
        if seconds <= BUCKET_BOUNDS[0]:
            index = 0
        elif seconds > BUCKET_BOUNDS[-1]:
            index = len(BUCKET_BOUNDS)
        else:
            # Buckets double, so the index is the exponent distance from
            # the first bound — O(1) instead of a linear scan.
            index = max(0, math.ceil(math.log2(seconds / BUCKET_BOUNDS[0])))
            if seconds > BUCKET_BOUNDS[index]:  # guard float-log rounding
                index += 1
        self.counts[index] += 1
        self.sum += seconds
        self.count += 1

    def percentile(self, quantile: float) -> float | None:
        """The upper bound of the bucket holding the *quantile*-th
        observation (``None`` on an empty histogram) — an estimate with
        at most one-bucket (2×) error, plenty for slow-request triage."""
        if not self.count:
            return None
        rank = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[index]
                return math.inf
        return math.inf  # pragma: no cover - the loop always reaches rank

    def summary(self) -> dict:
        """``{count, sum, p50, p95, p99}`` — the STATS verb's digest."""
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def reset(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0


def _label_suffix(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


class MetricsRegistry:
    """The process-wide metric namespace (one instance: :data:`METRICS`)."""

    def __init__(self) -> None:
        self._histograms: dict[tuple, Histogram] = {}
        self._gauges: dict[str, tuple] = {}
        self._lock = threading.Lock()

    # -- histograms ------------------------------------------------------------
    def histogram(self, name: str, labels: dict[str, str] | None = None) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.
        Label sets share the name's ``# TYPE`` line in the exposition."""
        key = (name, tuple(sorted((labels or {}).items())))
        existing = self._histograms.get(key)
        if existing is not None:
            return existing
        with self._lock:
            return self._histograms.setdefault(key, Histogram(name, key[1]))

    def histograms(self, name: str | None = None) -> list[Histogram]:
        """Every registered histogram (optionally filtered by name)."""
        return [
            histogram
            for histogram in self._histograms.values()
            if name is None or histogram.name == name
        ]

    def latency_summaries(self) -> dict[str, dict]:
        """Per-histogram ``summary()`` digests keyed by rendered name —
        what the extended STATS verb embeds."""
        return {
            histogram.name + _label_suffix(histogram.labels): histogram.summary()
            for histogram in self._histograms.values()
        }

    # -- gauges ----------------------------------------------------------------
    def set_gauge(self, name: str, callback, description: str = "") -> None:
        """Register (or replace) a gauge sampled at exposition time."""
        with self._lock:
            self._gauges[name] = (callback, description)

    def remove_gauge(self, name: str) -> None:
        with self._lock:
            self._gauges.pop(name, None)

    def gauge_values(self) -> dict[str, float]:
        """Sample every gauge now (a callback that raises reads as absent
        rather than failing the whole exposition)."""
        values = {}
        for name, (callback, _description) in sorted(self._gauges.items()):
            try:
                values[name] = float(callback())
            except Exception:  # noqa: BLE001 — one bad gauge must not kill METRICS
                continue
        return values

    # -- exposition ------------------------------------------------------------
    def render_exposition(self) -> str:
        """The Prometheus text exposition of everything the registry and
        the eight counter families know."""
        from repro.objects.stats import runtime_stats
        from repro.observability.trace import _OBSERVABILITY

        lines: list[str] = []
        for family, counters in sorted(runtime_stats().items()):
            for counter, value in sorted(counters.items()):
                metric = f"repro_{family}_{counter}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {value}")
        for name, value in self.gauge_values().items():
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format(value)}")
        seen_types: set[str] = set()
        for key in sorted(self._histograms):
            histogram = self._histograms[key]
            name = histogram.name
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for index, bucket_count in enumerate(histogram.counts):
                cumulative += bucket_count
                bound = (
                    _format(BUCKET_BOUNDS[index])
                    if index < len(BUCKET_BOUNDS)
                    else "+Inf"
                )
                suffix = _label_suffix(histogram.labels, f'le="{bound}"')
                lines.append(f"{name}_bucket{suffix} {cumulative}")
            plain = _label_suffix(histogram.labels)
            lines.append(f"{name}_sum{plain} {_format(histogram.sum)}")
            lines.append(f"{name}_count{plain} {histogram.count}")
        _OBSERVABILITY.stats["metrics_expositions"] += 1
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every histogram and gauge (tests and benchmarks)."""
        with self._lock:
            self._histograms.clear()
            self._gauges.clear()


def _format(value: float) -> str:
    """Render a float the way Prometheus expositions do: integral values
    without the trailing ``.0``, everything else in repr precision."""
    if not math.isfinite(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


METRICS = MetricsRegistry()


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse an exposition back into ``{metric: {labels-string: value}}``
    — the client-side half the tests and ``metrics_dump`` use.  Metric
    types come back under ``"#types"``."""
    metrics: dict[str, dict] = {"#types": {}}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                metrics["#types"][parts[2]] = parts[3]
            continue
        name_part, _, value_part = line.rpartition(" ")
        name, _, labels = name_part.partition("{")
        labels = "{" + labels if labels else ""
        value = float(value_part)
        metrics.setdefault(name, {})[labels] = value
    return metrics


__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "parse_exposition",
]
