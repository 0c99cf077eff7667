"""Metrics registry: counters, gauges and fixed-bucket histograms.

Replaces the ad-hoc integer fields that used to live on ``SessionStats``
and ``CompileCache`` with named, typed, self-describing metrics that one
registry can render as text (``repro stats``) or JSON
(``CompilerSession.metrics``).  Callers read a counter by name
(``metrics.get("session.timings")``); the only attribute views left
are ``SessionStats.compilations`` and ``CompileCache.hits`` and friends.

Conventions:

* names are dotted paths (``session.compilations``, ``cache.hits``,
  ``pipeline.pass.safara.wall_ms``) — the text renderer sorts by name so
  related metrics group visually;
* histograms use *fixed* bucket boundaries chosen at creation: ``observe``
  is a bisect into a small list, and every snapshot of a histogram carries
  the same bucket keys (``le_0.1``, …), which ``repro stats`` prints;
  quantiles come from :meth:`MetricsRegistry.log_histogram`;
* registration is get-or-create and type-checked, so two subsystems
  naming the same counter share it instead of shadowing each other.

Mutation takes a small per-metric lock: ``+=`` on an attribute is
read-modify-write across bytecodes, and the serving broker hammers the
same counters from every worker thread — a monitoring layer that loses
increments under exactly the load it exists to measure is worse than
none (the loss is asserted impossible in ``tests/obs/test_concurrency``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from .hist import LogHistogram

#: Default wall-time boundaries (milliseconds): compile and pass times
#: span ~0.005ms (a warm memory-tier hit answers in microseconds — warm
#: compile p50 is ~0.016 ms) to seconds (a full SAFARA sweep).  The
#: sub-millisecond boundaries were appended below the original 0.1
#: floor; every pre-existing bucket name (``le_0.1``…) is unchanged, so
#: ``repro stats`` consumers keep their keys.
MS_BUCKETS = (0.005, 0.01, 0.025, 0.05,
              0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
              250.0, 500.0, 1000.0, 2500.0)

#: Default count boundaries (iterations, elements, backend compiles).
COUNT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 1000, 10_000, 100_000, 1_000_000)

#: The known metric families, in render order, with their ``repro
#: stats`` section titles.  A registered name whose first dotted
#: component is not listed here renders in the ``other`` catch-all —
#: new families appear automatically rather than vanishing.
METRIC_FAMILIES = (
    ("session", "session (compiles, executions, timing)"),
    ("cache", "cache (memory / disk / function-object tiers)"),
    ("pipeline", "pipeline (per-pass instrumentation)"),
    ("gpu", "gpu (timing model)"),
    ("esat", "esat (equality saturation / extraction)"),
    ("codegen", "codegen (generated-NumPy tier)"),
    ("tune", "tune (autotuner)"),
    ("serve", "serve (broker, deadlines, placement, latency)"),
    ("cluster", "cluster (router, sharding, failover, drains)"),
    ("loadgen", "loadgen (open-loop load generator)"),
)


class Counter:
    """Monotonic (by convention) accumulator; float-valued so wall-time
    totals can ride the same type.  ``inc`` is lossless under concurrent
    callers (per-metric lock)."""

    __slots__ = ("name", "help", "value", "_lock")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def zero(self) -> None:
        with self._lock:
            self.value = 0

    def as_dict(self) -> dict:
        v = self.value
        return {"type": self.kind, "value": int(v) if v == int(v) else round(v, 4)}


class Gauge:
    """A value that goes up and down (cache entry count, queue depth)."""

    __slots__ = ("name", "help", "value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1) -> None:
        """Lossless relative adjustment (concurrent ``set`` races would
        drop updates; queue-depth style gauges adjust instead)."""
        with self._lock:
            self.value += amount

    def zero(self) -> None:
        self.value = 0

    def as_dict(self) -> dict:
        v = self.value
        return {"type": self.kind, "value": int(v) if v == int(v) else round(v, 4)}


class Histogram:
    """Fixed-boundary histogram with cumulative rendering.

    ``boundaries`` are upper-inclusive bucket edges; one implicit
    ``+inf`` bucket catches the rest.  ``observe`` is O(log buckets).
    """

    __slots__ = ("name", "help", "boundaries", "counts", "count", "total",
                 "_lock")
    kind = "histogram"

    def __init__(self, name: str, boundaries=MS_BUCKETS, help: str = ""):
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted and non-empty")
        self.name = name
        self.help = help
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value

    def zero(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.boundaries) + 1)
            self.count = 0
            self.total = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> dict[str, int]:
        """Cumulative counts keyed ``le_<boundary>`` (+ ``le_inf``)."""
        out: dict[str, int] = {}
        running = 0
        for boundary, n in zip(self.boundaries, self.counts):
            running += n
            key = f"le_{int(boundary)}" if boundary == int(boundary) else f"le_{boundary}"
            out[key] = running
        out["le_inf"] = running + self.counts[-1]
        return out

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": round(self.total, 4),
            "mean": round(self.mean, 4),
            "buckets": self.cumulative(),
        }


class MetricsRegistry:
    """Named metrics, shared across the subsystems of one session."""

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kw):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, requested {cls.__name__}"
                    )
                return existing
            metric = cls(name, help=help, **kw)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, boundaries=MS_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, boundaries=boundaries)

    def log_histogram(self, name: str, help: str = "", **kw) -> LogHistogram:
        """A log-spaced quantile histogram (:mod:`repro.obs.hist`) —
        use for latencies where p99/p999 matter (``serve.latency_ms.*``);
        the fixed-bucket :meth:`histogram` answers count, sum and mean
        only."""
        return self._get_or_create(LogHistogram, name, help, **kw)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every metric (registrations are kept)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.zero()

    def as_dict(self) -> dict:
        """JSON-ready snapshot, sorted by metric name."""
        with self._lock:
            return {
                name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)
            }

    def render_text(self) -> str:
        """Human-readable table (the ``repro stats`` default output).

        Metrics are grouped into sections by their first dotted component
        — the known families first, then an ``other`` catch-all, so **a
        dotted name registered by any subsystem is always rendered**
        (asserted by ``tests/obs/test_stats_render.py``: registering a
        metric can never silently hide it from ``repro stats``).
        """
        data = self.as_dict()
        sections: dict[str, list[str]] = {key: [] for key, _ in METRIC_FAMILIES}
        sections["other"] = []
        for name in data:
            family = name.split(".", 1)[0]
            sections.get(family, sections["other"]).append(name)
        lines: list[str] = []
        titles = dict(METRIC_FAMILIES)
        for family, names in sections.items():
            if not names:
                continue
            if lines:
                lines.append("")
            lines.append(f"# {titles.get(family, 'other (unclassified families)')}")
            for name in names:
                lines.extend(self._render_metric(name, data[name]))
        return "\n".join(lines)

    @staticmethod
    def _render_metric(name: str, data: dict) -> list[str]:
        lines: list[str] = []
        if data["type"] == "histogram":
            lines.append(
                f"{name:<44} histogram  count={data['count']} "
                f"sum={data['sum']} mean={data['mean']}"
            )
            # Only print buckets that add information (skip leading
            # empties; always show the +inf total).
            previous = 0
            for key, cum in data["buckets"].items():
                if cum > previous or key == "le_inf":
                    lines.append(f"    {key:<40} {cum}")
                    previous = cum
        elif data["type"] == "loghistogram":
            lines.append(
                f"{name:<44} loghist    count={data['count']} "
                f"mean={data['mean']} p50={data['p50']} "
                f"p99={data['p99']} p999={data['p999']}"
            )
        else:
            lines.append(f"{name:<44} {data['type']:<9} {data['value']}")
        return lines
