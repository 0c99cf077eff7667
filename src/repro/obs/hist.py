"""Log-spaced latency histograms with exact quantile extraction.

The fixed-boundary :class:`~repro.obs.metrics.Histogram` is cheap to
observe and prints a stable set of cumulative buckets in ``repro stats``,
but its coarse fixed buckets cannot answer "what is p999?" — a
question the SLO harness (:mod:`repro.loadgen`) and the live-telemetry
``watch`` op ask constantly.  :class:`LogHistogram` is the HDR-histogram
answer: geometric buckets spanning ``[min_value, max_value]`` with a
fixed number of linear sub-buckets per octave, so every recorded value
lands in a bucket whose width is a bounded *relative* error (2.2% at the
default 32 sub-buckets/octave) while the whole structure stays a flat
integer array — O(1) ``observe``, O(buckets) quantiles, zero allocation
per sample, bounded memory forever.

Quantiles are "exact" in the HDR sense: ``quantile(q)`` returns the
upper edge of the bucket holding the q-th ranked sample, clamped into
``[min_seen, max_seen]`` — never more than one relative-error step from
the true order statistic, and exactly ``max_seen`` at q=1.

Thread-safe: ``observe`` and the readers take a per-histogram lock (the
serving broker records latencies from every worker thread).
"""

from __future__ import annotations

import math
import threading

#: Default value range, in milliseconds: 100 ns (a cache-hit compile
#: answers in microseconds) to ~28 hours.  Values outside clamp.
DEFAULT_MIN = 1e-4
DEFAULT_MAX = 1e8

#: Linear sub-buckets per octave (power of two).  32 bounds the relative
#: bucket width at 2^(1/32) - 1 ~= 2.2%.
DEFAULT_SUB_BUCKETS = 32


class LogHistogram:
    """Bounded-relative-error histogram over a positive value range."""

    __slots__ = (
        "name", "help", "min_value", "max_value", "sub_buckets",
        "_growth", "_inv_log_growth", "_nbuckets", "counts",
        "count", "total", "min_seen", "max_seen", "_lock",
    )
    kind = "loghistogram"

    def __init__(
        self,
        name: str = "",
        *,
        min_value: float = DEFAULT_MIN,
        max_value: float = DEFAULT_MAX,
        sub_buckets: int = DEFAULT_SUB_BUCKETS,
        help: str = "",
    ):
        if not (0 < min_value < max_value):
            raise ValueError("need 0 < min_value < max_value")
        if sub_buckets < 1:
            raise ValueError("sub_buckets must be >= 1")
        self.name = name
        self.help = help
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.sub_buckets = int(sub_buckets)
        self._growth = 2.0 ** (1.0 / self.sub_buckets)
        self._inv_log_growth = self.sub_buckets / math.log(2.0)
        self._nbuckets = (
            int(math.log(self.max_value / self.min_value) * self._inv_log_growth)
            + 2
        )
        self.counts = [0] * self._nbuckets
        self.count = 0
        self.total = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        if value >= self.max_value:
            return self._nbuckets - 1
        return int(math.log(value / self.min_value) * self._inv_log_growth) + 1

    def _edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` (the quantile representative)."""
        if index <= 0:
            return self.min_value
        return min(
            self.max_value, self.min_value * self._growth ** index
        )

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[self._index(value)] += 1
            self.count += 1
            self.total += value
            if value < self.min_seen:
                self.min_seen = value
            if value > self.max_seen:
                self.max_seen = value

    def zero(self) -> None:
        with self._lock:
            self.counts = [0] * self._nbuckets
            self.count = 0
            self.total = 0.0
            self.min_seen = math.inf
            self.max_seen = -math.inf

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same geometry)."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.sub_buckets != self.sub_buckets
        ):
            raise ValueError("cannot merge histograms with different geometry")
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.total
            lo, hi = other.min_seen, other.max_seen
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.count += count
            self.total += total
            self.min_seen = min(self.min_seen, lo)
            self.max_seen = max(self.max_seen, hi)

    # -- reading -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (0 < q <= 1), within one relative
        bucket width of the true order statistic; 0.0 when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            running = 0
            for index, n in enumerate(self.counts):
                running += n
                if running >= rank:
                    edge = self._edge(index)
                    return min(max(edge, self.min_seen), self.max_seen)
            return self.max_seen  # unreachable: running == count by the end

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def quantiles(self) -> dict[str, float]:
        """The standard SLO quartet, rounded for reports."""
        return {
            "p50": round(self.p50, 6),
            "p90": round(self.p90, 6),
            "p99": round(self.p99, 6),
            "p999": round(self.p999, 6),
        }

    def as_dict(self) -> dict:
        with self._lock:
            count, total = self.count, self.total
            lo = self.min_seen if count else 0.0
            hi = self.max_seen if count else 0.0
        out = {
            "type": self.kind,
            "count": count,
            "sum": round(total, 4),
            "mean": round(total / count, 4) if count else 0.0,
            "min": round(lo, 6),
            "max": round(hi, 6),
        }
        out.update(self.quantiles() if count else
                   {"p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0})
        return out
