"""Content-addressed compile cache.

The SAFARA loop is feedback-driven — every region is compiled through the
backend repeatedly — and the experiment harness multiplies that by
(configurations × benchmarks), recompiling identical (source, config,
kernel) tuples constantly.  :class:`CompileCache` memoises compiled
programs under a content hash of exactly those inputs, with LRU eviction
and hit/miss/evict counters.

Keys are *content-addressed* over what a compile reads: two
configurations with equal field values produce the same key regardless of
object identity, and any changed field (the architecture included)
produces a different key.  Problem sizes (the env) are not read by a
compile, so they are not in the key.  Compilation is deterministic (see
``tests/compiler/test_driver.py``), so a hit is bit-identical to a
recompile.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Mapping

from ..errors import CacheError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import span


def config_token(config) -> str:
    """A deterministic serialisation of a :class:`CompilerConfig`.

    Frozen-dataclass ``repr`` covers every field, including the nested
    ``GpuArch`` and ``LatencyModel`` (both frozen dataclasses themselves),
    so value-equal configs serialise identically.  Configs are immutable,
    so the token is derived once per config object and kept in its
    ``_token`` slot.
    """
    try:
        return config._token
    except AttributeError:  # first call, or an unpickled config
        token = repr(config)
        object.__setattr__(config, "_token", token)
        return token


def env_token(env: Mapping[str, int]) -> str:
    """The canonical text of an env binding, which a stored timing verdict
    is matched on: equal for equal bindings in any order, different for
    ``64`` and ``64.0``."""
    return repr(sorted(env.items()))


def cache_key(
    source: str,
    config,
    *,
    kernel_name: str | None = None,
    pipeline: str | None = None,
) -> str:
    """SHA-256 key over (source text, config, kernel name, pipeline):
    exactly what a compile reads.  The arch rides inside the config token;
    ``pipeline`` is a custom pass pipeline's
    :attr:`~repro.pipeline.passes.PassManager.key_token` (``None`` for the
    default pipeline, whose keys it leaves unchanged)."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(config_token(config).encode())
    h.update(b"\x00")
    if kernel_name is not None:
        h.update(kernel_name.encode())
    if pipeline is not None:
        h.update(b"\x00")
        h.update(pipeline.encode())
    return h.hexdigest()


class CompileCache:
    """Thread-safe LRU cache of compiled programs, keyed by content hash.

    Hit/miss/evict counters live in a :class:`MetricsRegistry` (pass the
    session's to share one namespace; a private registry is created
    otherwise).  ``cache.hits`` and friends remain available as
    compatibility properties.
    """

    def __init__(self, maxsize: int = 512, metrics: MetricsRegistry | None = None):
        if maxsize < 1:
            raise CacheError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits", "compile cache hits")
        self._misses = self.metrics.counter("cache.misses", "compile cache misses")
        self._evictions = self.metrics.counter(
            "cache.evictions", "LRU evictions past maxsize"
        )
        self._entries = self.metrics.gauge("cache.entries", "resident programs")
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    # -- compatibility properties over the named metrics -------------------

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    def get(self, key: str) -> Any | None:
        """Look up ``key``; counts a hit or a miss.  ``None`` on miss."""
        with span("cache.lookup", cache_key=key) as sp:
            with self._lock:
                try:
                    value = self._data[key]
                except KeyError:
                    self._misses.inc()
                    sp.set(hit=False)
                    return None
                self._data.move_to_end(key)
                self._hits.inc()
            sp.set(hit=True)
            return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            while len(self._data) >= self.maxsize:
                self._data.popitem(last=False)
                self._evictions.inc()
            self._data[key] = value
            self._entries.set(len(self._data))

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset`)."""
        with self._lock:
            self._data.clear()
            self._entries.set(0)

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._data.clear()
            self._hits.zero()
            self._misses.zero()
            self._evictions.zero()
            self._entries.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "entries": len(self),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def summary(self) -> str:
        return (
            f"compile cache: {self.hits} hits, {self.misses} misses, "
            f"{self.evictions} evictions "
            f"({self.hit_rate * 100.0:.1f}% hit rate, "
            f"{len(self)}/{self.maxsize} entries)"
        )
