"""Persistent, sharded, content-addressed on-disk compile cache.

The in-memory :class:`~repro.pipeline.cache.CompileCache` dies with the
process, so every `repro` invocation — and every worker of the serving
daemon after a restart — starts cold and re-runs the SAFARA feedback loop
from scratch.  :class:`DiskCache` persists compiled programs under the
*same* content hash (``cache_key(source, config, env, arch)``), so a warm
start serves a previously-compiled program without a single backend
(ptxas-simulator) invocation.

Layout (``docs/serving.md`` documents it for operators)::

    <root>/
      shards/<first 2 hex chars of key>/<full key>.pkl

Design points:

* **atomic writes** — entries are written to a ``.tmp-<pid>-<tid>`` file
  in the shard directory and ``os.replace``d into place, so readers never
  observe a torn entry and concurrent writers of the same key are
  last-writer-wins (both wrote identical bytes anyway: compilation is
  deterministic);
* **corruption tolerance** — any failure to read, unpickle, or validate
  an entry is a *miss*: the bad file is deleted, the ``corrupt`` counter
  incremented, and the caller recompiles.  A disk cache must never be
  able to take the service down;
* **size-bounded LRU** — ``max_bytes`` caps the total payload size;
  eviction removes oldest-``mtime`` entries first, and hits refresh the
  file's mtime (``os.utime``) so recently-served entries survive;
* **versioned envelope** — entries embed ``FORMAT_VERSION`` and their own
  key; a version bump or a key mismatch (e.g. a truncated copy of another
  entry) reads as a miss, not an error.

Metrics (registered in the shared :class:`~repro.obs.metrics.MetricsRegistry`
namespace): ``cache.disk.hits`` / ``.misses`` / ``.writes`` /
``.evictions`` / ``.corrupt``, plus the ``cache.disk.bytes`` gauge.
Lookups and stores emit ``cache.disk.lookup`` / ``cache.disk.store``
tracing spans.
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Any

from ..errors import CacheError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import span

#: Current envelope version.  v2 once added an optional ``codegen`` text
#: field; nothing writes or reads it any more (generated programs live in
#: memory only), but v2 envelopes carrying it still load, as do v1
#: entries, which are upgraded in place on their next write.
#: Anything newer than ``FORMAT_VERSION`` (or older than
#: ``MIN_FORMAT_VERSION``) is a miss.
FORMAT_VERSION = 2
MIN_FORMAT_VERSION = 1

#: Default size bound: generous for compiled-program pickles (a few KB
#: each) while keeping a shared cache directory from growing unbounded.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class DiskCache:
    """Thread-safe persistent cache of picklable values keyed by content hash.

    The lock serialises eviction bookkeeping; the filesystem operations
    themselves are safe against concurrent *processes* too (atomic
    replace, tolerant reads), so many daemons may share one directory.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        metrics: MetricsRegistry | None = None,
    ):
        if max_bytes < 1:
            raise CacheError("max_bytes must be >= 1")
        self.root = Path(root)
        self.shards = self.root / "shards"
        self.shards.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.disk.hits", "disk cache hits")
        self._misses = self.metrics.counter(
            "cache.disk.misses", "disk cache misses"
        )
        self._writes = self.metrics.counter(
            "cache.disk.writes", "entries persisted"
        )
        self._evictions = self.metrics.counter(
            "cache.disk.evictions", "entries evicted past max_bytes"
        )
        self._corrupt = self.metrics.counter(
            "cache.disk.corrupt", "unreadable entries discarded on load"
        )
        self._bytes = self.metrics.gauge(
            "cache.disk.bytes", "total payload bytes on disk"
        )
        self._lock = threading.Lock()
        self._bytes.set(self.total_bytes())

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise CacheError(f"not a content-hash key: {key!r}")
        return self.shards / key[:2] / f"{key}.pkl"

    def _entries(self) -> list[Path]:
        return [
            p
            for shard in self.shards.iterdir()
            if shard.is_dir()
            for p in shard.glob("*.pkl")
        ]

    # -- core API ----------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """Load the value stored under ``key``; ``None`` on miss.

        Unreadable or invalid entries (truncated file, pickle error,
        format-version or key mismatch) are deleted, counted as
        ``corrupt``, and reported as a miss.
        """
        return self.get_entry(key)

    def get_entry(self, key: str) -> Any | None:
        """The envelope read behind :meth:`get` (a separate name so the
        ``perfbench`` ledger can time disk reads): the value stored under
        ``key``, or ``None`` on miss.  Fields other than the value (an old
        envelope's ``codegen`` text) are ignored."""
        path = self._path(key)
        with span("cache.disk.lookup", cache_key=key) as sp:
            try:
                blob = path.read_bytes()
                envelope = pickle.loads(blob)
                if (
                    not isinstance(envelope, dict)
                    or not (
                        MIN_FORMAT_VERSION
                        <= envelope.get("format", 0)
                        <= FORMAT_VERSION
                    )
                    or envelope.get("key") != key
                ):
                    raise ValueError("stale or mismatched cache envelope")
                value = envelope["value"]
            except FileNotFoundError:
                self._misses.inc()
                sp.set(hit=False)
                return None
            except Exception as exc:
                # Corrupt entry: discard it so the next write is clean.
                self._corrupt.inc()
                self._misses.inc()
                sp.set(hit=False, corrupt=True, error=type(exc).__name__)
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                return None
            # Refresh recency so size-based eviction spares hot entries.
            try:
                os.utime(path)
            except OSError:
                pass
            self._hits.inc()
            sp.set(hit=True)
            return value

    def peek(self, key: str) -> bool:
        """Membership test without touching counters or entry recency."""
        return self._path(key).exists()

    def put(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` atomically, then evict LRU
        entries until the cache fits ``max_bytes``."""
        path = self._path(key)
        envelope = {"format": FORMAT_VERSION, "key": key, "value": value}
        blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        with span("cache.disk.store", cache_key=key, bytes=len(blob)):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / (
                f".tmp-{os.getpid()}-{threading.get_ident()}-{path.name}"
            )
            try:
                tmp.write_bytes(blob)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            self._writes.inc()
            with self._lock:
                self._evict_to_fit()

    def _evict_to_fit(self) -> None:
        """Drop oldest-mtime entries until total size <= max_bytes.
        Caller holds the lock."""
        entries = []
        total = 0
        for p in self._entries():
            try:
                st = p.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, p))
            total += st.st_size
        if total > self.max_bytes:
            for _mtime, size, p in sorted(entries):
                try:
                    p.unlink()
                except OSError:
                    continue
                self._evictions.inc()
                total -= size
                if total <= self.max_bytes:
                    break
        self._bytes.set(total)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        total = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except OSError:
                pass
        return total

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def corrupt(self) -> int:
        return int(self._corrupt.value)

    def clear(self) -> None:
        """Delete every entry (counters are kept)."""
        with self._lock:
            for p in self._entries():
                try:
                    p.unlink()
                except OSError:
                    pass
            self._bytes.set(0)

    def as_dict(self) -> dict:
        return {
            "root": str(self.root),
            "entries": len(self),
            "bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": int(self._writes.value),
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def summary(self) -> str:
        return (
            f"disk cache at {self.root}: {len(self)} entries, "
            f"{self.total_bytes()} bytes, {self.hits} hits, "
            f"{self.misses} misses, {self.corrupt} corrupt"
        )
