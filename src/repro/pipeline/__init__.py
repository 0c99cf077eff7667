"""Compilation-service infrastructure: the instrumented pass pipeline and
the content-addressed compile cache.

* :mod:`repro.pipeline.passes` — ``Pass`` / ``PassManager`` and the five
  passes wrapping the paper's transformations;
* :mod:`repro.pipeline.cache` — the (source, config, kernel)-keyed LRU
  compile cache with hit/miss/evict counters;
* :mod:`repro.pipeline.diskcache` — the persistent, sharded on-disk tier
  behind the in-memory cache (warm starts survive process restarts);
* :mod:`repro.pipeline.trace` — structured per-pass instrumentation
  (wall time, IR-size delta, register delta) and session statistics.

The :class:`~repro.compiler.session.CompilerSession` ties all three
together; see ``docs/pipeline.md``.
"""

from .cache import CompileCache, cache_key, config_token
from .diskcache import DiskCache
from .passes import (
    AutoParallelizePass,
    CarrKennedyPass,
    DEFAULT_PASS_ORDER,
    EsatPass,
    LicmPass,
    Pass,
    PassContext,
    PassManager,
    SafaraPass,
    UnrollPass,
    default_passes,
    ir_size,
    run_safara,
)
from .registry import (
    PASSES,
    PassRegistry,
    get_pass,
    list_passes,
    register_pass,
)
from .trace import CompileTrace, PassTrace, RegionTrace, SessionStats

__all__ = [
    "AutoParallelizePass",
    "CarrKennedyPass",
    "CompileCache",
    "CompileTrace",
    "DEFAULT_PASS_ORDER",
    "DiskCache",
    "EsatPass",
    "LicmPass",
    "PASSES",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRegistry",
    "PassTrace",
    "RegionTrace",
    "SafaraPass",
    "SessionStats",
    "UnrollPass",
    "cache_key",
    "config_token",
    "default_passes",
    "get_pass",
    "ir_size",
    "list_passes",
    "register_pass",
]
