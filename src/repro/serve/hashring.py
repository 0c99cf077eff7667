"""Deterministic consistent hashing for the cluster router.

The router (:mod:`repro.serve.cluster`) spreads keyed requests over N
broker shards with **rendezvous hashing** (highest-random-weight): every
(key, shard) pair gets a pseudo-random score from SHA-256, and a key
routes to the live shard with the highest score.  Compared to a
vnode-based hash ring this needs no ring state at all, gives the same
properties, and is trivially deterministic across processes:

* **Stability** — adding or removing one shard only remaps the keys
  whose top-ranked shard changed: an expected ``1/N`` fraction on
  removal, ``1/(N+1)`` on addition.  Everything else keeps its shard,
  so warm in-memory caches survive membership churn.
* **Distinct ranks** — the score order over shards is a full
  permutation per key, so the top ``r`` ranks are ``r`` *distinct*
  shards: failover past the owner never revisits a shard.
* **Cross-process determinism** — scores come from SHA-256 over the
  UTF-8 bytes of ``"<shard>|<key>"``, never Python's randomized
  :func:`hash`, so every router process (and the test suite's subprocess
  property check) ranks identically.

All functions take shard identifiers as strings; the router uses
``"shard-<index>"``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

__all__ = ["score", "rank", "route", "replicas", "remap_fraction"]


def score(key: str, shard: str) -> int:
    """The rendezvous weight of ``shard`` for ``key``: the first 8 bytes
    of ``sha256("<shard>|<key>")`` as a big-endian integer.  Uniform over
    ``[0, 2**64)`` and identical in every process."""
    digest = hashlib.sha256(f"{shard}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rank(key: str, shards: Sequence[str]) -> list[str]:
    """All ``shards`` ordered by descending score for ``key`` (ties — a
    ~2**-64 event — broken by shard id so the order is still total)."""
    return sorted(shards, key=lambda shard: (-score(key, shard), shard))


def route(key: str, shards: Sequence[str]) -> str:
    """The owning shard for ``key``: the top-ranked member."""
    if not shards:
        raise ValueError("cannot route over an empty shard set")
    return rank(key, shards)[0]


def replicas(key: str, shards: Sequence[str], n: int) -> list[str]:
    """The first ``min(n, len(shards))`` ranks for ``key`` — always
    distinct shards, since the rank order is a permutation."""
    if n < 1:
        raise ValueError(f"replica count must be >= 1, got {n}")
    return rank(key, shards)[: min(n, len(shards))]


def remap_fraction(
    keys: Iterable[str], before: Sequence[str], after: Sequence[str]
) -> float:
    """The fraction of ``keys`` whose top-ranked shard differs between
    the ``before`` and ``after`` memberships (test/diagnostic helper for
    the 1/N stability property)."""
    keys = list(keys)
    if not keys:
        return 0.0
    moved = sum(1 for k in keys if route(k, before) != route(k, after))
    return moved / len(keys)
