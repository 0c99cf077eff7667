"""The resumable tuning ledger: scored trial points, persisted as JSON.

A tuning run over N points is minutes of SAFARA feedback compiles; a
killed or re-run tune should not repeat the work.  The ledger keys every
scored point under a *task key* — a content hash of (source, base
config, env, launches): the compile cache's
:func:`~repro.pipeline.cache.cache_key` recipe plus the problem size and
launch counts the scores depend on — so a warm re-tune of the same
task replays scores from disk and performs **zero** backend compiles,
while any change to the source, base config, problem size, or launch
counts starts a fresh task.

File layout (one JSON document)::

    {"version": 1,
     "tasks": {"<task key>": {"points": {"<point key>": {...score...}}}}}

Writes are atomic (tmp file + ``os.replace``) and the loader tolerates a
corrupt or alien file by starting empty — a ledger must never be able to
take a tuning run down.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping

#: Bump when the per-point score payload changes shape; older ledgers
#: then read as empty and re-tune from scratch.
FORMAT_VERSION = 1


def task_key(
    source: str,
    base,
    *,
    env: Mapping[str, int] | None = None,
    launches: "dict | list | int" = 1,
) -> str:
    """SHA-256 task identity: the compile cache key's recipe
    (frozen-dataclass ``repr`` covers every config field, arch included),
    plus the env and launch counts the scores depend on."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(repr(base).encode())
    h.update(b"\x00")
    if env:
        h.update(repr(sorted(env.items())).encode())
    h.update(b"\x00")
    h.update(repr(launches).encode())
    return h.hexdigest()


class TuneLedger:
    """Thread-safe, load-once/flush-explicitly JSON ledger."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._dirty = False
        self._data = self._load()

    def _load(self) -> dict:
        empty = {"version": FORMAT_VERSION, "tasks": {}}
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return empty
        if (
            not isinstance(raw, dict)
            or raw.get("version") != FORMAT_VERSION
            or not isinstance(raw.get("tasks"), dict)
        ):
            return empty
        return raw

    # -- core API ----------------------------------------------------------

    def get(self, task: str, point: str) -> dict | None:
        """The stored score for ``point`` under ``task``, or ``None``."""
        with self._lock:
            entry = self._data["tasks"].get(task, {}).get("points", {}).get(point)
            return dict(entry) if isinstance(entry, dict) else None

    def record(self, task: str, point: str, score: dict[str, Any]) -> None:
        """Stage a score in memory; call :meth:`flush` to persist."""
        with self._lock:
            points = self._data["tasks"].setdefault(task, {"points": {}})
            points.setdefault("points", {})[point] = dict(score)
            self._dirty = True

    def flush(self) -> None:
        """Atomically persist the ledger (merging with any concurrent
        writer's on-disk tasks: last-writer-wins per point, union of
        tasks)."""
        with self._lock:
            if not self._dirty:
                return
            on_disk = TuneLedger.__new__(TuneLedger)
            on_disk.path = self.path
            merged = on_disk._load()
            for task, body in self._data["tasks"].items():
                target = merged["tasks"].setdefault(task, {"points": {}})
                target.setdefault("points", {}).update(body.get("points", {}))
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.parent / (
                f".tmp-{os.getpid()}-{threading.get_ident()}-{self.path.name}"
            )
            try:
                tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
                os.replace(tmp, self.path)
            finally:
                tmp.unlink(missing_ok=True)
            self._data = merged
            self._dirty = False

    # -- introspection -----------------------------------------------------

    def points(self, task: str) -> dict[str, dict]:
        with self._lock:
            return dict(self._data["tasks"].get(task, {}).get("points", {}))

    def __len__(self) -> int:
        with self._lock:
            return sum(
                len(body.get("points", {}))
                for body in self._data["tasks"].values()
            )

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "tasks": len(self._data["tasks"]),
                "points": sum(
                    len(b.get("points", {}))
                    for b in self._data["tasks"].values()
                ),
            }
