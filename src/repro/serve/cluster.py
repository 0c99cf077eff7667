"""The sharded serving tier: a consistent-hash router over N broker
shards.

One :class:`Router` owns the client-facing stream or socket (it is the
``cluster`` tier of the :class:`~repro.serve.frontdoor.FrontDoor` the
broker also subclasses, so the daemon front ends in
:mod:`repro.serve.daemon` and the load generator drive it unchanged)
and spreads keyed requests (``compile`` / ``run`` / ``tune``) over N
shards, each a full broker — worker pool, deadlines, placement
— sharing one content-addressed disk-cache namespace.  See
``docs/sharding.md`` for the architecture and failure matrix.

* **Routing** — each request's content-addressed routing key (source +
  config + kernel + arch + env shape) is rendezvous-hashed over the live
  shards (:mod:`repro.serve.hashring`); the same key always lands on the
  same shard, so per-shard in-memory caches stay hot, and compile/run
  traffic for one kernel co-locates.
* **Hot-key replication** — keys seen often enough (the top
  :data:`HOT_KEY_COUNT` by hit count, each with at least
  :data:`HOT_KEY_MIN_HITS` hits) rotate over their first
  ``replication`` ranks instead of pinning to rank 0, so one viral
  kernel does not saturate a single shard.  The rank order is a
  permutation per key, so replicas are always distinct shards.
* **Failover** — a request waits for the shard it was placed on and
  takes that shard's answer.  It moves to the next rank only when the
  shard is gone or leaving: the submit is refused, the transport dies
  under it, or the shard answers ``shutting_down``
  (``cluster.failovers``).
* **Admission quotas** — with a configured per-tenant rate, keyed
  requests charge a token bucket keyed by the protocol's ``tenant``
  field before routing (:mod:`repro.serve.quota`, the front door's
  admission check); an empty bucket answers the retryable
  ``quota_exceeded``.
* **Drain/restart** — the ``drain`` op (``repro cluster-drain``) marks a
  shard draining (no new routes), waits out its in-flight requests,
  stops it, and optionally restarts it.  The restarted shard rejoins
  over the shared disk tier, so its warm keys survive — zero warm-cache
  loss across the cycle.  The router keeps the drained shard's last
  counters, so the telemetry totals do not shrink when it restarts.
* **Tracing** — the router stamps every forwarded request with its
  ``trace_id``, so the shard's span tree carries the router-visible
  correlation id: one request, one connected tree, findable via the
  ``trace`` op on the router (which fans out to the shards).

Shards come in two kinds behind one interface: :class:`LocalShard`
(an in-process broker — deterministic, used by tests and the regression
ledger) and :class:`ProcessShard` (a ``repro serve --socket`` daemon
subprocess per shard — what ``repro serve --shards N`` runs).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from . import hashring, protocol
from .broker import Broker, BrokerConfig
from .client import SocketClient
from .frontdoor import FrontDoor, number
from .protocol import ServeError
from .quota import TenantQuotas

__all__ = [
    "ClusterConfig",
    "LocalShard",
    "ProcessShard",
    "Router",
    "routing_key",
    "run_cluster",
]

#: Ops that carry a routable content key (everything else is control
#: plane, handled by the router itself).
KEYED_OPS = frozenset({"compile", "run", "tune"})

#: Hot-key set size (top-K routing keys by hit count)…
HOT_KEY_COUNT = 8
#: …and the hit count below which a key is never considered hot.
HOT_KEY_MIN_HITS = 3
#: Keyed requests between recomputations of the hot set.
_HOT_EVERY = 32


def routing_key(request: dict) -> str:
    """The content-addressed routing key of a keyed request.

    Deliberately excludes the ``op`` *and* the ``env``: a ``compile``, a
    ``run`` at any problem size, and a ``tune`` of the same kernel all
    hash identically, so every request for one kernel lands on the shard
    whose in-memory tiers (compile cache, function objects) are already
    hot for it.  What it does include — source, config, kernel, arch —
    is exactly what distinguishes cache entries that could never share a
    warm tier.
    """
    material = {
        "source": request.get("source", ""),
        "config": request.get("config"),
        "kernel": request.get("kernel"),
        "arch": request.get("arch"),
    }
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Router settings: the shard fleet, hot-key replication, tenant
    quotas and router capacity (see ``docs/sharding.md``)."""

    #: Number of broker shards behind the router.
    shards: int = 2
    #: Per-shard broker configuration.  Give it a ``cache_dir`` — the
    #: shared disk namespace is what makes drain/restart lossless.
    broker: BrokerConfig = field(default_factory=BrokerConfig)
    #: Ranks a hot key may be served from (≥2 enables replication;
    #: 1 pins every key to its rendezvous owner).
    replication: int = 2
    #: Per-tenant admission: tokens/second and bucket ceiling.  ``None``
    #: rate disables quotas entirely.
    tenant_rate: float | None = None
    tenant_burst: float = 10.0
    #: Router threads (each carries one in-flight request end to end)
    #: and the extra requests allowed to queue.
    router_workers: int = 16
    queue_limit: int = 64
    #: ``True`` → one ``repro serve --socket`` subprocess per shard;
    #: ``False`` → in-process brokers (tests, regression ledger).
    process_shards: bool = False
    #: Directory for the per-shard unix sockets (``None`` → a temp dir).
    socket_dir: str | None = None
    #: How long to wait for a shard subprocess socket to appear.
    spawn_timeout_s: float = 30.0


#: The ``watch`` request that reads one telemetry frame from a daemon.
_WATCH_ONCE = {"op": "watch", "count": 1, "interval_ms": 1.0}


def _client_requests(frame: dict) -> int:
    """A shard frame's request total without the ``watch`` probes that
    read its telemetry (the router's own, for every frame it builds)."""
    return frame.get("requests_total", 0) - frame.get("requests", {}).get("watch", 0)


def _add_counts(into: dict, frame: dict) -> None:
    """Add a shard frame's cumulative counters (the scalar ones and the
    per-arch / per-tier tallies) into ``into``."""
    for key in ("deadline_exceeded", "scalar_fallbacks"):
        into[key] = into.get(key, 0) + (frame.get(key) or 0)
    for key in ("placement", "codegen_tiers"):
        tally = into.setdefault(key, {})
        for k, v in (frame.get(key) or {}).items():
            tally[k] = tally.get(k, 0) + v


class _ShardConnection:
    """One multiplexed connection to a shard daemon: requests are
    re-numbered onto an internal id space, a reader thread resolves each
    response into its caller's future (responses arrive out of order),
    and the original request id is restored before the future resolves.

    Unlike :class:`~repro.serve.client.SocketClient` (sequential, one
    request in flight) this carries every in-flight request the router
    sends a shard, so concurrent routed requests and the control-plane
    fan-out share a single descriptor.
    """

    def __init__(self, path: str, *, connect_timeout: float = 5.0):
        import socket as socket_mod

        self.path = path
        self._sock = socket_mod.socket(
            socket_mod.AF_UNIX, socket_mod.SOCK_STREAM
        )
        self._sock.settimeout(connect_timeout)
        self._sock.connect(path)
        self._sock.settimeout(None)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")
        self._ids = itertools.count(1)
        self._pending: dict[int, tuple[Future, object]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-shard-read", daemon=True
        )
        self._reader.start()

    def submit(self, request: dict) -> "Future[dict]":
        future: "Future[dict]" = Future()
        with self._lock:
            if self._closed:
                raise ConnectionError(f"connection to {self.path} is closed")
            internal = next(self._ids)
            self._pending[internal] = (future, request.get("id"))
            line = json.dumps({**request, "id": internal})
            try:
                self._wfile.write(line + "\n")
                self._wfile.flush()
            except (OSError, ValueError):
                self._pending.pop(internal, None)
                raise ConnectionError(f"shard at {self.path} went away")
        return future

    def _read_loop(self) -> None:
        try:
            for line in self._rfile:
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    continue
                with self._lock:
                    entry = self._pending.pop(response.get("id"), None)
                if entry is not None:
                    future, original_id = entry
                    response["id"] = original_id
                    future.set_result(response)
        except (OSError, ValueError):
            pass
        finally:
            self._fail_pending(ConnectionError(f"shard at {self.path} closed"))

    def _fail_pending(self, exc: Exception) -> None:
        with self._lock:
            self._closed = True
            pending, self._pending = self._pending, {}
        for future, _ in pending.values():
            if not future.done():
                future.set_exception(exc)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def wait_idle(self, timeout: float) -> bool:
        """Poll until no request is in flight; ``False`` on timeout."""
        deadline = time.monotonic() + timeout
        while self.pending_count:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def close(self) -> None:
        with self._lock:
            self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


class LocalShard:
    """An in-process broker shard (deterministic; tests and regress)."""

    kind = "local"

    def __init__(self, index: int, broker_config: BrokerConfig):
        self.index = index
        self.shard_id = f"shard-{index}"
        self.config = broker_config
        self.broker: Broker | None = Broker(broker_config)
        #: Router-managed lifecycle state: ``up`` / ``draining`` / ``down``.
        self.state = "up"

    def try_submit(self, request: dict) -> "Future[dict] | None":
        broker = self.broker
        if broker is None:
            return None
        try:
            return broker.submit(request)
        except RuntimeError:  # pool already shut down under us
            return None

    def drain(self, timeout: float = 60.0) -> dict | None:
        """Stop taking requests, finish the in-flight ones and stop the
        broker; returns its last telemetry frame (``None`` if it was
        already stopped)."""
        broker, self.broker = self.broker, None
        if broker is None:
            return None
        broker.drain()
        return broker.telemetry_snapshot()

    def restart(self) -> None:
        """Rejoin with a fresh broker over the *same* cache directory —
        the disk tier is what carries the warm keys across the cycle."""
        self.broker = Broker(self.config)

    def stop(self, timeout: float = 60.0) -> None:
        self.drain(timeout)

    def telemetry(self, timeout: float = 5.0) -> dict | None:
        broker = self.broker
        return broker.telemetry_snapshot() if broker is not None else None

    def stats_snapshot(self, timeout: float = 5.0) -> dict | None:
        broker = self.broker
        return broker.stats() if broker is not None else None

    def trace_snapshot(self, request: dict, timeout: float = 5.0) -> dict | None:
        broker = self.broker
        return broker._handle_trace(request) if broker is not None else None


class ProcessShard:
    """A ``repro serve --socket`` daemon subprocess shard."""

    kind = "process"

    def __init__(
        self,
        index: int,
        broker_config: BrokerConfig,
        socket_dir: str,
        *,
        spawn_timeout_s: float = 30.0,
    ):
        self.index = index
        self.shard_id = f"shard-{index}"
        self.config = broker_config
        self.socket_path = os.path.join(socket_dir, f"shard-{index}.sock")
        self.spawn_timeout_s = spawn_timeout_s
        self._proc: subprocess.Popen | None = None
        self._conn: _ShardConnection | None = None
        self.state = "down"
        self.start()

    def _argv(self) -> list[str]:
        c = self.config
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            self.socket_path,
            "--workers",
            str(c.workers),
            "--queue-limit",
            str(c.queue_limit),
            "--deadline-ms",
            str(c.default_deadline_ms),
        ]
        if c.cache_dir is not None:
            argv += ["--cache-dir", c.cache_dir]
        if c.fleet:
            argv += ["--fleet", ",".join(c.fleet)]
        return argv

    def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        self._proc = subprocess.Popen(
            self._argv(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.monotonic() + self.spawn_timeout_s
        while not os.path.exists(self.socket_path):
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"shard {self.index} daemon exited with "
                    f"{self._proc.returncode} before listening"
                )
            if time.monotonic() >= deadline:
                self._proc.kill()
                raise TimeoutError(
                    f"shard {self.index} socket {self.socket_path} did not "
                    f"appear within {self.spawn_timeout_s}s"
                )
            time.sleep(0.02)
        self._conn = _ShardConnection(self.socket_path)
        self.state = "up"

    def try_submit(self, request: dict) -> "Future[dict] | None":
        conn = self._conn
        if conn is None:
            return None
        try:
            return conn.submit(request)
        except ConnectionError:
            return None

    def drain(self, timeout: float = 60.0) -> dict | None:
        """Wait out the in-flight requests on the data connection, read
        the daemon's last telemetry frame over it, then shut the daemon
        down over a fresh connection (a ``shutdown`` on the data
        connection would sever responses still being written).  Returns
        that frame, or ``None`` when the daemon could not answer."""
        conn, self._conn = self._conn, None
        frame = None
        if conn is not None:
            conn.wait_idle(timeout)
            frame = self._control(_WATCH_ONCE, 5.0, conn)
            conn.close()
        proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                with SocketClient(self.socket_path, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, ConnectionError):
                pass
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        return frame

    def restart(self) -> None:
        self.start()

    def stop(self, timeout: float = 60.0) -> None:
        self.drain(timeout)

    def _control(
        self, request: dict, timeout: float, conn: _ShardConnection | None = None
    ) -> dict | None:
        """A control-plane request's result over ``conn`` (default: the
        data connection); ``None`` on any failure."""
        conn = conn or self._conn
        if conn is None:
            return None
        try:
            response = conn.submit(request).result(timeout=timeout)
        except (TimeoutError, ConnectionError):
            return None
        return response.get("result") if response.get("ok") else None

    def telemetry(self, timeout: float = 5.0) -> dict | None:
        return self._control(_WATCH_ONCE, timeout)

    def stats_snapshot(self, timeout: float = 5.0) -> dict | None:
        return self._control({"op": "stats"}, timeout)

    def trace_snapshot(self, request: dict, timeout: float = 5.0) -> dict | None:
        return self._control({**request, "op": "trace"}, timeout)


class Router(FrontDoor):
    """The consistent-hash front end over the shard fleet.

    Shares the broker's front door (admission, rejection, answering and
    the ``submit`` / ``handle`` / ``drain`` surface); its own work is
    routing, failover, shard drains and the fan-out of ``stats``,
    ``trace`` and telemetry.  Rejections are flight-recorded here, so
    the router's ``trace`` op finds them before asking the shards.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        shards: "list | None" = None,
    ):
        self.config = config or ClusterConfig()
        if shards is None and self.config.shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if self.config.replication < 1:
            raise ValueError("replication must be >= 1")
        super().__init__(
            "cluster",
            workers=self.config.router_workers,
            queue_limit=self.config.queue_limit,
            flight_slow=self.config.broker.flight_slow,
            flight_errors=self.config.broker.flight_errors,
        )
        #: Directories the router made itself; :meth:`drain` removes them.
        self._temp_dirs: list[str] = []

        if shards is not None:
            self.shards = list(shards)
        elif self.config.process_shards:
            broker = self.config.broker
            if broker.cache_dir is None:
                # Without a shared disk namespace a restart would lose
                # every warm key; default one rather than degrade.
                broker = replace(
                    broker, cache_dir=self._temp_dir("repro-cluster-cache-")
                )
            socket_dir = self.config.socket_dir or self._temp_dir("repro-cluster-")
            self.shards = [
                ProcessShard(
                    i,
                    broker,
                    socket_dir,
                    spawn_timeout_s=self.config.spawn_timeout_s,
                )
                for i in range(self.config.shards)
            ]
        else:
            self.shards = [
                LocalShard(i, self.config.broker)
                for i in range(self.config.shards)
            ]

        self._quotas = (
            None
            if self.config.tenant_rate is None
            else TenantQuotas(self.config.tenant_rate, self.config.tenant_burst)
        )

        # Hot-key tracking: hit counts per routing key, with the top-K
        # set recomputed every _HOT_EVERY keyed requests.
        self._key_hits: dict[str, int] = {}
        self._hot_keys: frozenset[str] = frozenset()
        self._keyed_seen = 0

        # The drained shards' last counters (and requests served, per
        # shard index), so the frame's totals survive a restart.
        self._retired: dict = {}
        self._retired_requests: dict[int, int] = {}

        m = self.metrics
        self._failovers = m.counter(
            "cluster.failovers", "requests rerouted past an unavailable shard"
        )
        self._drains = m.counter("cluster.drains", "shard drains performed")
        self._restarts = m.counter(
            "cluster.restarts", "shards restarted after a drain"
        )
        self._shards_up = m.gauge("cluster.shards_up", "shards accepting load")
        self._shards_up.set(sum(1 for s in self.shards if s.state == "up"))
        for shard in self.shards:
            m.counter(
                f"cluster.routed.{shard.shard_id}",
                f"requests routed to {shard.shard_id}",
            )

    def _temp_dir(self, prefix: str) -> str:
        path = tempfile.mkdtemp(prefix=prefix)
        self._temp_dirs.append(path)
        return path

    def _admit(self, request: dict) -> None:
        """Charge a keyed request to its tenant's token bucket."""
        if (
            self._quotas is not None
            and request["op"] in KEYED_OPS
            and not self._quotas.try_acquire(request.get("tenant"))
        ):
            raise ServeError(
                protocol.QUOTA_EXCEEDED,
                f"tenant {request.get('tenant') or '(anonymous)'!s} is "
                f"over its admission quota "
                f"({self.config.tenant_rate}/s, burst "
                f"{self.config.tenant_burst}); retry with backoff",
            )

    def _dispatch(self, request: dict, trace_id: str, enqueue_t: float) -> dict:
        if request["op"] == "drain":
            return self._handle_drain(request)
        return self._route(request, trace_id)

    # -- routing -----------------------------------------------------------

    def _note_key(self, key: str) -> int:
        """Count a hit; recompute the hot set every ``_HOT_EVERY`` keyed
        requests.  Returns this key's cumulative hit count (which also
        drives replica rotation)."""
        with self._lock:
            hits = self._key_hits.get(key, 0) + 1
            self._key_hits[key] = hits
            self._keyed_seen += 1
            if len(self._key_hits) > 4096:
                # Bound the tracking map: keep the busiest quarter (the
                # cold tail restarts its counts, which only delays
                # hot-key promotion, never corrupts routing).
                keep = sorted(
                    self._key_hits.items(), key=lambda kv: -kv[1]
                )[:1024]
                self._key_hits = dict(keep)
            if (
                self._keyed_seen % _HOT_EVERY == 0
                or hits == HOT_KEY_MIN_HITS  # a key just became eligible
            ):
                eligible = [
                    (n, k)
                    for k, n in self._key_hits.items()
                    if n >= HOT_KEY_MIN_HITS
                ]
                eligible.sort(reverse=True)
                self._hot_keys = frozenset(
                    k for _, k in eligible[:HOT_KEY_COUNT]
                )
            return hits

    def _alive_in_rank_order(self, key: str) -> list:
        with self._lock:
            alive = {s.shard_id: s for s in self.shards if s.state == "up"}
        return [
            alive[shard_id] for shard_id in hashring.rank(key, list(alive))
        ]

    def _route(self, request: dict, trace_id: str) -> dict:
        request_id = request.get("id")
        key = routing_key(request)
        hits = self._note_key(key)
        wire = dict(request)
        wire["trace_id"] = trace_id
        order = self._alive_in_rank_order(key)
        if not order:
            return protocol.error_response(
                request_id,
                protocol.SHARD_UNAVAILABLE,
                "no shard is accepting requests (all draining or down)",
            )
        r = min(self.config.replication, len(order))
        if r > 1 and key in self._hot_keys:
            # Hot keys rotate over their replica set instead of pinning
            # to rank 0.
            rotation = hits % r
            order = [order[rotation]] + [
                s for i, s in enumerate(order) if i != rotation
            ]
        for shard in order:
            response = self._attempt(shard, wire)
            if response is not None:
                response = dict(response)
                response["shard"] = shard.index
                return response
            self._failovers.inc()
        return protocol.error_response(
            request_id,
            protocol.SHARD_UNAVAILABLE,
            f"all {len(order)} candidate shards for this key are "
            f"unavailable; retry later",
        )

    def _attempt(self, shard, wire: dict) -> dict | None:
        """Send ``wire`` to ``shard`` and return its answer, however
        long it takes (the shard's deadline rule bounds it).  ``None``
        when the shard is gone or leaving — the submit is refused, the
        transport dies, or it answers ``shutting_down`` — and the
        request should fail over to the next rank."""
        future = shard.try_submit(wire)
        if future is None:
            return None
        self.metrics.counter(f"cluster.routed.{shard.shard_id}").inc()
        try:
            response = future.result()
        except ConnectionError:
            return None
        if (
            not response.get("ok")
            and response.get("error", {}).get("code") == protocol.SHUTTING_DOWN
        ):
            return None  # raced a drain
        return response

    # -- control plane -----------------------------------------------------

    def drain_shard(self, index: int, *, restart: bool = False) -> dict:
        """Drain (and optionally restart) one shard; the public API
        behind the ``drain`` op and ``repro cluster-drain``."""
        response = self.handle(
            {"op": "drain", "shard": index, "restart": restart}
        )
        from ..errors import raise_for_response

        return raise_for_response(response)

    def _handle_drain(self, request: dict) -> dict:
        request_id = request.get("id")
        index = request["shard"]
        restart = bool(request.get("restart", False))
        if not 0 <= index < len(self.shards):
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                f"no shard {index}: this cluster has shards "
                f"0..{len(self.shards) - 1}",
            )
        shard = self.shards[index]
        with self._lock:
            if shard.state != "up":
                return protocol.error_response(
                    request_id,
                    protocol.BAD_REQUEST,
                    f"shard {index} is {shard.state}, not up",
                )
            up = sum(1 for s in self.shards if s.state == "up")
            if up <= 1 and not restart:
                return protocol.error_response(
                    request_id,
                    protocol.BAD_REQUEST,
                    "cannot drain the last live shard without restart "
                    "(use the shutdown op to stop the cluster)",
                )
            shard.state = "draining"
            self._shards_up.set(up - 1)
        self._drains.inc()
        t0 = time.monotonic()
        self._retire(shard.index, shard.drain())
        shard.state = "down"
        if restart:
            shard.restart()
            with self._lock:
                shard.state = "up"
                self._shards_up.set(
                    sum(1 for s in self.shards if s.state == "up")
                )
            self._restarts.inc()
        return protocol.ok_response(
            request_id,
            {
                "shard": index,
                "state": shard.state,
                "restarted": restart,
                "drain_ms": round((time.monotonic() - t0) * 1000.0, 3),
            },
        )

    def _retire(self, index: int, frame: dict | None) -> None:
        """Fold a drained shard's last telemetry frame into the totals
        the router keeps (a restarted shard counts from zero again)."""
        if frame is None:
            return
        with self._lock:
            _add_counts(self._retired, frame)
            self._retired_requests[index] = self._retired_requests.get(
                index, 0
            ) + _client_requests(frame)

    def _handle_trace(self, request: dict) -> dict:
        """Fan the ``trace`` op out to the shards: a specific
        ``trace_id`` answers from the router's own recorder when the
        router refused that request, else from the first shard that
        retains it (the router propagates its trace id downstream, so the
        record lives wherever the request ran); without one, a per-shard
        snapshot."""
        wanted = request.get("trace_id")
        if wanted and self.flight.get(wanted) is not None:
            return super()._handle_trace(request)
        snapshots = []
        for shard in self.shards:
            if shard.state != "up":
                continue
            out = shard.trace_snapshot(dict(request))
            if out is None:
                continue
            if wanted and out.get("found"):
                out = dict(out)
                out["shard"] = shard.index
                return out
            if not wanted:
                snapshots.append({"shard": shard.index, **out})
        if wanted:
            return {"trace_id": wanted, "found": False, "record": None}
        return {"shards": snapshots}

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The cluster-wide ``stats`` payload: router config + metrics,
        plus each live shard's own stats document."""
        shard_stats = []
        for shard in self.shards:
            entry: dict = {
                "shard": shard.index,
                "id": shard.shard_id,
                "kind": shard.kind,
                "state": shard.state,
            }
            if shard.state == "up":
                snapshot = shard.stats_snapshot()
                if snapshot is not None:
                    entry["stats"] = snapshot
            shard_stats.append(entry)
        out: dict = {
            "router": {
                "shards": len(self.shards),
                "up": sum(1 for s in self.shards if s.state == "up"),
                "replication": self.config.replication,
                "pending": self.pending,
                "stopping": self._stopping,
                "hot_keys": len(self._hot_keys),
                "process_shards": any(
                    s.kind == "process" for s in self.shards
                ),
            },
            "metrics": self.metrics.as_dict(),
            "shards": shard_stats,
        }
        if self._quotas is not None:
            out["router"]["quotas"] = self._quotas.snapshot()
        return out

    def _frame(self) -> dict:
        """The router's telemetry fields, shaped like the broker's (so
        ``repro top`` renders a router unchanged) plus a ``cluster``
        stanza and per-shard rollup rows.  The cumulative counters add
        the drained shards' retired totals to the live shards' frames."""
        value = self._value
        frames = [
            (shard, shard.telemetry(timeout=2.0) if shard.state == "up" else None)
            for shard in self.shards
        ]
        live = [f for _, f in frames if f is not None]
        totals: dict = {}
        with self._lock:
            _add_counts(totals, self._retired)
            retired_requests = dict(self._retired_requests)
        for f in live:
            _add_counts(totals, f)

        def mean_rate(key: str) -> float | None:
            values = [(f.get("cache") or {}).get(key) for f in live]
            values = [v for v in values if v is not None]
            return round(sum(values) / len(values), 4) if values else None

        shard_rows = []
        for shard, frame in frames:
            row: dict = {
                "shard": shard.index,
                "state": shard.state,
                "routed": value(f"cluster.routed.{shard.shard_id}"),
                "requests_total": retired_requests.get(shard.index, 0)
                + _client_requests(frame or {}),
            }
            if frame is not None:
                cache = frame.get("cache") or {}
                row.update(
                    queue_depth=frame.get("queue_depth", 0),
                    memory_hit_rate=cache.get("memory_hit_rate"),
                    disk_hit_rate=cache.get("disk_hit_rate"),
                )
            shard_rows.append(row)
        return {
            "workers": sum(
                s.config.workers for s in self.shards if s.state == "up"
            ),
            "deadline_exceeded": number(totals["deadline_exceeded"]),
            "scalar_fallbacks": number(totals["scalar_fallbacks"]),
            # Mean across live shards (rates cannot be exactly merged
            # without raw hit/miss counts; per-shard exact rates are in
            # the rollup rows below).
            "cache": {
                key: mean_rate(key)
                for key in ("memory_hit_rate", "disk_hit_rate", "fnobj_hit_rate")
            },
            "placement": totals["placement"],
            "codegen_tiers": totals["codegen_tiers"],
            # The live shards' records (a drained shard's are gone) plus
            # the router's own (its refusals).
            "flight_recorded": number(
                sum(f.get("flight_recorded") or 0 for f in live)
            )
            + self.flight.recorded,
            "cluster": {
                "shards": len(self.shards),
                "up": sum(1 for s in self.shards if s.state == "up"),
                "replication": self.config.replication,
                "hot_keys": len(self._hot_keys),
                "failovers": value("cluster.failovers"),
                "quota_rejected": value("cluster.rejected.quota_exceeded"),
                "drains": value("cluster.drains"),
                "restarts": value("cluster.restarts"),
            },
            "shards": shard_rows,
        }

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting, answer everything in flight, stop the shards,
        then remove the directories the router made (a socket or cache
        directory the caller configured stays).  A shard that fails to
        stop (its process gone or not exiting) is counted under
        ``cluster.shard_stop_errors.<type>``, a directory that cannot be
        removed under ``cluster.temp_dir_errors.<type>``, and the drain
        goes on."""
        super().drain()
        for shard in self.shards:
            if shard.state == "up":
                shard.state = "draining"
                try:
                    shard.stop()
                except (OSError, subprocess.TimeoutExpired) as exc:
                    self._count("shard_stop_errors", type(exc).__name__)
                shard.state = "down"
        self._shards_up.set(0)
        while self._temp_dirs:
            try:
                shutil.rmtree(self._temp_dirs.pop())
            except OSError as exc:
                self._count("temp_dir_errors", type(exc).__name__)


def run_cluster(config: ClusterConfig, socket_path: str | None = None) -> int:
    """Construct a router from ``config`` and serve stdin/stdout (or the
    unix socket at ``socket_path``) — the ``repro serve --shards N``
    entry point."""
    from .daemon import serve_loop, serve_socket

    router = Router(config)
    cache = config.broker.cache_dir
    if cache is None and router.shards and router.shards[0].kind == "process":
        cache = router.shards[0].config.cache_dir
    print(
        f"repro serve: cluster router over {len(router.shards)} "
        f"{'process' if config.process_shards else 'in-process'} shards, "
        f"replication {config.replication}, cache dir "
        f"{cache or '(memory only)'}",
        file=sys.stderr,
    )
    if socket_path is not None:
        return serve_socket(router, socket_path)
    return serve_loop(router)
