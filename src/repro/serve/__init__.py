"""The compile-and-run service: a long-running daemon over compiler
sessions.

* :mod:`repro.serve.protocol` — the JSON-lines request/response schemas
  and error codes;
* :mod:`repro.serve.frontdoor` — the front door both serving tiers
  subclass: one admission path (validation, trace id, quota hook,
  draining, bounded capacity), counted and flight-recorded rejections,
  one exception → wire-code table, and the ``submit`` / ``handle`` /
  ``drain`` surface;
* :mod:`repro.serve.broker` — the single-process tier: a worker pool of
  per-worker :class:`~repro.compiler.session.CompilerSession` objects
  sharing one metrics registry and one persistent disk cache, per-request
  deadlines, one answer per failed request (no retries), and graceful
  degradation to the scalar executor;
* :mod:`repro.serve.placement` — the fleet placement policy: route each
  request to the modeled-best (arch, config) pair across the broker's
  configured device fleet;
* :mod:`repro.serve.daemon` — the stdin/stdout loop behind
  ``repro serve`` (and the in-process path behind ``repro submit``),
  plus the unix-domain-socket front end (``repro serve --socket``) and
  the daemon-side ``watch`` telemetry streaming;
* :mod:`repro.serve.client` — the socket client the live tools
  (``repro top``, ``repro serve-trace``, ``repro loadgen --socket``)
  connect with;
* :mod:`repro.serve.cluster` — the sharded tier behind ``repro serve
  --shards N``: a consistent-hash router (the front door's other
  subclass) over N broker shards with
  hot-key replication, hedged retries, per-tenant quotas and graceful
  drain/restart (:mod:`repro.serve.hashring` provides the rendezvous
  hashing, :mod:`repro.serve.quota` the token buckets — see
  ``docs/sharding.md``).

See ``docs/serving.md`` for the protocol reference and the disk-cache
layout, and ``docs/architecture.md`` for where this layer sits.
"""

from .broker import Broker, BrokerConfig
from .client import SocketClient
from .cluster import ClusterConfig, Router, routing_key, run_cluster
from .daemon import SocketServer, run_daemon, serve_loop, serve_socket
from .frontdoor import FrontDoor
from .placement import PlacementCandidate, PlacementDecision, choose_placement
from .protocol import ServeError, error_response, ok_response, validate_request

__all__ = [
    "Broker",
    "BrokerConfig",
    "ClusterConfig",
    "FrontDoor",
    "PlacementCandidate",
    "PlacementDecision",
    "Router",
    "ServeError",
    "SocketClient",
    "SocketServer",
    "choose_placement",
    "error_response",
    "ok_response",
    "routing_key",
    "run_cluster",
    "run_daemon",
    "serve_loop",
    "serve_socket",
    "validate_request",
]
