"""The compile-service wire protocol: JSON-lines requests and responses.

One request per line on stdin, one response per line on stdout (see
``docs/serving.md`` for the full schemas).  Responses carry the request's
``id`` and may arrive out of order — the broker answers requests as its
workers finish them.

Request envelope::

    {"id": <any JSON value>,
     "op": "compile" | "run" | "tune" | "stats" | "trace" | "watch"
           | "drain" | "shutdown",
     "trace_id": "<optional client-chosen correlation id>",
     "tenant": "<optional tenant name for admission quotas>",
     ...op-specific fields...}

Response envelope::

    {"id": ..., "ok": true,  "trace_id": "...", "result": {...}}
    {"id": ..., "ok": false, "trace_id": "...",
     "error": {"code": "...", "message": "...", "retryable": true|false}}

Every response carries a ``trace_id`` — the client-supplied one when the
request had a valid ``trace_id`` field, otherwise one the broker
generates at admission.  The same id tags every span the request emits
(queue wait, placement, compile, execute), keys the flight recorder
(:mod:`repro.obs.flight`), and is the argument of the ``trace`` op — so
one id correlates a slow response with its full span tree after the
fact.

``retryable`` tells clients whether resubmitting the identical request
can succeed: ``queue_full``, ``deadline_exceeded``, ``quota_exceeded``
and ``shard_unavailable`` are backpressure (retry later, ideally with
backoff); ``parse_error`` / ``bad_request`` / ``compile_error`` are
permanent — the request itself is wrong.

Every error code maps 1:1 onto an exception type in :mod:`repro.errors`
(:func:`repro.errors.error_for` / :func:`repro.errors.code_for`), so a
client that calls :func:`repro.errors.raise_for_response` on a failed
response raises the same exception type the in-process API would have.
"""

from __future__ import annotations

import uuid
from typing import Any

from ..errors import ReproError

# -- error codes -------------------------------------------------------------

#: The request line was not valid JSON, or not a JSON object.
BAD_JSON = "bad_json"
#: The request object is malformed (unknown op, missing/mistyped field).
BAD_REQUEST = "bad_request"
#: The named compiler configuration does not exist.
UNKNOWN_CONFIG = "unknown_config"
#: The named GPU architecture profile is not registered (permanent: the
#: client must pick a profile from the server's registry/fleet).
UNKNOWN_ARCH = "unknown_arch"
#: The MiniACC source failed to parse or lower (permanent).
PARSE_ERROR = "parse_error"
#: The admission queue is full — the 429 of this protocol (retry later).
QUEUE_FULL = "queue_full"
#: The per-request deadline passed before a result was produced.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: The compile failed permanently (deterministic failure; do not retry).
COMPILE_ERROR = "compile_error"
#: Functional execution failed (bad env bindings, runtime error).
EXECUTION_ERROR = "execution_error"
#: The autotuner failed (unknown strategy, empty space, un-timeable kernel).
TUNE_ERROR = "tune_error"
#: The timing model cannot be evaluated under the request's ``env`` (a
#: trip count depends on a binding it lacks).  Permanent for that env;
#: the compile itself succeeded and is cached.
TIMING_UNAVAILABLE = "timing_unavailable"
#: The daemon is draining after a shutdown request.
SHUTTING_DOWN = "shutting_down"
#: The tenant's token bucket is empty — per-tenant admission throttling
#: (the router's 429; retry after the bucket refills).
QUOTA_EXCEEDED = "quota_exceeded"
#: No shard could take the request (all candidates draining, down, or
#: unreachable).  Retryable: shards rejoin after drain/restart.
SHARD_UNAVAILABLE = "shard_unavailable"
#: An unexpected failure inside the service itself (a bug; not retryable).
INTERNAL = "internal"

#: Codes whose requests may succeed if resubmitted later.
RETRYABLE_CODES = frozenset(
    {
        QUEUE_FULL,
        DEADLINE_EXCEEDED,
        QUOTA_EXCEEDED,
        SHARD_UNAVAILABLE,
    }
)

VALID_OPS = (
    "compile",
    "run",
    "tune",
    "stats",
    "trace",
    "watch",
    "drain",
    "shutdown",
)

#: Longest accepted client-supplied ``trace_id`` (keeps log lines and
#: flight-recorder keys bounded).
MAX_TRACE_ID_LEN = 128

#: Longest accepted ``tenant`` name (keys token buckets and metric
#: labels; bounded for the same reason as trace ids).
MAX_TENANT_LEN = 64


class ServeError(ReproError):
    """A structured protocol failure, rendered as an error response."""

    def __init__(self, code: str, message: str, *, retryable: bool | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retryable = (
            retryable if retryable is not None else code in RETRYABLE_CODES
        )


def trace_id_for(request: Any) -> str:
    """The request's correlation id: the client's ``trace_id`` when
    present and well-formed, else a freshly generated one (also for
    rejections — every response is correlatable)."""
    supplied = request.get("trace_id") if isinstance(request, dict) else None
    if isinstance(supplied, str) and 0 < len(supplied) <= MAX_TRACE_ID_LEN:
        return supplied
    return uuid.uuid4().hex[:16]


def validate_request(obj: Any) -> dict:
    """Check the envelope and op-specific required fields; returns ``obj``.

    Raises :class:`ServeError` (``bad_request``) on any violation — field
    *values* (config names, env bindings) are validated by the handlers,
    which own the relevant namespaces.
    """
    if not isinstance(obj, dict):
        raise ServeError(BAD_REQUEST, "request must be a JSON object")
    op = obj.get("op")
    if op not in VALID_OPS:
        raise ServeError(
            BAD_REQUEST, f"unknown op {op!r}; expected one of {VALID_OPS}"
        )
    trace_id = obj.get("trace_id")
    if trace_id is not None and (
        not isinstance(trace_id, str)
        or not trace_id
        or len(trace_id) > MAX_TRACE_ID_LEN
    ):
        raise ServeError(
            BAD_REQUEST,
            f"'trace_id' must be a non-empty string of at most "
            f"{MAX_TRACE_ID_LEN} characters",
        )
    tenant = obj.get("tenant")
    if tenant is not None and (
        not isinstance(tenant, str)
        or not tenant
        or len(tenant) > MAX_TENANT_LEN
    ):
        raise ServeError(
            BAD_REQUEST,
            f"'tenant' must be a non-empty string of at most "
            f"{MAX_TENANT_LEN} characters",
        )
    if op == "trace":
        # Optional narrowing to one retained trace; optional Perfetto doc.
        if "perfetto" in obj and not isinstance(obj["perfetto"], bool):
            raise ServeError(BAD_REQUEST, "'perfetto' must be a boolean")
    if op == "drain":
        shard = obj.get("shard")
        if not isinstance(shard, int) or isinstance(shard, bool) or shard < 0:
            raise ServeError(
                BAD_REQUEST, "op 'drain' needs a non-negative 'shard' integer"
            )
        if "restart" in obj and not isinstance(obj["restart"], bool):
            raise ServeError(BAD_REQUEST, "'restart' must be a boolean")
    if op == "watch":
        interval_ms = obj.get("interval_ms")
        if interval_ms is not None and (
            not isinstance(interval_ms, (int, float))
            or isinstance(interval_ms, bool)
            or interval_ms <= 0
        ):
            raise ServeError(
                BAD_REQUEST, "'interval_ms' must be a positive number"
            )
        count = obj.get("count")
        if count is not None and (
            not isinstance(count, int) or isinstance(count, bool) or count < 1
        ):
            raise ServeError(BAD_REQUEST, "'count' must be a positive integer")
    if op in ("compile", "run", "tune"):
        source = obj.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ServeError(BAD_REQUEST, f"op {op!r} needs a 'source' string")
        arch = obj.get("arch")
        if arch is not None and not isinstance(arch, str):
            raise ServeError(
                BAD_REQUEST, "'arch' must be a profile-name string"
            )
        saturate = obj.get("saturate")
        if saturate is not None and not isinstance(saturate, bool):
            raise ServeError(BAD_REQUEST, "'saturate' must be a boolean")
    if op == "tune":
        env = obj.get("env")
        if not isinstance(env, dict) or not env:
            raise ServeError(
                BAD_REQUEST,
                "op 'tune' needs a non-empty 'env' (the timing model "
                "evaluates trip counts at a concrete problem size)",
            )
        strategy = obj.get("strategy")
        if strategy is not None and not isinstance(strategy, str):
            raise ServeError(BAD_REQUEST, "'strategy' must be a string")
        budget = obj.get("budget")
        if budget is not None and (
            not isinstance(budget, int)
            or isinstance(budget, bool)
            or budget < 1
        ):
            raise ServeError(BAD_REQUEST, "'budget' must be a positive integer")
        launches = obj.get("launches")
        if launches is not None and (
            not isinstance(launches, int)
            or isinstance(launches, bool)
            or launches < 1
        ):
            raise ServeError(
                BAD_REQUEST, "'launches' must be a positive integer"
            )
    env = obj.get("env")
    if env is not None:
        if not isinstance(env, dict) or not all(
            isinstance(k, str) and isinstance(v, (int, float))
            for k, v in env.items()
        ):
            raise ServeError(
                BAD_REQUEST, "'env' must map names to numeric values"
            )
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None and (
        not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
    ):
        raise ServeError(BAD_REQUEST, "'deadline_ms' must be a positive number")
    return obj


def ok_response(
    request_id: Any, result: dict, *, trace_id: str | None = None
) -> dict:
    out: dict = {"id": request_id, "ok": True, "result": result}
    if trace_id is not None:
        out["trace_id"] = trace_id
    return out


def error_response(
    request_id: Any,
    code: str,
    message: str,
    *,
    retryable: bool | None = None,
    trace_id: str | None = None,
) -> dict:
    out: dict = {
        "id": request_id,
        "ok": False,
        "error": {
            "code": code,
            "message": message,
            "retryable": (
                retryable if retryable is not None else code in RETRYABLE_CODES
            ),
        },
    }
    if trace_id is not None:
        out["trace_id"] = trace_id
    return out
