"""The unified exception hierarchy: every failure the toolchain can
raise, under one base class, mapped 1:1 onto the serve protocol's error
codes.

Four generations of entrypoints accreted four error families — front-end
diagnostics (:mod:`repro.lang.errors`), feedback-loop failures
(:mod:`repro.feedback.driver`), cache misuse, and protocol errors
(:mod:`repro.serve.protocol`).  They all now descend from
:class:`ReproError`, so ``except ReproError`` catches any toolchain
failure while the specific types keep their historical meaning (and, for
:class:`CacheError`, their historical ``ValueError`` compatibility).

The protocol mapping is bidirectional:

* :func:`code_for` — the wire error code for an exception (what the
  broker puts in an error response);
* :func:`error_for` — the exception type for a wire error code (what a
  client raises from an error response);
* :func:`raise_for_response` — the client helper: returns the ``result``
  of an ok response, raises the mapped exception otherwise.  ``repro
  submit`` failures therefore round-trip to the *same* exception types
  the server-side compile would have raised.

This module is intentionally a leaf: it imports no subpackage at module
level (the front end and feedback driver import *it* for their base
classes).  Re-exports of the subsystem-owned types are resolved lazily
via :pep:`562` ``__getattr__``.
"""

from __future__ import annotations

import importlib


class ReproError(Exception):
    """Base class of every error raised by the repro toolchain."""


class CacheError(ReproError, ValueError):
    """Cache misuse: a malformed content-hash key or invalid bound.

    Subclasses :class:`ValueError` for backward compatibility with the
    historical ``raise ValueError`` sites in the cache layer.
    """


class ConfigError(ReproError, ValueError):
    """An invalid compiler-configuration request (e.g. an unknown field
    passed to :meth:`~repro.compiler.options.CompilerConfig.derive`)."""


class TimingUnavailable(ReproError, ValueError):
    """The timing model cannot be evaluated under the given env: a loop's
    trip count (or the launch's thread count) depends on a binding the
    env does not supply.

    Subclasses :class:`ValueError`, which these sites raised before.
    """


class TuneError(ReproError):
    """The autotuner was asked something impossible (unknown strategy,
    empty knob space, un-timeable kernel)."""


# -- client-side protocol errors ---------------------------------------------
#
# Server-side failures that have no natural library exception (the queue
# was full, the daemon is draining) get dedicated types here so a wire
# error code always maps to exactly one exception class.


class ProtocolError(ReproError):
    """Base of the serve-protocol failures; carries the wire code."""

    #: The serve protocol error code this exception maps onto.
    code: str = "internal"
    #: Whether resubmitting the identical request can succeed.
    retryable: bool = False


class BadRequestError(ProtocolError):
    """The request line or envelope is malformed (``bad_json`` /
    ``bad_request``)."""

    code = "bad_request"


class UnknownConfigError(ProtocolError):
    """The named compiler configuration does not exist."""

    code = "unknown_config"


class UnknownArchError(ProtocolError):
    """The named GPU architecture profile is not registered (neither in
    the server's :data:`repro.gpu.arch.ARCHES` registry nor its fleet).

    Not retryable: resubmitting the identical request cannot succeed —
    the client must pick a profile from the server's advertised list.
    """

    code = "unknown_arch"


class QueueFullError(ProtocolError):
    """The admission queue is full — the 429 of the protocol."""

    code = "queue_full"
    retryable = True


class CompileFailedError(ProtocolError):
    """The compile failed deterministically (``compile_error``)."""

    code = "compile_error"


class ExecutionFailedError(ProtocolError):
    """Functional execution failed (``execution_error``)."""

    code = "execution_error"


class QuotaExceededError(ProtocolError):
    """The tenant's admission token bucket is empty (``quota_exceeded``).

    Retryable: the bucket refills at the configured per-tenant rate, so
    the identical request succeeds once the client backs off.
    """

    code = "quota_exceeded"
    retryable = True


class ShardUnavailableError(ProtocolError):
    """No shard could take the request (``shard_unavailable``).

    Raised by the cluster router when every candidate shard for the
    request's key is draining, down, or unreachable.  Retryable: shards
    rejoin after a drain/restart cycle.
    """

    code = "shard_unavailable"
    retryable = True


class ShuttingDownError(ProtocolError):
    """The daemon is draining after a shutdown request."""

    code = "shutting_down"


class InternalServiceError(ProtocolError):
    """An unexpected failure inside the service itself (a bug)."""

    code = "internal"


#: Names owned by other subsystems, re-exported here lazily (a direct
#: import would cycle: those modules import :class:`ReproError` from us).
_REEXPORTS = {
    # front-end diagnostics
    "MiniAccError": "repro.lang.errors",
    "LexError": "repro.lang.errors",
    "ParseError": "repro.lang.errors",
    "DirectiveError": "repro.lang.errors",
    "SemanticError": "repro.lang.errors",
    # the feedback loop's deadline
    "FeedbackTimeout": "repro.feedback.driver",
    # structured protocol failure (server side)
    "ServeError": "repro.serve.protocol",
}

__all__ = [
    "ReproError",
    "CacheError",
    "ConfigError",
    "TimingUnavailable",
    "TuneError",
    "ProtocolError",
    "BadRequestError",
    "UnknownArchError",
    "UnknownConfigError",
    "QueueFullError",
    "CompileFailedError",
    "ExecutionFailedError",
    "QuotaExceededError",
    "ShardUnavailableError",
    "ShuttingDownError",
    "InternalServiceError",
    "code_for",
    "error_for",
    "raise_for_response",
    *_REEXPORTS,
]


def __getattr__(name: str):
    module = _REEXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_REEXPORTS))


# -- wire-code mapping -------------------------------------------------------


def _code_map() -> dict[str, type]:
    """Wire error code → exception class, built lazily (the lang and
    feedback types live behind the re-export indirection)."""
    lang = importlib.import_module("repro.lang.errors")
    feedback = importlib.import_module("repro.feedback.driver")
    return {
        "bad_json": BadRequestError,
        "bad_request": BadRequestError,
        "unknown_config": UnknownConfigError,
        "unknown_arch": UnknownArchError,
        "parse_error": lang.MiniAccError,
        "queue_full": QueueFullError,
        "deadline_exceeded": feedback.FeedbackTimeout,
        "compile_error": CompileFailedError,
        "execution_error": ExecutionFailedError,
        "tune_error": TuneError,
        "timing_unavailable": TimingUnavailable,
        "quota_exceeded": QuotaExceededError,
        "shard_unavailable": ShardUnavailableError,
        "shutting_down": ShuttingDownError,
        "internal": InternalServiceError,
    }


def error_for(code: str, message: str) -> ReproError:
    """The exception instance for a wire error code (unknown codes map to
    :class:`InternalServiceError` so clients never crash on a newer
    server).  ``str()`` of the result is ``message`` unchanged."""
    cls = _code_map().get(code, InternalServiceError)
    return getattr(cls, "from_wire", cls)(message)


def code_for(exc: BaseException) -> str:
    """The wire error code for an exception (the inverse of
    :func:`error_for`; unknown exceptions are ``internal``)."""
    if isinstance(exc, ProtocolError):
        return exc.code
    for code, cls in _code_map().items():
        if type(exc) is cls:
            return code
    # Walk the map again accepting subclasses, most specific first by
    # MRO distance, so e.g. a LexError still maps to parse_error.
    best: tuple[int, str] | None = None
    for code, cls in _code_map().items():
        if isinstance(exc, cls):
            try:
                depth = type(exc).__mro__.index(cls)
            except ValueError:  # pragma: no cover - defensive
                depth = len(type(exc).__mro__)
            if best is None or depth < best[0]:
                best = (depth, code)
    return best[1] if best else "internal"


def raise_for_response(response: dict) -> dict:
    """Client helper over a protocol response: return ``result`` when the
    response is ok, raise the mapped exception otherwise.

    The raised exception carries the response's ``retryable`` verdict as
    a ``retryable`` attribute, so callers can implement backoff without
    re-consulting the code table.
    """
    if not isinstance(response, dict) or "ok" not in response:
        raise BadRequestError(f"not a protocol response: {response!r}")
    if response["ok"]:
        return response.get("result", {})
    error = response.get("error") or {}
    exc = error_for(error.get("code", "internal"), error.get("message", ""))
    exc.retryable = bool(error.get("retryable", False))
    raise exc
