"""The front door both serving tiers share: admission, rejection and
answering (see ``docs/serving.md``, "Admission").

:class:`~repro.serve.broker.Broker` (one process, a worker pool over
compiler sessions) and :class:`~repro.serve.cluster.Router` (a
consistent-hash router over broker shards) both subclass
:class:`FrontDoor`.  It validates, assigns the ``trace_id``, counts,
runs the tier's :meth:`FrontDoor._admit` check, bounds the requests in
flight, counts and flight-records every refusal, answers the control
ops every tier answers alike, maps whatever a handler raises through one
exception → wire-code table, and builds the common fields of a
telemetry frame.  A tier supplies :meth:`FrontDoor._dispatch` (the keyed
ops and ``drain``), ``stats`` and :meth:`FrontDoor._frame`.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ..errors import ReproError, code_for
from ..obs.flight import FlightRecorder, RequestRecord, to_chrome
from ..obs.metrics import Counter, MetricsRegistry
from . import protocol
from .protocol import ServeError

#: The wire code of a failure the table has no specific code for, by op
#: (control ops answer ``internal``).
FAILURE_CODES = {
    "compile": protocol.COMPILE_ERROR,
    "run": protocol.EXECUTION_ERROR,
    "tune": protocol.TUNE_ERROR,
}

#: Ops with an admission → response latency histogram, registered
#: eagerly so the telemetry surface is stable from request zero.
TIMED_OPS = ("compile", "run", "tune", "stats")

_log = logging.getLogger(__name__)


def number(value: float) -> int | float:
    """A metric value for a telemetry frame: whole numbers as ``int``."""
    return int(value) if value == int(value) else round(value, 4)


def _resolved(response: dict) -> "Future[dict]":
    future: "Future[dict]" = Future()
    future.set_result(response)
    return future


class FrontDoor:
    """Bounded admission and uniform answering for one serving tier.

    ``tier`` is the metric prefix (``serve`` for the broker, ``cluster``
    for the router); at most ``workers + queue_limit`` requests are in
    flight, ``workers`` of them on the pool's threads.
    """

    def __init__(
        self,
        tier: str,
        *,
        workers: int,
        queue_limit: int,
        flight_slow: int,
        flight_errors: int,
    ):
        self.metrics = MetricsRegistry()
        #: Retains the N slowest and the recent errored requests (with
        #: their span trees where the tier traces) for the ``trace`` op.
        self.flight = FlightRecorder(max_slow=flight_slow, max_errors=flight_errors)
        self._tier = tier
        self._queue_limit = queue_limit
        self._capacity = workers + queue_limit
        self._lock = threading.Lock()
        self._pending = 0
        self._stopping = False
        self._started = time.monotonic()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"repro-{tier}"
        )
        m = self.metrics
        self._queue_depth = m.gauge(
            f"{tier}.queue_depth", "requests admitted and not yet answered"
        )
        self._rejected = m.counter(
            f"{tier}.rejected",
            f"requests refused at admission (by code: {tier}.rejected.<code>)",
        )
        #: ``<tier>.requests.<op>`` counters by op, registered on an op's
        #: first valid request (admitted or not).
        self._requests: dict[str, Counter] = {}
        self._latency = {
            op: m.log_histogram(
                f"{tier}.latency_ms.{op}",
                help=f"admission → response latency of {op} requests",
            )
            for op in TIMED_OPS
        }

    # -- admission ---------------------------------------------------------

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def submit(self, request: dict) -> "Future[dict]":
        """Admit a request; always returns a future resolving to a
        response dict (rejections resolve immediately)."""
        trace_id = protocol.trace_id_for(request)
        try:
            protocol.validate_request(request)
            requests = self._requests_of(request["op"])
            self._admit(request)
        except ServeError as exc:
            return _resolved(self._reject(request, exc.code, exc.message, trace_id))
        with self._lock:
            if self._stopping:
                refusal = (
                    protocol.SHUTTING_DOWN,
                    f"{type(self).__name__.lower()} is draining; resubmit "
                    f"to the next instance",
                )
            elif self._pending >= self._capacity:
                refusal = (
                    protocol.QUEUE_FULL,
                    f"admission queue full ({self._pending} in flight, "
                    f"capacity {self._capacity}); retry later",
                )
            else:
                refusal = None
                self._pending += 1
                self._queue_depth.set(self._pending)
        if refusal is not None:
            return _resolved(self._reject(request, *refusal, trace_id))
        requests.inc()
        return self._pool.submit(self._process, request, time.monotonic(), trace_id)

    def handle(self, request: dict) -> dict:
        """Synchronous convenience: submit and wait (the one-shot client)."""
        return self.submit(request).result()

    def admit_stream(self, request) -> tuple[str, dict | None]:
        """Admit a request its caller answers itself as a stream (the
        daemon's ``watch``, which must not hold a pool thread): validate
        it, count it under ``<tier>.requests.<op>``, and flight-record a
        refusal.  Returns the trace id and, when refused, the error
        response to send instead."""
        trace_id = protocol.trace_id_for(request)
        try:
            protocol.validate_request(request)
        except ServeError as exc:
            return trace_id, self._reject(request, exc.code, exc.message, trace_id)
        self._requests_of(request["op"]).inc()
        return trace_id, None

    def reject_line(self, message: str) -> dict:
        """Refuse a request line that is not JSON (``bad_json``), counted
        and flight-recorded like every refusal; returns the response."""
        trace_id = protocol.trace_id_for(None)
        return self._reject(None, protocol.BAD_JSON, message, trace_id)

    def _requests_of(self, op: str) -> Counter:
        counter = self._requests.get(op)
        if counter is None:
            counter = self._requests[op] = self.metrics.counter(
                f"{self._tier}.requests.{op}", f"admitted {op} requests"
            )
        return counter

    def _admit(self, request: dict) -> None:
        """The tier's own admission check on a valid request; raises
        :class:`ServeError` to refuse it."""

    def _reject(self, request, code: str, message: str, trace_id: str) -> dict:
        """Count and flight-record a refusal; returns its error response.
        The record is spanless: the request never reached a worker."""
        self._count("rejected", code)
        self.flight.record(
            RequestRecord(
                trace_id=trace_id,
                op="(rejected)",
                ok=False,
                duration_ms=0.0,
                error_code=code,
            )
        )
        request_id = request.get("id") if isinstance(request, dict) else None
        return protocol.error_response(request_id, code, message, trace_id=trace_id)

    # -- answering ---------------------------------------------------------

    def _process(self, request: dict, enqueue_t: float, trace_id: str) -> dict:
        """Answer one admitted request (on a pool thread)."""
        op = request["op"]
        request_id = request.get("id")
        try:
            if op == "stats":
                response = protocol.ok_response(request_id, self.stats())
            elif op == "trace":
                response = protocol.ok_response(
                    request_id, self._handle_trace(request)
                )
            elif op == "watch":
                response = protocol.ok_response(
                    request_id, self.telemetry_snapshot()
                )
            elif op == "shutdown":  # answered here, drained by the daemon
                response = protocol.ok_response(request_id, {"stopping": True})
            else:
                response = self._dispatch(request, trace_id, enqueue_t)
        except Exception as exc:  # the last resort: every request is answered
            response = self._error_response(op, request_id, exc)
        finally:
            with self._lock:
                self._pending -= 1
                self._queue_depth.set(self._pending)
        response["trace_id"] = trace_id
        hist = self._latency.get(op)
        if hist is not None:
            hist.observe((time.monotonic() - enqueue_t) * 1000.0)
        return response

    def _dispatch(self, request: dict, trace_id: str, enqueue_t: float) -> dict:
        """The tier's answer to a keyed op (``compile`` / ``run`` /
        ``tune``) or ``drain``; may raise, see :meth:`_error_response`."""
        raise NotImplementedError

    def _error_response(self, op: str, request_id, exc: Exception) -> dict:
        """The one exception → wire-code table.

        A :class:`ServeError` keeps its code; another
        :class:`~repro.errors.ReproError` takes :func:`~repro.errors.
        code_for`'s; anything else — and a ``ReproError`` with no code of
        its own — takes the op's failure code (:data:`FAILURE_CODES`).
        An exception from outside the hierarchy is a bug: it is counted
        under ``<tier>.errors.unexpected[.<type>]`` and logged with its
        traceback."""
        if isinstance(exc, ServeError):
            return protocol.error_response(
                request_id, exc.code, exc.message, retryable=exc.retryable
            )
        if isinstance(exc, ReproError):
            code = code_for(exc)
            if code != protocol.INTERNAL:
                return protocol.error_response(request_id, code, str(exc))
        else:
            kind = type(exc).__name__
            self._count("errors.unexpected", kind)
            _log.error("unexpected %s answering a %r request", kind, op, exc_info=exc)
        return protocol.error_response(
            request_id,
            FAILURE_CODES.get(op, protocol.INTERNAL),
            f"{type(exc).__name__}: {exc}",
        )

    def _count(self, event: str, reason: str) -> None:
        """Count one ``<tier>.<event>`` and its ``<tier>.<event>.<reason>``."""
        name = f"{self._tier}.{event}"
        self.metrics.counter(name).inc()
        self.metrics.counter(f"{name}.{reason}").inc()

    # -- introspection -----------------------------------------------------

    def _handle_trace(self, request: dict) -> dict:
        """The ``trace`` op: the flight recorder's retained traces.

        With a ``trace_id`` field, answers for that one request (the op's
        own correlation id doubles as the selector — ``found: false``
        when it aged out of retention, not an error).  ``perfetto: true``
        additionally renders the Chrome ``trace_event`` document (of the
        selected record, or of the slowest retained one)."""
        perfetto = bool(request.get("perfetto"))
        wanted = request.get("trace_id")
        if wanted:
            rec = self.flight.get(wanted)
            out: dict = {
                "trace_id": wanted,
                "found": rec is not None,
                "record": rec.as_dict() if rec is not None else None,
            }
            if perfetto and rec is not None:
                out["chrome"] = to_chrome(rec)
            return out
        out = self.flight.snapshot()
        if perfetto:
            slowest = self.flight.slowest()
            if slowest:
                out["chrome"] = to_chrome(slowest[0])
        return out

    def telemetry_snapshot(self) -> dict:
        """One live-telemetry frame (the ``watch`` op; ``repro top``).

        Counters are cumulative — clients diff consecutive frames
        against ``ts`` (a monotonic-seconds stamp) for rates.  Latency
        quantiles come from the ``<tier>.latency_ms.*`` log-histograms.
        The tier adds its own fields (:meth:`_frame`).
        """
        requests = {
            op: number(self._requests[op].value)
            for op in protocol.VALID_OPS
            if op in self._requests
        }
        now = time.monotonic()
        return {
            "ts": round(now, 6),
            "uptime_s": round(now - self._started, 3),
            "queue_limit": self._queue_limit,
            "queue_depth": self.pending,
            "stopping": self._stopping,
            "requests": requests,
            "requests_total": sum(requests.values()),
            "rejected": number(self._rejected.value),
            "latency_ms": {
                op: hist.as_dict()
                for op, hist in self._latency.items()
                if hist.count
            },
            **self._frame(),
        }

    def _frame(self) -> dict:
        """The tier's own fields of a telemetry frame."""
        raise NotImplementedError

    def _value(self, name: str) -> int | float:
        """A metric's value, 0 when it was never registered."""
        metric = self.metrics.get(name)
        return number(metric.value if metric is not None else 0)

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting, then wait for in-flight requests to finish."""
        with self._lock:
            self._stopping = True
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.drain()
