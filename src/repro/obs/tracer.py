"""Span-based tracing: where a compile+execute run spends its time.

The paper's method is feedback-driven — SAFARA recompiles a region through
the backend repeatedly, reading register reports back — so a flat profile
is useless: the interesting structure is *nesting* (which pass, inside
which compile, issued which ptxas-simulator run).  :class:`Tracer` records
exactly that as a tree of :class:`Span` records, instrumenting lex →
parse → pipeline passes → feedback iterations → cache lookups → vector
planning → execution, and exports Chrome ``trace_event`` JSON loadable in
Perfetto / ``chrome://tracing`` (see :mod:`repro.obs.chrome`).

Design constraints:

* **zero dependencies** — stdlib only;
* **near-zero cost when disabled** — instrumentation sites call the
  module-level :func:`span` function, which returns a shared no-op
  context manager unless a tracer is active *and* enabled.  The
  acceptance bar is <5% overhead on the vectorized-execution benchmark
  with no sink attached;
* **thread-safe** — the serving broker compiles and runs on worker
  threads; spans carry a stable small ``tid`` so each worker renders as
  its own track.

Instrumentation sites do not pass a tracer around: there is one *active*
tracer (:func:`get_tracer`), disabled by default, swapped in scoped
fashion with :meth:`Tracer.activate` (the CLI's ``--trace`` flag and the
benchmark harness use this).

**Request-scoped trace context.**  The serving broker gives every
protocol request a ``trace_id`` and needs the spans of *that request
only* — queue wait, placement, compile, feedback iterations, execution —
regardless of whether a process-wide tracer is active.  A worker thread
installs :func:`trace_scope` around request processing: while active,
every :func:`span` on that thread carries the request's ``trace_id`` as
an attribute and is *also* recorded into the scope's collector (a
private :class:`Tracer`), which the flight recorder
(:mod:`repro.obs.flight`) retains for the slowest and errored requests.
The collector shares the active tracer's epoch, so the same span object
can be recorded into both sinks with consistent timestamps.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """No-op counterpart of :meth:`Span.set`."""


NULL_SPAN = _NullSpan()


class Span:
    """One timed, named, attributed interval.

    Use as a context manager; nesting is implied by wall-clock containment
    (children start after and end before their parent on the same thread),
    which is exactly how the Chrome trace viewer reconstructs the tree
    from complete (``ph: "X"``) events.
    """

    __slots__ = ("name", "cat", "ts_us", "dur_us", "tid", "args", "_tracer",
                 "_extra")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        args: dict,
        extra: "tuple[Tracer, ...]" = (),
    ):
        self._tracer = tracer
        #: Additional sinks recording this span on close (the request
        #: collector of an active :func:`trace_scope` rides here when a
        #: process-wide tracer is enabled at the same time).
        self._extra = extra
        self.name = name
        self.cat = cat
        self.args = args
        self.ts_us = 0.0
        self.dur_us = 0.0
        self.tid = 0

    def set(self, **args) -> None:
        """Attach (or overwrite) attributes mid-span — e.g. the register
        count a ptxas run reported, or whether a cache lookup hit."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self.ts_us = self._tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_us = self._tracer._now_us() - self.ts_us
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        # Extra sinks first: the primary sink's tid assignment wins on the
        # shared span object (the request collector is always primary).
        for sink in self._extra:
            sink._record(self)
        self._tracer._record(self)
        return False


class Tracer:
    """Collects spans relative to its own epoch.

    ``enabled`` may be toggled at any time; a disabled tracer hands out
    :data:`NULL_SPAN` and records nothing.  ``max_spans`` bounds memory on
    runaway workloads (dropped spans are counted, never silently lost).
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        max_spans: int = 1_000_000,
        epoch_ns: int | None = None,
    ):
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        #: ``epoch_ns`` aligns this tracer's clock with another's (the
        #: per-request collectors share the active tracer's epoch so one
        #: span can be recorded into both with consistent timestamps).
        self._epoch_ns = epoch_ns if epoch_ns is not None else time.perf_counter_ns()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        #: thread ident → stable small tid, in first-seen order.
        self._tids: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._epoch_ns) / 1000.0

    def span(self, name: str, cat: str = "repro", **args):
        """A new span (or the shared null span while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, args)

    def _record(self, span: Span) -> None:
        ident = threading.get_ident()
        with self._lock:
            span.tid = self._tids.setdefault(ident, len(self._tids))
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    # -- introspection -----------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """A snapshot of the recorded spans (closed ones only)."""
        with self._lock:
            return list(self._spans)

    def span_names(self) -> list[str]:
        return [s.name for s in self.spans]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # -- scoped activation -------------------------------------------------

    @contextlib.contextmanager
    def activate(self):
        """Install this tracer as the process-wide active tracer for the
        duration of the ``with`` block (restoring the previous one after),
        enabling it on entry."""
        previous = get_tracer()
        self.enabled = True
        set_tracer(self)
        try:
            yield self
        finally:
            set_tracer(previous)


class TraceContext:
    """A request-scoped trace identity: the ``trace_id`` every span on
    the thread carries, plus an optional private collector recording the
    request's span tree for the flight recorder."""

    __slots__ = ("trace_id", "collector")

    def __init__(self, trace_id: str, collector: "Tracer | None" = None):
        self.trace_id = trace_id
        self.collector = collector


_trace_ctx = threading.local()


def current_trace() -> TraceContext | None:
    """The calling thread's active trace context, or ``None``."""
    return getattr(_trace_ctx, "current", None)


def current_trace_id() -> str | None:
    """The calling thread's active request ``trace_id``, or ``None`` —
    the compiler session tags each execution record with the request
    that caused it."""
    ctx = getattr(_trace_ctx, "current", None)
    return ctx.trace_id if ctx is not None else None


@contextlib.contextmanager
def trace_scope(trace_id: str, collector: "Tracer | None" = None):
    """Install a request trace context on the calling thread.

    While active, every :func:`span` opened on this thread carries
    ``trace_id`` as a span attribute and — when ``collector`` is given —
    is recorded into it *in addition to* the process-wide tracer (if that
    one is enabled).  Scopes nest; the inner context wins while active.
    """
    previous = getattr(_trace_ctx, "current", None)
    _trace_ctx.current = TraceContext(trace_id, collector)
    try:
        yield _trace_ctx.current
    finally:
        _trace_ctx.current = previous


def request_collector(max_spans: int = 512) -> "Tracer":
    """A per-request span collector aligned with the active tracer's
    epoch (so its spans can also be exported alongside globally traced
    ones without timestamp skew)."""
    return Tracer(enabled=True, max_spans=max_spans, epoch_ns=_active._epoch_ns)


#: The default (disabled) tracer instrumentation talks to out of the box.
_GLOBAL = Tracer()
_active: Tracer = _GLOBAL


def get_tracer() -> Tracer:
    """The currently active tracer (the disabled default unless someone
    activated their own)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the active tracer (``None`` restores the
    default).  Prefer the scoped :meth:`Tracer.activate`."""
    global _active
    _active = tracer if tracer is not None else _GLOBAL
    return _active


def span(name: str, cat: str = "repro", **args):
    """Open a span on the active tracer — the one-liner instrumentation
    sites use::

        with span("pass:safara", kernel=name) as sp:
            ...
            sp.set(registers=info.registers)

    Costs one attribute check when tracing is disabled (plus one
    thread-local read when no request trace context is installed).
    """
    t = _active
    ctx = getattr(_trace_ctx, "current", None)
    if ctx is None:
        if not t.enabled:
            return NULL_SPAN
        return Span(t, name, cat, args)
    args.setdefault("trace_id", ctx.trace_id)
    if ctx.collector is not None:
        extra = (t,) if t.enabled else ()
        return Span(ctx.collector, name, cat, args, extra=extra)
    if not t.enabled:
        return NULL_SPAN
    return Span(t, name, cat, args)


def traced(name: str | None = None, cat: str = "repro"):
    """Decorator form: trace every call of the wrapped function as one
    span named after it (or ``name``)."""

    def decorate(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            sp = span(label, cat)
            if sp is NULL_SPAN:
                return fn(*a, **kw)
            with sp:
                return fn(*a, **kw)

        return wrapper

    return decorate
