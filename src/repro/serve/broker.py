"""The async request broker: workers, deadlines, degradation.

:class:`Broker` sits between the wire protocol (:mod:`repro.serve.daemon`)
and the compiler (:class:`~repro.compiler.session.CompilerSession`).  It
is the ``serve`` tier of the shared :class:`~repro.serve.frontdoor.
FrontDoor`, which owns admission (at most ``workers + queue_limit``
requests in flight; past that, ``queue_full``, the protocol's 429),
rejection and the exception → wire-code table.  The broker adds:

* **worker pool over per-worker sessions** — each worker thread owns a
  private :class:`CompilerSession` (its own in-memory cache, parses and
  pass pipeline), but all sessions share one :class:`MetricsRegistry` and one
  persistent :class:`~repro.pipeline.diskcache.DiskCache`, so the service
  has a single metrics surface and a single warm store;
* **per-request deadlines** — the clock starts at admission (queue wait
  eats into the budget); the deadline is pushed into the feedback driver
  (:func:`~repro.feedback.driver.deadline_scope`), so even a mid-SAFARA
  compile stops at the fence instead of holding a worker;
* **one answer per failure** — the compiler and its simulated assembler
  are deterministic, so a failed compile is answered once with its wire
  code (``parse_error``, ``compile_error``, ``deadline_exceeded``, ...)
  and never retried inside the broker;
* **graceful degradation** — ``run`` requests under deadline pressure
  (remaining budget below ``degrade_threshold_ms``) are demoted from the
  generated-code executor to the scalar interpreter, and codegen
  fallbacks are observed through the hook
  (:func:`~repro.gpu.vector_exec.fallback_listener`); both are counted
  with their reasons under ``serve.degradations.*``.

Everything is exported through the shared registry: ``serve.requests.*``,
``serve.rejected[.<code>]``, ``serve.deadline_exceeded``,
``serve.degradations.*``,
``serve.codegen.tier.*`` (execution tier answering each ``run``) and the
``serve.codegen.codegen_ms`` histogram, ``serve.wait_ms`` /
``serve.handle_ms`` histograms, the ``serve.latency_ms.<op>``
log-histograms (admission → response, quantile-exact), and the
``serve.queue_depth`` gauge, next to the sessions' ``cache.*`` /
``cache.disk.*`` / ``cache.fnobj.*`` / ``session.*`` metrics.

**Tracing** (PR 8): every admitted request is processed under a
:func:`~repro.obs.tracer.trace_scope` carrying its ``trace_id``
(client-supplied or broker-generated, echoed in the response) and a
bounded per-request span collector.  The broker synthesizes a root
``request`` span (admission → response) and a ``queue.wait`` span, so
the collector holds one connected tree — queue wait, placement, compile
pipeline, execute — and feeds it to the :class:`~repro.obs.flight.
FlightRecorder`, which retains the N slowest and all errored requests
for the ``trace`` op / ``repro serve-trace``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..compiler.options import ALL_CONFIGS, SMALL_DIM_SAFARA
from ..compiler.session import CompileJob, CompilerSession
from ..errors import ConfigError, ReproError, code_for
from ..executors import parse_executor
from ..feedback.driver import deadline_scope
from ..gpu.arch import arch_key, list_archs
from ..gpu.vector_exec import VectorUnsupported, fallback_listener
from ..obs.flight import RequestRecord, span_dict
from ..obs.metrics import MS_BUCKETS
from ..obs.tracer import Span, request_collector, span, trace_scope
from ..pipeline.diskcache import DiskCache
from . import protocol
from .frontdoor import FrontDoor
from .placement import PlacementDecision, choose_placement
from .protocol import ServeError


@dataclass(frozen=True, slots=True)
class BrokerConfig:
    """Service tuning knobs (see ``docs/serving.md`` for semantics)."""

    #: Worker threads, each with a private compiler session.
    workers: int = 4
    #: Requests allowed to *wait* beyond the ones being worked on; the
    #: total in-flight bound is ``workers + queue_limit``.
    queue_limit: int = 32
    #: Budget per request (admission → response) when the request does
    #: not carry its own ``deadline_ms``.
    default_deadline_ms: float = 30_000.0
    #: ``run`` requests with less remaining budget than this are demoted
    #: to the scalar executor rather than risk a codegen plan + fallback.
    degrade_threshold_ms: float = 250.0
    #: Persistent cache directory (``None`` → memory-only service).
    cache_dir: str | None = None
    #: Size bound for the persistent tier.
    cache_max_bytes: int = 256 * 1024 * 1024
    #: In-memory compile-cache entries per worker session.
    cache_size: int = 512
    #: Configuration used when a request names none.
    default_config: str = SMALL_DIM_SAFARA.name
    #: The device fleet: arch-registry profile names, in preference
    #: order (ties in modeled time go to the earlier entry).  ``None``
    #: or empty → single-arch service (each config's own arch).  With a
    #: fleet, ``run``/``compile`` requests that do not pin an ``arch``
    #: are routed to the modeled-best profile, and ``tune`` requests
    #: search the fleet as an axis (see docs/serving.md).
    fleet: tuple[str, ...] | None = None
    #: Flight-recorder retention: the N slowest requests…
    flight_slow: int = 32
    #: …and the most recent M errored requests keep their span trees.
    flight_errors: int = 64
    #: Span budget per request (the per-request collector's memory bound;
    #: overflowing spans are counted in ``dropped_spans``, never lost
    #: silently).
    trace_max_spans: int = 512


class Broker(FrontDoor):
    """Bounded, deadline-aware front end over compiler sessions."""

    def __init__(self, config: BrokerConfig | None = None):
        self.config = config or BrokerConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(
            "serve",
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            flight_slow=self.config.flight_slow,
            flight_errors=self.config.flight_errors,
        )
        self.disk_cache = (
            DiskCache(
                self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
                metrics=self.metrics,
            )
            if self.config.cache_dir is not None
            else None
        )
        self._sessions = threading.local()
        self._all_sessions: list[CompilerSession] = []
        #: Per-request scratch (one worker thread processes one request
        #: at a time): degradation events attributed to the in-flight
        #: request, harvested into its flight record.
        self._req = threading.local()
        # A misconfigured fleet fails at construction, not per-request.
        self._fleet: tuple[str, ...] = tuple(
            arch_key(name) for name in (self.config.fleet or ())
        )

        m = self.metrics
        self._deadline_exceeded = m.counter(
            "serve.deadline_exceeded", "requests that ran out of budget"
        )
        self._degraded_total = m.counter(
            "serve.degradations", "executions demoted to the scalar engine"
        )
        self._wait_ms = m.histogram(
            "serve.wait_ms", MS_BUCKETS, help="admission → worker pickup"
        )
        self._handle_ms = m.histogram(
            "serve.handle_ms", MS_BUCKETS, help="worker pickup → response"
        )
        self._placements = m.counter(
            "serve.placement.decisions", "fleet placement decisions made"
        )
        self._placement_pinned = m.counter(
            "serve.placement.pinned", "requests that pinned an arch explicitly"
        )
        self._placement_ms = m.histogram(
            "serve.placement.model_ms",
            help="modeled time of the chosen placement",
        )

    # -- sessions ----------------------------------------------------------

    def _session(self) -> CompilerSession:
        """The calling worker thread's session (created on first use)."""
        session = getattr(self._sessions, "session", None)
        if session is None:
            session = CompilerSession(
                cache_size=self.config.cache_size,
                disk_cache=self.disk_cache,
                metrics=self.metrics,
            )
            self._sessions.session = session
            with self._lock:
                self._all_sessions.append(session)
        return session

    # -- processing --------------------------------------------------------

    def _process(self, request: dict, enqueue_t: float, trace_id: str) -> dict:
        """Answer the request under its trace scope and span collector,
        then flight-record it with its span tree."""
        request_id = request.get("id")
        op = request["op"]
        start = time.monotonic()
        wait_ms = (start - enqueue_t) * 1000.0
        self._wait_ms.observe(wait_ms)
        collector = request_collector(self.config.trace_max_spans)
        #: Worker-pickup instant on the collector clock — the anchor both
        #: synthesized spans (queue.wait, the request root) are placed
        #: from, so their relative order never depends on how long the
        #: bookkeeping after the response took.
        anchor_us = collector._now_us()
        self._req.degradations = []
        with trace_scope(trace_id, collector):
            self._synth_span(
                collector,
                trace_id,
                "queue.wait",
                anchor_us - wait_ms * 1000.0,
                wait_ms * 1000.0,
                wait_ms=round(wait_ms, 4),
            )
            with span("serve.request", op=op, id=request_id) as sp:
                response = super()._process(request, enqueue_t, trace_id)
                error_code = None if response["ok"] else response["error"]["code"]
                sp.set(ok=response["ok"])
                if error_code is not None:
                    sp.set(error=error_code)
        self._handle_ms.observe((time.monotonic() - start) * 1000.0)
        if error_code == protocol.DEADLINE_EXCEEDED:
            self._deadline_exceeded.inc()
        total_ms = (time.monotonic() - enqueue_t) * 1000.0
        # One connected tree per request: synthesize the root span
        # covering admission → response, then hand the collector's spans
        # to the flight recorder.
        # Root span from queue-wait start to now, with 100 µs of slack on
        # both ends so it strictly contains every child under containment
        # nesting; the honest duration rides in the args.
        root_ts = anchor_us - wait_ms * 1000.0 - 100.0
        self._synth_span(
            collector,
            trace_id,
            "request",
            root_ts,
            collector._now_us() + 100.0 - root_ts,
            op=op,
            ok=response["ok"],
            duration_ms=round(total_ms, 4),
        )
        self.flight.record(
            RequestRecord(
                trace_id=trace_id,
                op=op,
                ok=response["ok"],
                duration_ms=total_ms,
                error_code=error_code,
                spans=[span_dict(s) for s in collector.spans],
                degradations=list(
                    getattr(self._req, "degradations", None) or ()
                ),
                dropped_spans=collector.dropped,
            )
        )
        return response

    def _dispatch(self, request: dict, trace_id: str, enqueue_t: float) -> dict:
        op = request["op"]
        if op == "drain":
            raise ServeError(
                protocol.BAD_REQUEST,
                "op 'drain' targets a cluster router shard; this is a "
                "single-process daemon (use 'shutdown' to drain it)",
            )
        # The budget runs from admission, so queue wait eats into it.
        deadline_ms = request.get("deadline_ms") or self.config.default_deadline_ms
        deadline = enqueue_t + deadline_ms / 1000.0
        if op == "compile":
            return self._handle_compile(request, deadline)
        if op == "run":
            return self._handle_run(request, deadline)
        return self._handle_tune(request, deadline)

    @staticmethod
    def _synth_span(
        collector, trace_id: str, name: str, ts_us: float, dur_us: float, **args
    ) -> None:
        """Record a span with explicit placement into the per-request
        collector — for intervals the worker thread could not bracket
        live (the queue wait happens before any worker runs; the request
        root is only known complete once the response exists)."""
        sp = Span(
            collector, name, "serve", {"trace_id": trace_id, **args}
        )
        sp.ts_us = ts_us
        sp.dur_us = dur_us
        collector._record(sp)

    def _degradation(self, reason: str, **detail) -> None:
        """Attribute one degradation event to the in-flight request (the
        flight record's ``degradations`` list) and mark it on the trace."""
        from ..obs.tracer import current_trace_id

        event = {"reason": reason, "trace_id": current_trace_id(), **detail}
        events = getattr(self._req, "degradations", None)
        if events is not None:
            events.append(event)
        self._synth_degradation_span(event)

    def _synth_degradation_span(self, event: dict) -> None:
        from ..obs.tracer import current_trace

        ctx = current_trace()
        if ctx is not None and ctx.collector is not None:
            sp = Span(ctx.collector, "degradation", "serve", dict(event))
            sp.ts_us = ctx.collector._now_us()
            ctx.collector._record(sp)

    def _remaining_ms(self, deadline: float) -> float:
        return (deadline - time.monotonic()) * 1000.0

    def _config_for(self, request: dict):
        name = request.get("config") or self.config.default_config
        config = ALL_CONFIGS.get(name)
        if config is None:
            raise ServeError(
                protocol.UNKNOWN_CONFIG,
                f"unknown config {name!r}; known: {', '.join(sorted(ALL_CONFIGS))}",
            )
        saturate = request.get("saturate")
        if saturate is not None and saturate != config.saturate:
            config = config.derive(saturate=bool(saturate))
        return config

    @staticmethod
    def _int_env(request: dict) -> dict[str, int] | None:
        env = request.get("env")
        return {k: int(v) for k, v in env.items()} if env else None

    def _arch_for(self, request: dict) -> str | None:
        """The canonical key of the request's pinned arch, or ``None``.

        An unregistered name is a permanent ``unknown_arch`` failure —
        the client must pick from the advertised registry (any
        registered profile may be pinned, fleet member or not)."""
        name = request.get("arch")
        if name is None:
            return None
        try:
            return arch_key(name)
        except ConfigError:
            known = ", ".join(list_archs())
            raise ServeError(
                protocol.UNKNOWN_ARCH,
                f"unknown arch {name!r}; registered profiles: {known}"
                + (
                    f"; fleet: {', '.join(self._fleet)}"
                    if self._fleet
                    else ""
                ),
            ) from None

    def _place(
        self,
        session: CompilerSession,
        request: dict,
        config,
        env: dict[str, int],
    ) -> "PlacementDecision | None":
        """Run the fleet placement policy under a ``placement`` span,
        exporting ``serve.placement.*`` metrics.

        A failure answers ``None`` (counted in ``serve.placement.errors``,
        its wire code on the span): the request falls through to the
        single-arch path, which meets the same failure and answers it
        with its own code."""
        with span("placement", fleet=",".join(self._fleet)) as sp:
            try:
                decision = choose_placement(
                    session,
                    request["source"],
                    config,
                    self._fleet,
                    env,
                    kernel_name=request.get("kernel"),
                )
            except ReproError as exc:
                sp.set(error=code_for(exc))
                self.metrics.counter(
                    "serve.placement.errors",
                    "placement attempts that failed and fell through",
                ).inc()
                return None
            sp.set(arch=decision.arch, model_ms=decision.model_ms)
        self._placements.inc()
        self._placement_ms.observe(decision.model_ms)
        self.metrics.counter(
            f"serve.placement.chosen.{decision.arch}",
            "placements routed to this arch",
        ).inc()
        return decision

    def _handle_compile(self, request: dict, deadline: float) -> dict:
        """Compile inside the request deadline."""
        request_id = request.get("id")
        session = self._session()
        config = self._config_for(request)
        env = self._int_env(request)
        pinned = self._arch_for(request)
        placement = None
        if pinned is not None:
            config = config.derive(arch=pinned)
            self._placement_pinned.inc()
        elif self._fleet and env:
            # Placement compiles every fleet variant through the shared
            # cache.
            placement = self._place(session, request, config, env)
            if placement is not None:
                config = config.derive(arch=placement.arch)
        job = CompileJob(
            source=request["source"],
            config=config,
            kernel_name=request.get("kernel"),
            env=env,
        )
        # Queue wait and placement may have used up the budget already.
        if self._remaining_ms(deadline) <= 0.0:
            raise ServeError(
                protocol.DEADLINE_EXCEEDED, "deadline passed before the compile"
            )
        # A failure propagates to the front door's table (parse_error,
        # compile_error, deadline_exceeded, ...) and is answered once.
        with span(
            "compile", config=config.name, arch=arch_key(config.arch)
        ), deadline_scope(deadline):
            program, tier = session.compile_job(job)

        result: dict = {
            "config": config.name,
            "arch": arch_key(config.arch),
            "cache_key": session.job_key(job),
            "cached": tier,
            "kernels": [
                {
                    "name": k.name,
                    "registers": k.ptxas.registers,
                    "spill_bytes": k.ptxas.spill_bytes,
                    "backend_compilations": k.backend_compilations,
                }
                for k in program.kernels
            ],
        }
        if env:
            # Raises TimingUnavailable (timing_unavailable) when the env
            # lacks a binding a trip count needs; the compile stays cached.
            timing = session.time_program(program, env)
            result["timing"] = {
                "total_ms": round(timing.total_ms, 6),
                "kernels": [
                    {
                        "name": kt.name,
                        "time_ms": round(kt.time_ms, 6),
                        "bound": kt.bound,
                    }
                    for kt in timing.kernels
                ],
            }
        if placement is not None:
            result["placement"] = placement.as_dict()
        return protocol.ok_response(request_id, result)

    def _handle_run(self, request: dict, deadline: float) -> dict:
        """Functional execution with deadline-pressure degradation."""
        from ..gpu.interpreter import build_run_args

        request_id = request.get("id")
        session = self._session()
        try:
            requested = parse_executor(request.get("executor", "auto")).value
        except ConfigError as exc:
            raise ServeError(protocol.BAD_REQUEST, str(exc)) from None
        pinned = self._arch_for(request)
        # Warm hot path: the worker session's parse, and the generated
        # program it keys by that parse (with the argument kinds).
        # Generated programs live in memory only; a restarted daemon
        # regenerates on its first run.
        source, kernel_name = request["source"], request.get("kernel")
        fn = session.function(source, kernel_name=kernel_name)
        # Fleet routing: model every fleet variant's time at the run's
        # problem size and record the verdict (a pinned arch skips the
        # policy; placement failures fall through to an unrouted run).
        placement = None
        env_int = self._int_env(request) or {}
        if pinned is not None:
            self._placement_pinned.inc()
        elif self._fleet and env_int:
            placement = self._place(
                session, request, self._config_for(request), env_int
            )
        try:
            run_args = build_run_args(fn, request.get("env") or {})
        except ValueError as exc:
            raise ServeError(protocol.BAD_REQUEST, str(exc)) from None

        executor = requested
        degraded: str | None = None
        if (
            requested == "auto"
            and self._remaining_ms(deadline) < self.config.degrade_threshold_ms
        ):
            executor = "scalar"
            degraded = "deadline_pressure"
            self._degraded_total.inc()
            self.metrics.counter(
                "serve.degradations.deadline",
                "runs demoted to scalar under deadline pressure",
            ).inc()
            self._degradation(
                "deadline_pressure",
                remaining_ms=round(self._remaining_ms(deadline), 3),
            )

        def on_fallback(kernel: str, reason: str) -> None:
            self._degraded_total.inc()
            self.metrics.counter(
                "serve.degradations.vector_fallback",
                "auto executions that fell back to the scalar engine",
            ).inc()
            self._degradation("vector_fallback", kernel=kernel, detail=reason)

        try:
            with fallback_listener(on_fallback):
                _arrays, stats, info = session.run(
                    source, run_args, kernel_name=kernel_name, executor=executor
                )
        except VectorUnsupported as exc:
            raise ServeError(
                protocol.EXECUTION_ERROR,
                f"codegen executor unsupported: {exc}",
            ) from None
        self.metrics.counter(
            f"serve.codegen.tier.{info.used}",
            "run requests answered by this execution tier",
        ).inc()
        if info.codegen_ms is not None:
            self.metrics.histogram(
                "serve.codegen.codegen_ms",
                help="time obtaining the generated program per run request",
            ).observe(info.codegen_ms)
        result = {
            "kernel": fn.name,
            "arch": (
                placement.arch
                if placement is not None
                else pinned
                if pinned is not None
                else arch_key(self._config_for(request).arch)
            ),
            "executor": {
                "requested": requested,
                "used": info.used,
                "fallback_reason": info.fallback_reason,
                "degraded": degraded,
            },
            "stats": {
                "loads": stats.loads,
                "stores": stats.stores,
                "flops": stats.flops,
                "iterations": stats.iterations,
            },
            "elements": info.elements,
        }
        if placement is not None:
            result["placement"] = placement.as_dict()
        return protocol.ok_response(request_id, result)

    def _handle_tune(self, request: dict, deadline: float) -> dict:
        """Autotune under the request deadline (the tuner compiles on
        this thread, inside the deadline scope, so even a mid-SAFARA
        trial compile stops at the fence).  The worker session's disk
        cache is what makes a repeated tune compile-free, across
        restarts too."""
        from ..tune import tune

        request_id = request.get("id")
        session = self._session()
        base = self._config_for(request)
        env = self._int_env(request) or {}
        pinned = self._arch_for(request)
        archs = None
        if pinned is not None:
            base = base.derive(arch=pinned)
            self._placement_pinned.inc()
        elif self._fleet:
            archs = list(self._fleet)
        with deadline_scope(deadline):
            result = tune(
                request["source"],
                env=env,
                launches=request.get("launches", 1),
                base=base,
                strategy=request.get("strategy", "beam"),
                budget=request.get("budget"),
                session=session,
                kernel_name=request.get("kernel"),
                archs=archs,
            )
        return protocol.ok_response(request_id, result.as_dict())

    # -- introspection & lifecycle ----------------------------------------

    def stats(self) -> dict:
        """The service-wide observability snapshot (the ``stats`` op)."""
        out: dict = {
            "broker": {
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "pending": self.pending,
                "stopping": self._stopping,
                "sessions": len(self._all_sessions),
                "fleet": list(self._fleet),
            },
            "metrics": self.metrics.as_dict(),
            "flight": {
                "recorded": self.flight.recorded,
                "slow_retained": len(self.flight.slowest()),
                "errors_retained": len(self.flight.errors()),
            },
        }
        if self.disk_cache is not None:
            out["disk_cache"] = self.disk_cache.as_dict()
        return out

    def _frame(self) -> dict:
        """The broker's telemetry fields: deadline misses, degradations,
        cache hit rates, placements and execution tiers."""
        m = self.metrics
        value = self._value

        def rate(hits: str, misses: str) -> float | None:
            h, miss = value(hits), value(misses)
            return round(h / (h + miss), 4) if h + miss else None

        def by_last_part(prefix: str) -> dict:
            return {
                name.rsplit(".", 1)[1]: value(name)
                for name in m.names()
                if name.startswith(prefix)
            }

        return {
            "workers": self.config.workers,
            "deadline_exceeded": value("serve.deadline_exceeded"),
            "degradations": {
                "total": value("serve.degradations"),
                "deadline": value("serve.degradations.deadline"),
                "vector_fallback": value("serve.degradations.vector_fallback"),
            },
            "cache": {
                "memory_hit_rate": rate("cache.hits", "cache.misses"),
                "disk_hit_rate": rate("cache.disk.hits", "cache.disk.misses"),
                "fnobj_hit_rate": rate("cache.fnobj.hits", "cache.fnobj.misses"),
            },
            "placement": by_last_part("serve.placement.chosen."),
            "codegen_tiers": by_last_part("serve.codegen.tier."),
            "flight_recorded": self.flight.recorded,
        }
