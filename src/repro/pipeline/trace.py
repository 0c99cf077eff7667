"""Structured instrumentation records for the pass pipeline.

Every compilation run through a :class:`~repro.compiler.session.CompilerSession`
produces one :class:`CompileTrace` (per program) holding one
:class:`RegionTrace` per offload region, which in turn holds one
:class:`PassTrace` per registered pass — wall time, IR-size delta, and
(where the pass talks to the backend) the register delta read off the
``FeedbackCompiler`` history.  The same objects serialise to JSON for the
CLI's ``--stats`` flag, and each ``CompileTrace`` carries the compile
cache key of its program so traces can be joined to cache entries.

:class:`SessionStats` aggregates those traces.  Its counters are backed
by a :class:`~repro.obs.metrics.MetricsRegistry` (shared with the
session's :class:`~repro.pipeline.cache.CompileCache`); read them from
the registry by name (``session.compilations``, ``session.timings``,
``session.executions.scalar_fallback``, …).  Only ``compilations``
remains as a property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry


@dataclass(slots=True)
class PassTrace:
    """Instrumentation for one pass over one region."""

    name: str
    #: False when the pass was registered but disabled by the configuration.
    ran: bool = True
    wall_ms: float = 0.0
    #: Statement count of the region before/after the pass.
    ir_before: int = 0
    ir_after: int = 0
    #: Register usage read from the feedback compiler's first/last PTXAS
    #: report, for passes that drive the backend (SAFARA); None otherwise.
    registers_before: int | None = None
    registers_after: int | None = None
    #: Backend (ptxas-simulator) invocations performed by this pass.
    backend_compilations: int = 0

    @property
    def ir_delta(self) -> int:
        return self.ir_after - self.ir_before

    @property
    def register_delta(self) -> int | None:
        if self.registers_before is None or self.registers_after is None:
            return None
        return self.registers_after - self.registers_before

    def as_dict(self) -> dict:
        return {
            "pass": self.name,
            "ran": self.ran,
            "wall_ms": round(self.wall_ms, 4),
            "ir_before": self.ir_before,
            "ir_after": self.ir_after,
            "ir_delta": self.ir_delta,
            "registers_before": self.registers_before,
            "registers_after": self.registers_after,
            "register_delta": self.register_delta,
            "backend_compilations": self.backend_compilations,
        }


@dataclass(slots=True)
class RegionTrace:
    """All pass records for one offload region (one GPU kernel)."""

    kernel: str
    passes: list[PassTrace] = field(default_factory=list)

    @property
    def wall_ms(self) -> float:
        return sum(p.wall_ms for p in self.passes)

    @property
    def backend_compilations(self) -> int:
        return sum(p.backend_compilations for p in self.passes)

    def pass_trace(self, name: str) -> PassTrace:
        for p in self.passes:
            if p.name == name:
                return p
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "wall_ms": round(self.wall_ms, 4),
            "passes": [p.as_dict() for p in self.passes],
        }


@dataclass(slots=True)
class CompileTrace:
    """One compiled program: every region, every pass."""

    function: str
    config: str
    regions: list[RegionTrace] = field(default_factory=list)
    wall_ms: float = 0.0
    #: Compile-cache key of the program this trace describes (``None`` for
    #: uncached entrypoints like ``compile_function`` on caller-owned IR).
    cache_key: str | None = None

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "config": self.config,
            "cache_key": self.cache_key,
            "wall_ms": round(self.wall_ms, 4),
            "regions": [r.as_dict() for r in self.regions],
        }


class SessionStats:
    """Aggregate counters and traces for one compiler session.

    Counters live in a metrics registry (pass one to share it with the
    compile cache; a private one is created otherwise).  The read-only
    ``stats.compilations`` reports the ``session.compilations`` counter.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._compilations = m.counter(
            "session.compilations",
            "programs actually compiled (cache misses + uncached entrypoints)",
        )
        self._timings = m.counter(
            "session.timings", "timing-model evaluations"
        )
        self._timing_stored = m.counter(
            "gpu.timing.stored",
            "kernels timed from the verdict stored at compile",
        )
        self._timing_walked = m.counter(
            "gpu.timing.walked", "kernels timed by walking the VIR"
        )
        self._feedback_optimizations = m.counter(
            "session.feedback_optimizations",
            "stand-alone feedback optimisations (session.optimize_region)",
        )
        self._executions = m.counter(
            "session.executions", "functional kernel executions"
        )
        self._codegen_executions = m.counter(
            "session.executions.codegen",
            "executions through generated NumPy code",
        )
        self._scalar_fallbacks = m.counter(
            "session.executions.scalar_fallback",
            "codegen/auto requests that fell back to the scalar interpreter",
        )
        self._scalar_requested = m.counter(
            "session.executions.scalar_requested",
            "executions that explicitly requested the scalar interpreter",
        )
        self._compile_wall_ms = m.histogram(
            "session.compile_wall_ms", help="wall time per compiled program"
        )
        # Equality-saturation counters, fed from each region's EsatReport.
        self._esat_unions = m.counter(
            "esat.unions", "e-class merges performed by saturation"
        )
        self._esat_unified = m.counter(
            "esat.unified_spellings",
            "e-classes that unified distinct source spellings",
        )
        self._esat_rewritten = m.counter(
            "esat.rewritten", "expression slots changed by extraction"
        )
        self._esat_candidates = m.counter(
            "esat.new_candidates",
            "newly repeated array references fed to scalar replacement",
        )
        self._esat_fallbacks = m.counter(
            "esat.guard_fallbacks",
            "regions where the pressure guard kept the unsaturated kernel",
        )
        self._esat_saturated = m.counter(
            "esat.saturated_runs",
            "saturation runs that reached a fixpoint within bounds",
        )
        self._execution_elements = m.histogram(
            "session.execution_elements",
            boundaries=COUNT_BUCKETS,
            help="batched lane-iterations per codegen execution",
        )
        #: One record per execution: the kernel name plus the
        #: :class:`~repro.gpu.vector_exec.ExecutionInfo` payload (executor
        #: requested/used, fallback reason, per-region element counts).
        self.execution_traces: list[dict] = []
        self.traces: list[CompileTrace] = []
        #: Oldest traces are dropped past this bound.
        self.max_traces: int = 4096

    @property
    def compilations(self) -> int:
        return int(self._compilations.value)

    # -- recording ---------------------------------------------------------

    def record(self, trace: CompileTrace) -> None:
        self._compilations.inc()
        self._compile_wall_ms.observe(trace.wall_ms)
        m = self.metrics
        for region in trace.regions:
            for p in region.passes:
                base = f"pipeline.pass.{p.name}"
                if p.ran:
                    m.counter(base + ".runs").inc()
                    m.counter(base + ".wall_ms").inc(p.wall_ms)
                    if p.backend_compilations:
                        m.counter(base + ".backend_compilations").inc(
                            p.backend_compilations
                        )
                else:
                    m.counter(base + ".skips").inc()
        self.traces.append(trace)
        if len(self.traces) > self.max_traces:
            del self.traces[: len(self.traces) - self.max_traces]

    def record_esat(self, report) -> None:
        """Fold one region's :class:`~repro.esat.optimize.EsatReport`
        into the ``esat.*`` counters."""
        self._esat_unions.inc(report.unions)
        self._esat_unified.inc(report.unified_spellings)
        self._esat_rewritten.inc(report.rewritten)
        self._esat_candidates.inc(report.new_candidates)
        if report.saturated:
            self._esat_saturated.inc()
        if not report.applied:
            self._esat_fallbacks.inc()

    def record_timing(self, *, stored: int, walked: int) -> None:
        """Count one ``time_program`` call and how its kernels were timed."""
        self._timings.inc()
        self._timing_stored.inc(stored)
        self._timing_walked.inc(walked)

    def record_feedback_optimization(self) -> None:
        self._feedback_optimizations.inc()

    def record_execution(self, function: str, info: dict) -> None:
        """Record one functional execution.

        A *fallback* is counted only when the caller asked for a batched
        engine (``requested`` of ``codegen`` or ``auto``) and
        the scalar interpreter ran anyway; an explicitly requested scalar
        run counts under ``scalar_requested`` instead.
        """
        self._executions.inc()
        requested = info.get("requested")
        used = info.get("used")
        if used == "codegen":
            self._codegen_executions.inc()
            self._execution_elements.observe(info.get("elements", 0))
        elif requested in ("codegen", "auto"):
            self._scalar_fallbacks.inc()
        else:
            self._scalar_requested.inc()
        self.execution_traces.append({"kernel": function, **info})
        if len(self.execution_traces) > self.max_traces:
            del self.execution_traces[
                : len(self.execution_traces) - self.max_traces
            ]

    def pass_totals(self) -> dict[str, dict]:
        """Calls, skips, wall time and backend compiles per pass name, read
        from the ``pipeline.pass.*`` counters :meth:`record` keeps, so
        they count every compile, not just the traces still held.  A pass
        with no runs and no skips is left out."""
        prefix = "pipeline.pass."
        names = {
            name[len(prefix):].rpartition(".")[0]
            for name in self.metrics.names()
            if name.startswith(prefix)
        }

        def value(name: str, field: str) -> float:
            counter = self.metrics.get(f"{prefix}{name}.{field}")
            return counter.value if counter is not None else 0

        totals: dict[str, dict] = {}
        for name in sorted(names):
            calls, skipped = int(value(name, "runs")), int(value(name, "skips"))
            if calls or skipped:
                totals[name] = {
                    "calls": calls,
                    "skipped": skipped,
                    "wall_ms": round(value(name, "wall_ms"), 4),
                    "backend_compilations": int(value(name, "backend_compilations")),
                }
        return totals

    def as_dict(self) -> dict:
        return {
            "compilations": self.compilations,
            "timings": int(self._timings.value),
            "timing_kernels": {
                "stored": int(self._timing_stored.value),
                "walked": int(self._timing_walked.value),
            },
            "feedback_optimizations": int(self._feedback_optimizations.value),
            "pass_totals": self.pass_totals(),
            "traces": [t.as_dict() for t in self.traces],
            "execution": {
                "executions": int(self._executions.value),
                "codegen": int(self._codegen_executions.value),
                "scalar_fallbacks": int(self._scalar_fallbacks.value),
                "scalar_requested": int(self._scalar_requested.value),
                "kernels": list(self.execution_traces),
            },
        }

    def reset(self) -> None:
        """Zero every counter and drop every trace (metric registrations
        are kept — a shared registry stays shared)."""
        self.metrics.reset()
        self.execution_traces.clear()
        self.traces.clear()
