"""The compilation service core: :class:`CompilerSession`.

A session owns the three pieces every compilation needs:

* the **pass pipeline** (:class:`~repro.pipeline.passes.PassManager`) the
  LICM / unroll / Carr-Kennedy / SAFARA transformations register into,
  with per-pass instrumentation (wall time, IR-size delta, register delta
  from the feedback history);
* the **content-addressed compile cache**
  (:class:`~repro.pipeline.cache.CompileCache`) keyed by
  hash(source text, config, kernel name) — what a compile reads; the env
  is not in it — with hit/miss/evict counters: the SAFARA loop recompiles
  constantly and the experiments multiply that by configurations ×
  benchmarks.  An optional
  :class:`~repro.pipeline.diskcache.DiskCache` behind it persists the
  compiled program only: a compile never generates NumPy source, which
  is made and bound on execution (:meth:`CompilerSession.execute`) and
  persisted only by the serving broker's ``run`` path;
* the **statistics** (:class:`~repro.pipeline.trace.SessionStats`):
  structured traces of every compile, serialisable to JSON for the CLI's
  ``--stats`` flag.

The session's methods are the compile API; the :mod:`repro` facade
(``repro.compile`` / ``repro.run`` / ``repro.tune``) wraps a module-level
default session.  :func:`CompilerSession.compile_many` adds batch
compilation fanned out over ``concurrent.futures`` workers with in-batch
deduplication.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..codegen.kernelgen import CodegenOptions, generate_kernel
from ..executors import parse_executor
from ..gpu.arch import GpuArch, KEPLER_K20XM
from ..gpu.registers import ptxas_info
from ..errors import TimingUnavailable
from ..gpu.timing import estimate_time, profile_thread
from ..ir.builder import build_module
from ..ir.stmt import clone_region
from ..ir.module import KernelFunction
from ..lang.parser import parse_program
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import current_trace_id, span
from ..pipeline.cache import CompileCache, cache_key, env_token
from ..pipeline.diskcache import DiskCache
from ..pipeline.passes import Pass, PassContext, PassManager, run_safara
from ..pipeline.trace import CompileTrace, SessionStats
from ..analysis.cost_model import LatencyModel
from ..transforms.safara import SafaraReport
from ..feedback.driver import (
    FeedbackCompiler,
    backend_latency,
    current_deadline,
    deadline_scope,
)
from .driver import CompiledKernel, CompiledProgram, ProgramTiming
from .guards import GuardedKernel, _compile_guarded
from .options import BASE, CompilerConfig


class _SyntheticTripEnv(dict):
    """An env that answers every lookup with one fixed value.

    The saturation guard profiles two codegen alternatives of the same
    region without knowing the real problem size; any fixed trip count is
    fair because both alternatives are charged identically and the guard
    only compares, never reports, the resulting cycle numbers.
    """

    def __init__(self, value: int):
        super().__init__()
        self._value = value

    def __contains__(self, key) -> bool:
        return True

    def __getitem__(self, key) -> int:
        return self._value

    def get(self, key, default=None) -> int:
        return self._value


@dataclass(frozen=True, slots=True)
class CompileJob:
    """One unit of compilation for :meth:`CompilerSession.compile_job`
    and :meth:`CompilerSession.compile_many`.

    ``env`` is not part of the job's key: a compile does not read problem
    sizes.  It names only the env under which the compile that makes the
    program stores each kernel's timing verdict; a job that hits the
    cache keeps the verdict of the compile that made the program.
    """

    source: str
    config: CompilerConfig = BASE
    kernel_name: str | None = None
    filename: str = "<string>"
    env: dict[str, int] | None = None
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def key(self, pipeline: str | None = None) -> str:
        """The job's cache key under a pass pipeline's ``key_token``
        (``None``: the default pipeline, whose key is derived once)."""
        if pipeline is not None:
            return cache_key(
                self.source, self.config, kernel_name=self.kernel_name, pipeline=pipeline
            )
        if self._key is None:
            key = cache_key(self.source, self.config, kernel_name=self.kernel_name)
            object.__setattr__(self, "_key", key)
        return self._key


class CompilerSession:
    """One compiler service instance: cache + pass pipeline + stats.

    Sessions are cheap; create a private one to isolate statistics or to
    register custom passes.  All methods are thread-safe — ``compile_many``
    drives them from worker threads.
    """

    def __init__(
        self,
        *,
        cache_size: int = 512,
        passes: list[Pass] | None = None,
        max_workers: int | None = None,
        executor: str = "auto",
        cache_dir: "str | None" = None,
        disk_cache: DiskCache | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        #: One registry for the whole session: the cache's hit/miss/evict
        #: counters and the stats' compile/execution counters share it, so
        #: ``session.metrics.as_dict()`` is the single metrics surface.
        #: Pass one in to share the namespace across sessions (the serving
        #: broker gives each worker a session over one registry).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = CompileCache(maxsize=cache_size, metrics=self.metrics)
        #: Optional persistent tier behind the in-memory cache.  A memory
        #: miss consults it before compiling; fresh compiles write through,
        #: so warm starts survive process restarts (``docs/serving.md``).
        if disk_cache is not None:
            self.disk_cache: DiskCache | None = disk_cache
        elif cache_dir is not None:
            self.disk_cache = DiskCache(cache_dir, metrics=self.metrics)
        else:
            self.disk_cache = None
        self.pipeline = PassManager(passes)
        self.stats = SessionStats(self.metrics)
        self.max_workers = max_workers
        #: Default functional-execution engine for :meth:`execute` — one
        #: of :data:`repro.executors.EXECUTOR_NAMES` (``"auto"`` walks the
        #: ladder codegen → scalar).  Validated here so a typo
        #: fails at construction, not on the first execute.
        self.executor = parse_executor(executor).value
        self._lock = threading.Lock()
        #: Built functions by (source hash, filename, kernel name), LRU,
        #: at most ``cache_size``: a source is parsed once per session and
        #: each job compiles a clone (:meth:`_parse_job`).
        self._functions: OrderedDict[tuple, KernelFunction] = OrderedDict()
        self._functions_lock = threading.Lock()

    # -- core compilation --------------------------------------------------

    def compile_function(
        self,
        fn: KernelFunction,
        config: CompilerConfig = BASE,
        *,
        cache_key: str | None = None,
    ) -> CompiledProgram:
        """Compile every offload region of ``fn`` under ``config``.

        The function's IR is mutated by the passes (like a real
        compilation), so compile each ``fn`` once, or a
        :meth:`~repro.ir.module.KernelFunction.clone` of it per
        configuration.  Never cached — the caller owns the IR object; use
        :meth:`compile_source` for the cached path, which parses each
        source once per session and compiles a clone per job (and threads
        its ``cache_key`` through so the resulting :class:`CompileTrace`
        can be joined to the cache entry).
        """
        t0 = time.perf_counter()
        with span(
            "compile.function", function=fn.name, config=config.name
        ) as fn_span:
            program = CompiledProgram(config=config)
            trace = CompileTrace(
                function=fn.name, config=config.name, cache_key=cache_key
            )
            codegen_opts = config.codegen_options()
            for index, region in enumerate(fn.regions(), start=1):
                name = f"{fn.name}_k{index}"
                if config.saturate:
                    vir, info, ctx, region_trace = self._lower_region_guarded(
                        region, fn.symtab, config, codegen_opts, name
                    )
                else:
                    vir, info, ctx, region_trace = self._lower_region(
                        region, fn.symtab, config, codegen_opts, name
                    )
                program.kernels.append(
                    CompiledKernel(
                        name=name,
                        region_id=region.region_id,
                        vir=vir,
                        ptxas=info,
                        safara=ctx.reports.get("safara"),
                        carr_kennedy=ctx.reports.get("carr_kennedy"),
                        licm=ctx.reports.get("licm"),
                        autopar=ctx.reports.get("autopar"),
                        unroll=ctx.reports.get("unroll"),
                        esat=ctx.reports.get("esat"),
                        backend_compilations=ctx.backend_compilations,
                    )
                )
                trace.regions.append(region_trace)
            trace.wall_ms = (time.perf_counter() - t0) * 1000.0
            fn_span.set(kernels=len(program.kernels), wall_ms=trace.wall_ms)
        with self._lock:
            self.stats.record(trace)
            for kernel in program.kernels:
                if kernel.esat is not None:
                    self.stats.record_esat(kernel.esat)
        return program

    def _lower_region(self, region, symtab, config, codegen_opts, name):
        """Run the pass pipeline over one region and lower it: returns
        ``(vir, ptxas_info, pass_context, region_trace)``."""
        ctx = PassContext(
            region=region,
            symtab=symtab,
            config=config,
            options=codegen_opts,
            kernel_name=name,
        )
        region_trace = self.pipeline.run(ctx)
        backend_latency()
        with span("codegen", kernel=name) as cg_span:
            vir = generate_kernel(region, symtab, codegen_opts, name=name)
            info = ptxas_info(vir, config.arch, config.register_limit)
            cg_span.set(
                registers=info.registers, spill_bytes=info.spill_bytes
            )
        ctx.backend_compilations += 1
        return vir, info, ctx, region_trace

    def _lower_region_guarded(self, region, symtab, config, codegen_opts, name):
        """Pressure guard for equality saturation: compile the region both
        with and without the saturated pipeline and keep the saturated
        kernel only when it is *never worse* — no more registers, no more
        spill bytes, and no higher value for any term of the timing model
        (issue cycles, memory latency, memory traffic, measured with
        synthetic trip counts so the verdict is problem-size independent).

        Saturation's rewrites only remove or cheapen instructions at equal
        loop depth, so the one way it can lose is by stretching live
        ranges across an occupancy boundary; compiling both alternatives
        and comparing is the direct check.  The discarded compile's
        backend invocations are still charged to the kernel's count.
        """
        sat_region = clone_region(region)
        base_config = config.derive(saturate=False)
        base = self._lower_region(
            region, symtab, base_config, base_config.codegen_options(), name
        )
        sat = self._lower_region(sat_region, symtab, config, codegen_opts, name)
        applied = self._never_worse(sat, base, config.arch)
        if applied:
            # The function's IR must match the kernel that ships: graft
            # the saturated statements back into the caller-visible region.
            region.body[:] = sat_region.body
            region.directive = sat_region.directive
        chosen, other = (sat, base) if applied else (base, sat)
        vir, info, ctx, region_trace = chosen
        ctx.backend_compilations += other[2].backend_compilations
        report = sat[2].reports.get("esat")
        if report is not None:
            report.applied = applied
            ctx.reports["esat"] = report
        if not applied:
            # The saturation pass did run (on the discarded alternative);
            # surface its trace instead of the base pipeline's skip marker.
            try:
                sat_pass = sat[3].pass_trace("esat")
                skip = region_trace.pass_trace("esat")
                region_trace.passes[region_trace.passes.index(skip)] = sat_pass
            except KeyError:
                pass
        return vir, info, ctx, region_trace

    @staticmethod
    def _never_worse(sat, base, arch: GpuArch) -> bool:
        """True when the saturated alternative cannot be slower under any
        problem size: every input to the timing model is <= the base's."""
        sat_vir, sat_info = sat[0], sat[1]
        base_vir, base_info = base[0], base[1]
        if sat_info.registers > base_info.registers:
            return False
        if sat_info.spill_bytes > base_info.spill_bytes:
            return False
        env = _SyntheticTripEnv(64)
        sp = profile_thread(sat_vir, env, sat_info, arch)
        bp = profile_thread(base_vir, env, base_info, arch)
        eps = 1e-9
        return (
            sp.issue_cycles <= bp.issue_cycles * (1 + eps) + eps
            and sp.mem_latency <= bp.mem_latency * (1 + eps) + eps
            and sp.mem_bytes_warp <= bp.mem_bytes_warp * (1 + eps) + eps
        )

    def compile_source(
        self,
        source: str,
        config: CompilerConfig = BASE,
        *,
        kernel_name: str | None = None,
        filename: str = "<string>",
        env: dict[str, int] | None = None,
    ) -> CompiledProgram:
        """Parse + lower + compile one kernel function from source text,
        memoised in the session's compile cache (:meth:`compile_job`)."""
        program, _tier = self.compile_job(
            CompileJob(
                source=source,
                config=config,
                kernel_name=kernel_name,
                filename=filename,
                env=dict(env) if env else None,
            )
        )
        return program

    def compile_job(self, job: CompileJob) -> tuple[CompiledProgram, str | None]:
        """Compile one job through the cache: returns the program and the
        tier that answered it (``"memory"``, ``"disk"``, or ``None`` for a
        fresh compile)."""
        key = self.job_key(job)
        with span("compile", config=job.config.name, cache_key=key) as sp:
            program, tier = self._cache_lookup(key)
            sp.set(cache_hit=program is not None)
            if program is None:
                program = self._compile_fresh(job, key)
                self._cache_store(key, program)
        return program, tier

    def job_key(self, job: CompileJob) -> str:
        """``job``'s cache key under this session's pass pipeline."""
        return job.key(self.pipeline.key_token)

    def _cache_lookup(self, key: str) -> tuple[CompiledProgram | None, str | None]:
        """Two-tier lookup: memory first, then the persistent tier (a disk
        hit is promoted into the in-memory cache).  Returns the program
        and the tier that held it, ``(None, None)`` on a miss."""
        cached = self.cache.get(key)
        if cached is not None:
            return cached, "memory"
        if self.disk_cache is not None:
            program = self.disk_cache.get(key)
            if program is not None:
                program.bind_detail(self.disk_cache, key)
                self.cache.put(key, program)
                return program, "disk"
        return None, None

    def _cache_store(self, key: str, program: CompiledProgram) -> None:
        self.cache.put(key, program)
        if self.disk_cache is not None:
            self.disk_cache.put(key, program)

    def _parse_job(self, job: CompileJob) -> KernelFunction:
        """A private copy of the job's function to compile: the session
        parses and builds each (source, filename, kernel) once and hands
        every job a :meth:`~repro.ir.module.KernelFunction.clone`, whose
        fresh names and loop ids match a fresh parse's."""
        key = (
            hashlib.sha256(job.source.encode()).hexdigest(),
            job.filename,
            job.kernel_name,
        )
        with self._functions_lock:
            fn = self._functions.get(key)
            if fn is not None:
                self._functions.move_to_end(key)
        if fn is None:
            # Parse outside the lock: workers parsing other sources run on.
            module = build_module(parse_program(job.source, job.filename))
            fn = (
                module.functions[0]
                if job.kernel_name is None
                else module.function(job.kernel_name)
            )
            with self._functions_lock:
                self._functions[key] = fn
                while len(self._functions) > self.cache.maxsize:
                    self._functions.popitem(last=False)
        return fn.clone()

    def _compile_fresh(
        self, job: CompileJob, key: str | None = None
    ) -> CompiledProgram:
        """Compile one job, and store each kernel's timing verdict for one
        launch under the job's env (none where that env cannot time it)."""
        program = self.compile_function(self._parse_job(job), job.config, cache_key=key)
        env = job.env or {}
        program.timing_env = env_token(env)
        for ck in program.kernels:
            try:
                ck.timing = estimate_time(
                    ck.vir,
                    ck.ptxas,
                    env,
                    arch=job.config.arch,
                    issue_scale=job.config.issue_efficiency,
                )
            except TimingUnavailable:
                pass
        return program

    # -- batch compilation -------------------------------------------------

    def compile_many(
        self,
        jobs: "list[CompileJob | tuple]",
        *,
        max_workers: int | None = None,
    ) -> list[CompiledProgram]:
        """Compile a batch of jobs, fanned out over a thread pool.

        Results come back aligned with ``jobs``.  Duplicate jobs (same
        cache key — jobs that differ only in env are duplicates) compile
        once, storing the timing verdict under the first job's env; cache
        hits never reach the pool.  The
        compile core is deterministic, so a parallel batch is bit-identical
        to a serial loop over the same jobs.  The pool pays off only when
        the backend has latency to overlap: compilation is CPU-bound
        Python, so a cold batch with no backend stalls runs no faster
        than a serial loop, and can run slower (docs/pipeline.md).
        """
        jobs = [j if isinstance(j, CompileJob) else CompileJob(*j) for j in jobs]
        results: list[CompiledProgram | None] = [None] * len(jobs)
        indices_for: dict[str, list[int]] = {}
        job_for: dict[str, CompileJob] = {}
        for i, job in enumerate(jobs):
            key = self.job_key(job)
            indices_for.setdefault(key, []).append(i)
            job_for.setdefault(key, job)

        to_compile: list[str] = []
        for key in indices_for:
            cached, _tier = self._cache_lookup(key)
            if cached is not None:
                for i in indices_for[key]:
                    results[i] = cached
            else:
                to_compile.append(key)

        if to_compile:
            workers = max_workers or self.max_workers or min(
                32, (os.cpu_count() or 1) + 4
            )
            workers = max(1, min(workers, len(to_compile)))
            if workers == 1:
                compiled = [self._compile_fresh(job_for[k], k) for k in to_compile]
            else:
                # Backend deadlines are thread-local; re-install the
                # caller's active deadline inside each worker so a batch
                # under deadline_scope() still honors it.
                deadline = current_deadline()

                def compile_one(k: str) -> CompiledProgram:
                    if deadline is None:
                        return self._compile_fresh(job_for[k], k)
                    with deadline_scope(deadline):
                        return self._compile_fresh(job_for[k], k)

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    compiled = list(pool.map(compile_one, to_compile))
            for key, program in zip(to_compile, compiled):
                self._cache_store(key, program)
                for i in indices_for[key]:
                    results[i] = program
        return results  # type: ignore[return-value]

    # -- downstream services ----------------------------------------------

    def time_program(
        self,
        compiled: CompiledProgram,
        env: dict[str, int],
        *,
        launches: dict[str, int] | list[int] | int = 1,
    ) -> ProgramTiming:
        """Evaluate the timing model for every kernel of a compiled program.

        ``launches`` is a global launch count, a per-kernel-name map, or a
        list aligned with region order (benchmarks launch hot kernels once
        per time step).

        Under the env of the compile that made the program (``timing_env``;
        a cache hit under another env keeps it), a kernel's verdict is the
        one stored at compile, scaled to its launch count (the same
        expression :func:`~repro.gpu.timing.estimate_time` uses, so the
        result is bit-identical); under any other env the model walks the
        kernel's VIR, loading it from the disk tier on first use.
        """
        timing = ProgramTiming(program=compiled)
        arch = compiled.config.arch
        stored_env = env_token(env) == compiled.timing_env
        stored = 0
        for idx, ck in enumerate(compiled.kernels):
            if isinstance(launches, int):
                n = launches
            elif isinstance(launches, list):
                n = launches[idx] if idx < len(launches) else 1
            else:
                n = launches.get(ck.name, 1)
            if stored_env and ck.timing is not None:
                stored += 1
                timing.kernels.append(ck.timing.for_launches(n, arch))
                continue
            timing.kernels.append(
                estimate_time(
                    ck.vir,
                    ck.ptxas,
                    env,
                    arch=arch,
                    launches=n,
                    issue_scale=compiled.config.issue_efficiency,
                )
            )
        with self._lock:
            self.stats.record_timing(
                stored=stored, walked=len(compiled.kernels) - stored
            )
        return timing

    def execute(
        self,
        fn: KernelFunction,
        args: dict[str, object],
        *,
        executor: str | None = None,
        content_key: str | None = None,
    ):
        """Run a kernel function functionally through the execution
        ladder (:func:`~repro.gpu.vector_exec.execute_kernel`).

        ``executor`` overrides the session default for one call.
        ``content_key`` (a stable content hash for ``fn``'s source) keys
        the process-wide generated-function cache (together with the
        argument kinds), so repeat executions skip planning and codegen.
        Returns ``(arrays, stats, info)``; the
        :class:`~repro.gpu.vector_exec.ExecutionInfo` is also recorded in
        the session statistics (the ``execution`` section of
        :meth:`stats_dict`).
        """
        from ..gpu.vector_exec import execute_kernel

        arrays, stats, info = execute_kernel(
            fn,
            args,
            executor=executor or self.executor,
            content_key=content_key,
            metrics=self.metrics,
        )
        record = info.as_dict()
        trace_id = current_trace_id()
        if trace_id is not None:
            # Serving tier: the execution record joins the request's
            # flight-recorder trace by this id.
            record["trace_id"] = trace_id
        with self._lock:
            self.stats.record_execution(fn.name, record)
        return arrays, stats, info

    def compile_guarded(
        self,
        region,
        symtab,
        *,
        options: CodegenOptions | None = None,
        arch: "GpuArch | str" = KEPLER_K20XM,
        name: str = "guarded",
    ) -> GuardedKernel:
        """Two-version compilation of one region (paper Section IV)."""
        return _compile_guarded(
            region, symtab, options=options, arch=arch, name=name
        )

    def optimize_region(
        self,
        region,
        symtab,
        *,
        options: CodegenOptions | None = None,
        arch: GpuArch = KEPLER_K20XM,
        register_limit: int | None = None,
        latency: LatencyModel | None = None,
        name: str | None = None,
    ) -> tuple[SafaraReport, FeedbackCompiler]:
        """Run the full SAFARA feedback optimisation on one region.

        Returns the SAFARA trace and the feedback compiler (whose
        ``history`` holds every intermediate PTXAS report).
        """
        report, feedback = run_safara(
            region,
            symtab,
            options=options or CodegenOptions(),
            arch=arch,
            register_limit=register_limit,
            latency=latency,
            name=name,
        )
        with self._lock:
            self.stats.record_feedback_optimization()
        return report, feedback

    # -- introspection -----------------------------------------------------

    def stats_dict(self) -> dict:
        """The session's statistics (and cache counters) as JSON-ready data."""
        d = self.stats.as_dict()
        d["cache"] = self.cache.as_dict()
        if self.disk_cache is not None:
            d["cache"]["disk"] = self.disk_cache.as_dict()
        return d

    def reset(self) -> None:
        """Drop cached programs and parsed functions, and zero every
        counter and trace.  The persistent tier keeps its entries (that
        is its purpose); use ``session.disk_cache.clear()`` to wipe it
        too."""
        self.cache.reset()
        with self._functions_lock:
            self._functions.clear()
        with self._lock:
            self.stats.reset()


_default_session: CompilerSession | None = None
_default_lock = threading.Lock()


def default_session() -> CompilerSession:
    """The process-wide session behind the :mod:`repro` facade."""
    global _default_session
    if _default_session is None:
        with _default_lock:
            if _default_session is None:
                _default_session = CompilerSession()
    return _default_session


def compile_many(
    jobs: "list[CompileJob | tuple]", *, max_workers: int | None = None
) -> list[CompiledProgram]:
    """Batch-compile through the default session (see
    :meth:`CompilerSession.compile_many`)."""
    return default_session().compile_many(jobs, max_workers=max_workers)
