"""Benchmark execution: compile each spec under each compiler
configuration and evaluate the timing model at the spec's problem size.

Runs route through a :class:`~repro.compiler.session.CompilerSession`
(the module-level default unless one is passed), so repeated experiment
sweeps over the same (source, config, env) tuples hit the session's
content-addressed compile cache, and multi-config runs are one batch
through :meth:`~repro.compiler.session.CompilerSession.compile_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler.driver import CompiledProgram, ProgramTiming
from ..compiler.options import CompilerConfig
from ..compiler.session import CompileJob, CompilerSession, default_session
from .core import BenchmarkSpec


@dataclass(slots=True)
class BenchmarkResult:
    """One (benchmark, configuration) cell."""

    spec: BenchmarkSpec
    config: CompilerConfig
    compiled: CompiledProgram
    timing: ProgramTiming

    @property
    def total_ms(self) -> float:
        return self.timing.total_ms

    @property
    def registers(self) -> list[int]:
        return [k.registers for k in self.compiled.kernels]

    @property
    def max_registers(self) -> int:
        return max(self.registers, default=0)

    def kernel_registers(self, index: int) -> int:
        return self.compiled.kernels[index].registers


def benchmark_job(spec: BenchmarkSpec, config: CompilerConfig) -> CompileJob:
    """The batch-compilation job for one (benchmark, configuration) cell."""
    return CompileJob(source=spec.source, config=config, env=dict(spec.env))


def run_benchmark(
    spec: BenchmarkSpec,
    config: CompilerConfig,
    *,
    session: CompilerSession | None = None,
) -> BenchmarkResult:
    """Compile (fresh parse on a cache miss) and time one benchmark under
    one config."""
    session = session or default_session()
    compiled = session.compile_source(spec.source, config, env=dict(spec.env))
    timing = session.time_program(compiled, dict(spec.env), launches=spec.launches)
    return BenchmarkResult(spec=spec, config=config, compiled=compiled, timing=timing)


def run_configs(
    spec: BenchmarkSpec,
    configs: list[CompilerConfig],
    *,
    session: CompilerSession | None = None,
) -> dict[str, BenchmarkResult]:
    """Run one benchmark under several configurations (batch-compiled)."""
    session = session or default_session()
    programs = session.compile_many([benchmark_job(spec, cfg) for cfg in configs])
    results: dict[str, BenchmarkResult] = {}
    for cfg, compiled in zip(configs, programs):
        timing = session.time_program(
            compiled, dict(spec.env), launches=spec.launches
        )
        results[cfg.name] = BenchmarkResult(
            spec=spec, config=cfg, compiled=compiled, timing=timing
        )
    return results


def speedups_over(
    base: str, results: dict[str, BenchmarkResult]
) -> dict[str, float]:
    """Speedup of every configuration relative to ``base``."""
    base_ms = results[base].total_ms
    return {name: base_ms / r.total_ms for name, r in results.items()}
