"""The pass pipeline: a first-class ``Pass``/``PassManager`` abstraction.

The driver's historical region pipeline (auto-parallelisation → LICM →
optional unrolling → optional Carr-Kennedy → optional SAFARA) is expressed
as five :class:`Pass` objects registered into a :class:`PassManager`.  The
manager owns ordering and instrumentation: every run yields a
:class:`~repro.pipeline.trace.RegionTrace` with per-pass wall time,
IR-size delta, and — for passes that drive the backend — the register
climb read from the :class:`~repro.feedback.driver.FeedbackCompiler`
history.

Passes mutate the region IR in place, exactly like the transformations
they wrap; a region must therefore come from a fresh parse per
configuration, as always.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis.cost_model import LatencyModel
from ..codegen.kernelgen import CodegenOptions
from ..feedback.driver import FeedbackCompiler
from ..gpu.arch import GpuArch, KEPLER_K20XM
from ..gpu.registers import PtxasInfo
from ..ir.stmt import Region, walk_stmts
from ..ir.symbols import SymbolTable
from ..obs.tracer import span as obs_span
from ..transforms.autopar import auto_parallelize
from ..transforms.carr_kennedy import apply_carr_kennedy
from ..transforms.licm import apply_licm
from ..transforms.safara import SafaraReport, apply_safara
from ..transforms.unroll import apply_unrolling
from .trace import PassTrace, RegionTrace

# CompilerConfig is only needed for type context; imported lazily in
# signatures to keep repro.pipeline free of a hard compiler dependency.


def ir_size(region: Region) -> int:
    """Statement count of a region (the instrumented IR-size metric)."""
    return sum(1 for _ in walk_stmts(region.body))


@dataclass(slots=True)
class PassContext:
    """Everything a pass may read or write while processing one region."""

    region: Region
    symtab: SymbolTable
    config: "object"  # CompilerConfig; untyped to avoid an import cycle
    options: CodegenOptions
    kernel_name: str
    #: Backend compilations attributed to the whole region compile.  The
    #: final code generation adds one more after the pipeline finishes.
    backend_compilations: int = 1
    #: Reports keyed by each pass's ``report_key`` (consumed by the driver
    #: to populate :class:`~repro.compiler.driver.CompiledKernel`).
    reports: dict[str, object] = field(default_factory=dict)
    #: Set by a pass that ran the backend: the PTXAS history it produced.
    ptxas_history: list[PtxasInfo] | None = None


class Pass:
    """One unit of the region pipeline.

    Subclasses set ``name`` (the trace/CLI identifier), optionally
    ``report_key`` (where the returned report lands in
    ``PassContext.reports``), override :meth:`enabled` to gate on the
    configuration, and implement :meth:`run`.
    """

    name: str = "pass"
    report_key: str | None = None

    def enabled(self, config) -> bool:
        return True

    def run(self, ctx: PassContext):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class AutoParallelizePass(Pass):
    """``kernels``-construct lowering: map undirected loops automatically
    (paper Section II-C; OpenUH reference [16])."""

    name = "autopar"
    report_key = "autopar"

    def run(self, ctx: PassContext):
        return auto_parallelize(ctx.region)


class LicmPass(Pass):
    """Baseline global optimisation (WOPT): invariant-load hoisting runs
    in every configuration."""

    name = "licm"
    report_key = "licm"

    def run(self, ctx: PassContext):
        return apply_licm(ctx.region, ctx.symtab)


class UnrollPass(Pass):
    """Innermost-loop unrolling (the paper's future-work combination),
    followed by a LICM re-run: unrolling may expose new invariants."""

    name = "unroll"
    report_key = "unroll"

    def enabled(self, config) -> bool:
        return config.unroll_factor > 1

    def run(self, ctx: PassContext):
        report = apply_unrolling(
            ctx.region, ctx.symtab, factor=ctx.config.unroll_factor
        )
        apply_licm(ctx.region, ctx.symtab)
        return report


class EsatPass(Pass):
    """Equality saturation + extraction (:mod:`repro.esat`): canonicalize
    every expression of the region so equal-but-differently-spelled
    subscripts and subexpressions become structurally identical before
    the scalar-replacement passes group references.  Runs after
    unrolling (unrolled bodies are where duplicate spellings bloom) and
    before Carr-Kennedy/SAFARA (the consumers of the canonical forms)."""

    name = "esat"
    report_key = "esat"

    def enabled(self, config) -> bool:
        return getattr(config, "saturate", False)

    def run(self, ctx: PassContext):
        from ..esat import saturate_region

        return saturate_region(
            ctx.region, weights=ctx.config.extraction_weights()
        )


class CarrKennedyPass(Pass):
    """The classic scalar-replacement baseline (paper Section III-A)."""

    name = "carr-kennedy"
    report_key = "carr_kennedy"

    def enabled(self, config) -> bool:
        return config.carr_kennedy

    def run(self, ctx: PassContext):
        return apply_carr_kennedy(
            ctx.region,
            ctx.symtab,
            register_budget=ctx.config.ck_register_budget,
            intra_only=ctx.config.ck_intra_only,
        )


def run_safara(
    region: Region,
    symtab: SymbolTable,
    *,
    options: CodegenOptions,
    arch: GpuArch = KEPLER_K20XM,
    register_limit: int | None = None,
    latency: LatencyModel | None = None,
    name: str | None = None,
    max_candidates: int | None = None,
) -> tuple[SafaraReport, FeedbackCompiler]:
    """The SAFARA feedback loop core: compile → read PTXAS info → replace.

    Shared by :class:`SafaraPass` and
    :meth:`~repro.compiler.session.CompilerSession.optimize_region`;
    returns the SAFARA trace and the feedback compiler whose ``history``
    holds every intermediate PTXAS report.
    """
    feedback = FeedbackCompiler(
        symtab=symtab,
        options=options,
        arch=arch,
        register_limit=register_limit,
        name=name,
    )
    report = apply_safara(
        region,
        symtab,
        feedback,
        register_limit=register_limit or arch.max_registers_per_thread,
        has_readonly_cache=options.readonly_cache and arch.has_readonly_cache,
        latency=latency or arch.latency,
        max_candidates=max_candidates,
    )
    return report, feedback


class SafaraPass(Pass):
    """SAFARA: feedback-driven, latency-aware scalar replacement
    (paper Section III-B)."""

    name = "safara"
    report_key = "safara"

    def enabled(self, config) -> bool:
        return config.safara

    def run(self, ctx: PassContext):
        config = ctx.config
        report, feedback = run_safara(
            ctx.region,
            ctx.symtab,
            options=ctx.options,
            arch=config.arch,
            register_limit=config.register_limit,
            latency=config.latency or config.arch.latency,
            name=ctx.kernel_name,
            max_candidates=config.safara_max_candidates,
        )
        ctx.backend_compilations = feedback.compilations
        ctx.ptxas_history = feedback.history
        return report


#: Canonical order of the paper's region pipeline, by registry key.
DEFAULT_PASS_ORDER = (
    "autopar", "licm", "unroll", "esat", "carr-kennedy", "safara",
)


def default_passes() -> list[Pass]:
    """The paper's region pipeline, in its canonical order.

    Instantiated through the :mod:`~repro.pipeline.registry`, so a
    subclass registered over a default key (e.g. a project-specific
    ``safara``) replaces the stock pass in every new session."""
    return [cls() for cls in _default_pass_classes()]


def _default_pass_classes() -> list[type[Pass]]:
    from .registry import PASSES

    return [PASSES.get(key) for key in DEFAULT_PASS_ORDER]


class PassManager:
    """Runs registered passes over one region and instruments each one."""

    def __init__(self, passes: list[Pass] | None = None):
        self.passes: list[Pass] = (
            list(passes) if passes is not None else default_passes()
        )
        self._update_key_token()

    def register(
        self,
        p: Pass,
        *,
        before: str | None = None,
        after: str | None = None,
    ) -> Pass:
        """Add a pass (appended by default, or anchored to an existing
        pass's ``name`` with ``before=``/``after=``)."""
        if before is not None and after is not None:
            raise ValueError("give at most one of before/after")
        anchor = before or after
        if anchor is None:
            self.passes.append(p)
        else:
            for i, existing in enumerate(self.passes):
                if existing.name == anchor:
                    self.passes.insert(i if before else i + 1, p)
                    break
            else:
                raise KeyError(f"no pass named {anchor!r}")
        self._update_key_token()
        return p

    def _update_key_token(self) -> None:
        classes = [type(p) for p in self.passes]
        #: What this pipeline adds to a compile's cache key: ``None`` for
        #: the default pass classes in the default order, so stock keys
        #: stay as they are; otherwise the classes' qualified names, so a
        #: custom pipeline never shares cached programs with another.
        self.key_token: str | None = (
            None
            if classes == _default_pass_classes()
            else ",".join(f"{c.__module__}.{c.__qualname__}" for c in classes)
        )

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, ctx: PassContext) -> RegionTrace:
        """Run every enabled pass over ``ctx.region``, in order."""
        trace = RegionTrace(kernel=ctx.kernel_name)
        with obs_span("pipeline", kernel=ctx.kernel_name):
            for p in self.passes:
                if not p.enabled(ctx.config):
                    trace.passes.append(PassTrace(name=p.name, ran=False))
                    continue
                ctx.ptxas_history = None
                compilations_before = ctx.backend_compilations
                before = ir_size(ctx.region)
                with obs_span(f"pass:{p.name}", kernel=ctx.kernel_name) as sp:
                    t0 = time.perf_counter()
                    report = p.run(ctx)
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                    entry = PassTrace(
                        name=p.name,
                        ran=True,
                        wall_ms=wall_ms,
                        ir_before=before,
                        ir_after=ir_size(ctx.region),
                    )
                    if ctx.ptxas_history:
                        entry.registers_before = ctx.ptxas_history[0].registers
                        entry.registers_after = ctx.ptxas_history[-1].registers
                        entry.backend_compilations = len(ctx.ptxas_history)
                    elif ctx.backend_compilations != compilations_before:
                        entry.backend_compilations = (
                            ctx.backend_compilations - compilations_before
                        )
                    sp.set(
                        ir_delta=entry.ir_delta,
                        backend_compilations=entry.backend_compilations,
                    )
                    if entry.registers_after is not None:
                        sp.set(registers=entry.registers_after)
                if report is not None and p.report_key:
                    ctx.reports[p.report_key] = report
                trace.passes.append(entry)
        return trace
