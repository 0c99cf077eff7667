"""Kernel execution profiler: per-kernel reports over compiled programs.

Ties together the analyses the compiler already runs — memory-space
classification (Section III-B.1), coalescing classification (Section
III-A.2), the ptxas-simulator's register report, the CUDA occupancy
rules, and the vectorized-execution planner — into one per-kernel view a
human can read (``repro profile <file>``) or a tool can consume
(:meth:`ProgramProfile.as_dict`).

Each kernel also carries the guard census of its generated NumPy
program (``codegen.guards.static`` / ``.dynamic``: guards discharged at
generation or launch time vs still checked per operation — see
:mod:`repro.codegen.numpy_source`), for launches whose arguments follow
the declared types.

The profile is taken over the *post-pipeline* IR (the function object
passed to :meth:`~repro.compiler.session.CompilerSession.compile_function`
has been mutated by the passes), so it reflects the code that was
actually compiled: SAFARA-replaced loads disappear from the global-memory
rows, exactly the effect the paper's feedback loop exists to create.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.coalescing import classify_access
from ..analysis.loopinfo import analyze_loops
from ..analysis.memspace import classify_memspaces
from ..codegen.numpy_source import CodegenUnsupported, guard_census
from ..codegen.vector_lower import AXIS, plan_kernel
from ..gpu.occupancy import compute_occupancy
from ..ir.expr import ArrayRef, array_refs
from ..ir.stmt import Assign, Region, loops_in, stmt_exprs, walk_stmts


@dataclass(slots=True)
class TrafficEntry:
    """Static reference counts for one (array, space, pattern) class."""

    array: str
    space: str  # "global" | "readonly"
    pattern: str  # "coalesced" | "uncoalesced" | "uniform" | "unknown"
    loads: int = 0
    stores: int = 0
    #: Element stride between adjacent threads (1 coalesced, 0 uniform,
    #: None unknown/symbolic).
    stride: int | None = None

    def as_dict(self) -> dict:
        return {
            "array": self.array,
            "space": self.space,
            "pattern": self.pattern,
            "loads": self.loads,
            "stores": self.stores,
            "stride": self.stride,
        }


@dataclass(slots=True)
class LoopDecision:
    """The vector planner's verdict for one loop of the region."""

    var: str
    parallel: bool
    mode: str  # "axis" | "seq"
    #: Demotion reason for parallel loops executed sequentially.
    reason: str | None = None

    def as_dict(self) -> dict:
        return {
            "var": self.var,
            "parallel": self.parallel,
            "mode": self.mode,
            "reason": self.reason,
        }


@dataclass(slots=True)
class KernelProfile:
    """Everything observable about one compiled kernel."""

    kernel: str
    registers: int
    raw_pressure: int
    spilled_values: int
    spill_bytes: int
    backend_compilations: int
    threads_per_block: int
    occupancy: float
    active_warps: int
    occupancy_limited_by: str
    safara: dict | None = None
    traffic: list[TrafficEntry] = field(default_factory=list)
    loops: list[LoopDecision] = field(default_factory=list)
    #: ``{"static": n, "dynamic": m}`` guards of the generated program's
    #: code for this kernel; ``None`` when it runs on the scalar tier.
    guards: dict | None = None

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "registers": self.registers,
            "raw_pressure": self.raw_pressure,
            "spilled_values": self.spilled_values,
            "spill_bytes": self.spill_bytes,
            "backend_compilations": self.backend_compilations,
            "threads_per_block": self.threads_per_block,
            "occupancy": round(self.occupancy, 4),
            "active_warps": self.active_warps,
            "occupancy_limited_by": self.occupancy_limited_by,
            "safara": self.safara,
            "traffic": [t.as_dict() for t in self.traffic],
            "loops": [l.as_dict() for l in self.loops],
            "guards": self.guards,
        }


@dataclass(slots=True)
class ProgramProfile:
    """Per-kernel profiles for one compiled program."""

    function: str
    config: str
    kernels: list[KernelProfile] = field(default_factory=list)
    #: Optional dynamic-execution section attached by callers that ran the
    #: kernel (``repro profile --run``).
    execution: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "function": self.function,
            "config": self.config,
            "kernels": [k.as_dict() for k in self.kernels],
        }
        if self.execution is not None:
            out["execution"] = self.execution
        return out

    def render(self) -> str:
        """The ``repro profile`` report text."""
        lines = [f"== profile: {self.function} (config {self.config}) =="]
        for k in self.kernels:
            spill = (
                f", {k.spill_bytes} spill bytes ({k.spilled_values} values)"
                if k.spill_bytes
                else ""
            )
            lines.append(
                f"kernel {k.kernel}: {k.registers} registers "
                f"(raw pressure {k.raw_pressure}{spill}), "
                f"{k.backend_compilations} backend compiles"
            )
            lines.append(
                f"  occupancy {k.occupancy:.2f} ({k.active_warps} warps, "
                f"limited by {k.occupancy_limited_by}), "
                f"{k.threads_per_block} threads/block"
            )
            if k.safara is not None:
                lines.append(
                    f"  safara: {k.safara['iterations']} iterations, "
                    f"{k.safara['groups_replaced']} groups replaced, "
                    f"converged: {k.safara['converged_reason']}"
                )
            lines.append("  memory traffic (static references):")
            for t in k.traffic:
                stride = f"stride {t.stride}" if t.stride is not None else "stride ?"
                lines.append(
                    f"    {t.array:<12} {t.space:<9} {t.pattern:<12} "
                    f"{t.loads:>3} loads {t.stores:>3} stores  ({stride})"
                )
            if not k.traffic:
                lines.append("    (no array references)")
            lines.append("  loops (vector planner):")
            for l in k.loops:
                kind = "parallel" if l.parallel else "seq-directive"
                verdict = l.mode
                if l.reason:
                    verdict += f" — {l.reason}"
                lines.append(f"    {l.var:<4} {kind:<14} {verdict}")
            if not k.loops:
                lines.append("    (no loops)")
            if k.guards is None:
                lines.append("  generated code: none (scalar tier)")
            else:
                lines.append(
                    f"  generated code: codegen.guards.static={k.guards['static']} "
                    f"codegen.guards.dynamic={k.guards['dynamic']}"
                )
        if self.execution is not None:
            e = self.execution
            lines.append(
                f"execution: executor={e['used']} loads={e['loads']} "
                f"stores={e['stores']} flops={e['flops']} "
                f"iterations={e['iterations']}"
            )
            if e.get("fallback_reason"):
                lines.append(f"  fallback: {e['fallback_reason']}")
        return "\n".join(lines)


def _collect_traffic(region: Region, has_readonly_cache: bool) -> list[TrafficEntry]:
    """Static load/store reference counts by (array, space, pattern)."""
    info = analyze_loops(region)
    vector_var = info.vector_var
    divergent = frozenset(info.divergent_symbols())
    spaces = classify_memspaces(region, has_readonly_cache=has_readonly_cache)

    buckets: dict[tuple, TrafficEntry] = {}

    def account(ref: ArrayRef, *, store: bool) -> None:
        access = classify_access(ref, vector_var, divergent)
        space = spaces.get(ref.sym)
        key = (
            ref.sym.name,
            space.value if space is not None else "global",
            access.pattern.value,
        )
        entry = buckets.get(key)
        if entry is None:
            entry = buckets[key] = TrafficEntry(
                array=key[0], space=key[1], pattern=key[2],
                stride=access.stride_elems,
            )
        if store:
            entry.stores += 1
        else:
            entry.loads += 1

    for stmt in walk_stmts(region.body):
        if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef):
            account(stmt.target, store=True)
            # Subscripts of the store target are themselves loads.
            for index in stmt.target.indices:
                for ref in array_refs(index):
                    account(ref, store=False)
            for ref in array_refs(stmt.value):
                account(ref, store=False)
            continue
        for expr in stmt_exprs(stmt):
            for ref in array_refs(expr):
                account(ref, store=False)
    return sorted(
        buckets.values(), key=lambda t: (t.array, t.space, t.pattern)
    )


def profile_program(program, fn) -> ProgramProfile:
    """Profile every kernel of a :class:`CompiledProgram`; ``fn`` is the
    function it was compiled from, after the passes ran over it."""
    config = program.config
    options = config.codegen_options()
    has_ro = options.readonly_cache and config.arch.has_readonly_cache
    plan = plan_kernel(fn)
    census = {}
    if plan.has_axes:
        try:
            census = guard_census(fn, plan)
        except CodegenUnsupported:
            pass

    profile = ProgramProfile(function=fn.name, config=config.name)
    regions = {r.region_id: r for r in fn.regions()}
    for ck in program.kernels:
        region = regions[ck.region_id]
        occ = compute_occupancy(
            ck.ptxas.registers,
            ck.vir.launch.threads_per_block,
            arch=config.arch,
        )
        safara = None
        if ck.safara is not None:
            safara = {
                "iterations": len(ck.safara.iterations),
                "groups_replaced": ck.safara.groups_replaced,
                "final_registers": ck.safara.final_registers,
                "register_limit": ck.safara.register_limit,
                "converged_reason": ck.safara.converged_reason,
            }
        kp = KernelProfile(
            kernel=ck.name,
            registers=ck.ptxas.registers,
            raw_pressure=ck.ptxas.raw_pressure,
            spilled_values=ck.ptxas.spilled_vregs,
            spill_bytes=ck.ptxas.spill_bytes,
            backend_compilations=ck.backend_compilations,
            threads_per_block=ck.vir.launch.threads_per_block,
            occupancy=occ.occupancy,
            active_warps=occ.active_warps,
            occupancy_limited_by=occ.limited_by,
            safara=safara,
            traffic=_collect_traffic(region, has_ro),
        )
        if ck.region_id in census:
            static, dynamic = census[ck.region_id]
            kp.guards = {"static": static, "dynamic": dynamic}
        for loop in loops_in(region.body):
            lp = plan.by_loop_id.get(loop.loop_id)
            kp.loops.append(
                LoopDecision(
                    var=loop.var.name,
                    parallel=loop.is_parallel,
                    mode=lp.mode if lp is not None else "seq",
                    reason=lp.reason if lp is not None else None,
                )
            )
        profile.kernels.append(kp)
    return profile


def profile_source(
    source: str, config=None, *, session=None, filename: str = "<string>"
) -> ProgramProfile:
    """Compile a clone of ``source``'s first function (uncached, through
    ``session`` or the default one) and profile the result."""
    from ..compiler.options import SMALL_DIM_SAFARA
    from ..compiler.session import default_session

    session = session if session is not None else default_session()
    config = config if config is not None else SMALL_DIM_SAFARA
    fn = session.function(source, filename=filename).clone()
    return profile_program(session.compile_function(fn, config), fn)
