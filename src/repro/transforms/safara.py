"""SAFARA — StAtic Feedback-bAsed Register allocation Assistant for GPUs.

The paper's core algorithm (Section III-B), with all three components:

1. **Parallel-loop guard** — inter-iteration scalar replacement is applied
   only to sequential loops; parallel loops get intra-iteration replacement
   only, so the transformation can never sequentialise them (fixes the
   first Carr-Kennedy limitation, Figures 3–4).

2. **GPU-aware cost model** — candidates are classified by memory space
   (global vs read-only cache) and coalescing, then priced as
   ``reference_count × memory_access_latency`` and sorted from higher to
   lower cost (fixes the second limitation, Section III-A.2).

3. **Iterative assembler feedback** — the region is compiled with the
   backend, the (simulated) ``PTXAS info`` register count is fed back, the
   available-register budget is computed against the hardware limit, and
   the top-cost candidates that fit are replaced.  The loop repeats until
   registers are saturated or no candidates remain (Section III-B.2/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..analysis.coalescing import classify_access
from ..analysis.cost_model import Candidate, LatencyModel, price_candidates
from ..analysis.loopinfo import analyze_loops
from ..analysis.memspace import classify_memspaces
from ..analysis.reuse import GroupKind, find_reuse_groups
from ..ir.stmt import Loop, Region
from ..ir.symbols import SymbolTable
from ..obs.tracer import span
from .carr_kennedy import _parent_stmts
from .scalar_replacement import ReplacementResult, can_replace, replace_group


class HasRegisters(Protocol):
    registers: int


@dataclass(slots=True)
class SafaraIteration:
    """One feedback round."""

    registers_before: int
    available: int
    applied: list[ReplacementResult] = field(default_factory=list)

    @property
    def registers_requested(self) -> int:
        return sum(
            r.group.temporaries_needed()
            * (r.group.array.array.elem.registers if r.group.array.array else 1)
            for r in self.applied
        )


@dataclass(slots=True)
class SafaraReport:
    """Full trace of a SAFARA run on one region."""

    iterations: list[SafaraIteration] = field(default_factory=list)
    final_registers: int = 0
    register_limit: int = 0

    @property
    def groups_replaced(self) -> int:
        return sum(len(it.applied) for it in self.iterations)

    @property
    def converged_reason(self) -> str:
        if not self.iterations:
            return "no-candidates"
        if self.final_registers >= self.register_limit:
            return "registers-saturated"
        return "candidates-exhausted"


def collect_candidates(
    region: Region,
    has_readonly_cache: bool = True,
    latency: LatencyModel | None = None,
) -> list[Candidate]:
    """All currently replaceable reuse groups of a region, priced and
    ranked by descending cost.

    The parallel-loop guard is applied here: on parallel loops only INTRA
    groups survive; sequential loops additionally contribute INVARIANT and
    read-only INTER groups.
    """
    info = analyze_loops(region)
    vector_var = info.vector_var
    divergent = frozenset(info.divergent_symbols())
    spaces = classify_memspaces(region, has_readonly_cache=has_readonly_cache)
    groups = []
    for loop in info.loops:
        allow_inter = not loop.is_parallel
        for group in find_reuse_groups(loop):
            if loop.is_parallel and group.kind is not GroupKind.INTRA:
                continue
            if not can_replace(group, allow_inter=allow_inter):
                continue
            groups.append(group)
    accesses = {
        g.generator.ref: classify_access(g.generator.ref, vector_var, divergent)
        for g in groups
    }
    return price_candidates(groups, spaces, accesses, latency)


def apply_safara(
    region: Region,
    symtab: SymbolTable,
    feedback: Callable[[Region], HasRegisters],
    register_limit: int = 255,
    has_readonly_cache: bool = True,
    latency: LatencyModel | None = None,
    max_iterations: int = 16,
    max_candidates: int | None = None,
) -> SafaraReport:
    """Run the full SAFARA loop on one offload region (paper Sec. III-B.4):

    1. compile without further replacement; read back register usage;
    2. compute ``available = register_limit - used``;
    3. replace the most beneficial candidates that fit;
    4. repeat until saturation or exhaustion.

    ``max_candidates`` caps how many (top-cost) candidates each iteration
    may consider — the autotuner's candidate-budget knob.  ``None`` keeps
    the paper's behavior (consider every candidate that fits).
    """
    report = SafaraReport(register_limit=register_limit)
    for i in range(max_iterations):
        with span("safara.iteration", iteration=i) as sp:
            info = feedback(region)
            available = register_limit - info.registers
            sp.set(registers=info.registers, available=available)
            if available <= 0:
                report.final_registers = info.registers
                return report
            candidates = collect_candidates(
                region, has_readonly_cache=has_readonly_cache, latency=latency
            )
            if max_candidates is not None:
                candidates = candidates[:max_candidates]
            sp.set(candidates=len(candidates))
            if not candidates:
                report.final_registers = info.registers
                return report
            iteration = SafaraIteration(
                registers_before=info.registers, available=available
            )
            budget = available
            for cand in candidates:
                if cand.registers_needed > budget:
                    continue
                loop = cand.group.loop
                parent = _parent_stmts(region, loop)
                result = replace_group(parent, loop, cand.group, symtab)
                iteration.applied.append(result)
                budget -= cand.registers_needed
            sp.set(replaced=len(iteration.applied))
            if not iteration.applied:
                report.final_registers = info.registers
                return report
            report.iterations.append(iteration)
    report.final_registers = feedback(region).registers
    return report
