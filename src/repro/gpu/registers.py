"""The ``ptxas`` simulator: liveness analysis + register allocation over VIR.

The paper's feedback loop (Section III-B.2) depends on the vendor
assembler's ``PTXAS Info`` report — the only place hardware register usage
becomes visible.  This module reproduces that interface:

* exact live intervals over the structured VIR instruction list (with
  back-edge extension inside loops, so rotating scalar-replacement
  temporaries are correctly live across iterations);
* register demand = maximum overlap of live intervals, in 32-bit units
  (64-bit values cost two, Section IV-B);
* when demand exceeds a limit, intervals are spilled longest-first to
  local memory, producing the spill loads/stores the timing model charges.

The resulting :class:`PtxasInfo` mirrors the fields of real ``ptxas -v``
output (``Used N registers, M bytes spill stores, K bytes spill loads``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from ..codegen.vir import Instr, MARKER_OPS, Op, VirKernel, VReg
from ..pickling import positional_pickle
from .arch import GpuArch, KEPLER_K20XM


@dataclass(slots=True)
class LiveInterval:
    """Half-open live range [start, end] in instruction positions."""

    vreg: VReg
    start: int
    end: int
    use_count: int = 0

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@positional_pickle
@dataclass(slots=True)
class PtxasInfo:
    """The feedback record the compiler reads back (paper: "PTXAS Info")."""

    kernel_name: str
    registers: int
    spilled_vregs: int = 0
    spill_loads: int = 0
    spill_stores: int = 0
    spill_bytes: int = 0
    raw_pressure: int = 0  # before the limit was applied

    def summary(self) -> str:
        """Human-readable line in the style of ``ptxas -v``."""
        text = f"ptxas info : Used {self.registers} registers"
        if self.spill_bytes:
            text += (
                f", {self.spill_bytes} bytes spill stores/loads"
                f" ({self.spilled_vregs} values)"
            )
        return f"{text} — {self.kernel_name}"


_LOOP_BEGIN = Op.LOOP_BEGIN
_LOOP_END = Op.LOOP_END
_interval_order = attrgetter("start", "end")


def compute_live_intervals(instrs: list[Instr]) -> list[LiveInterval]:
    """Live intervals with loop back-edge extension.

    Rules (conservative, exact enough for structured code):

    1. base interval = [first def/use, last def/use];
    2. a vreg occurring both inside a loop region and outside it is live
       through the whole region;
    3. a vreg used inside a loop at a position before its first in-loop
       definition receives its value from the previous iteration — it is
       live across the back edge, hence through the whole region.

    One pass over the instructions builds every interval (rule 1) and,
    per loop region, each occurring vreg's rule-3 verdict: whether the
    first in-region instruction it occurs in uses it without defining
    it.  Rules 2 and 3 then visit the regions inner first, each touching
    only the vregs that occur in it.  A widening stays inside every
    region enclosing the one that made it, so the outer regions' rule-2
    test reads the same verdict off the widened interval.
    """
    intervals: dict[int, LiveInterval] = {}
    #: Per open loop region: its begin position and, per vreg occurring
    #: in it so far, the rule-3 verdict of its first occurrence.
    open_loops: list[tuple[int, dict[int, bool]]] = []
    regions: list[tuple[int, int, dict[int, bool]]] = []
    for pos, ins in enumerate(instrs):
        op = ins.op
        if op is _LOOP_BEGIN:
            open_loops.append((pos, {}))
        srcs = ins.srcs
        dst = ins.dst
        dst2 = ins.dst2
        for reg in srcs:
            iv = intervals.get(reg.id)
            if iv is None:
                intervals[reg.id] = LiveInterval(reg, pos, pos, 1)
            else:
                iv.end = pos
                iv.use_count += 1
        for reg in (dst, dst2):
            if reg is not None:
                iv = intervals.get(reg.id)
                if iv is None:
                    intervals[reg.id] = LiveInterval(reg, pos, pos, 0)
                else:
                    iv.end = pos
        if open_loops:
            for _, seen in open_loops:
                # Definitions first: an instruction that defines the vreg
                # it also reads does not take it from the previous
                # iteration.
                if dst is not None and dst.id not in seen:
                    seen[dst.id] = False
                if dst2 is not None and dst2.id not in seen:
                    seen[dst2.id] = False
                for reg in srcs:
                    if reg.id not in seen:
                        seen[reg.id] = True
            if op is _LOOP_END:
                begin, seen = open_loops.pop()
                regions.append((begin, pos, seen))

    for begin, end, seen in regions:
        for key, live_in in seen.items():
            iv = intervals[key]
            if iv.start < begin or iv.end > end:
                # Rule 2.
                iv.start = min(iv.start, begin)
                iv.end = max(iv.end, end)
            elif live_in:
                # Rule 3.
                iv.start = begin
                iv.end = end
    return sorted(intervals.values(), key=_interval_order)


def max_pressure(intervals: list[LiveInterval]) -> int:
    """Maximum simultaneous demand in 32-bit register units."""
    events: list[tuple[int, int]] = []
    for iv in intervals:
        events.append((iv.start, iv.vreg.units))
        events.append((iv.end + 1, -iv.vreg.units))
    events.sort()
    cur = best = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


@dataclass(slots=True)
class AllocationResult:
    info: PtxasInfo
    intervals: list[LiveInterval] = field(default_factory=list)
    spilled: list[LiveInterval] = field(default_factory=list)


def allocate(
    kernel: VirKernel,
    arch: GpuArch = KEPLER_K20XM,
    register_limit: int | None = None,
    reserved_registers: int = 2,
) -> AllocationResult:
    """Run the ptxas-simulator on one kernel.

    ``register_limit`` defaults to the architecture's per-thread maximum
    (255 on Kepler).  ``reserved_registers`` models the handful ptxas keeps
    for its own use (call/return state).
    """
    limit = register_limit or arch.max_registers_per_thread
    intervals = compute_live_intervals(kernel.instrs)
    demand = max_pressure(intervals) + reserved_registers

    spilled: list[LiveInterval] = []
    if demand > limit:
        # Spill longest-lived values first (classic linear-scan heuristic);
        # each spill replaces the long interval with per-use short reloads,
        # modelled as freeing the interval entirely but charging traffic.
        remaining = sorted(intervals, key=lambda iv: -iv.length)
        live = list(intervals)
        for candidate in remaining:
            if max_pressure(live) + reserved_registers <= limit:
                break
            live.remove(candidate)
            spilled.append(candidate)
        demand_after = max_pressure(live) + reserved_registers
        registers = min(limit, max(demand_after, 1))
    else:
        registers = demand

    spill_stores = sum(1 for _ in spilled)
    spill_loads = sum(iv.use_count for iv in spilled)
    spill_bytes = sum(iv.vreg.units * 4 for iv in spilled)
    info = PtxasInfo(
        kernel_name=kernel.name,
        registers=min(arch.round_registers(registers), limit),
        spilled_vregs=len(spilled),
        spill_loads=spill_loads,
        spill_stores=spill_stores,
        spill_bytes=spill_bytes,
        raw_pressure=demand,
    )
    return AllocationResult(info=info, intervals=intervals, spilled=spilled)


def ptxas_info(
    kernel: VirKernel,
    arch: GpuArch = KEPLER_K20XM,
    register_limit: int | None = None,
) -> PtxasInfo:
    """Convenience wrapper returning only the feedback record."""
    return allocate(kernel, arch, register_limit).info
