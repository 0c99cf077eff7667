"""Analytic kernel-time model for the simulated Kepler device.

The model evaluates three classical bounds per SM and takes their maximum:

``compute``
    Total warp-instruction issue cycles divided by the SM's scheduler
    throughput.

``bandwidth``
    Total memory traffic (from the transaction model) against the SM's
    share of DRAM bandwidth.

``latency``
    Total exposed memory latency divided by the number of *resident*
    warps — the occupancy term.  This is where register pressure bites:
    scalar replacement removes loads (shrinking the numerator) but may
    reduce occupancy (shrinking the denominator), reproducing the paper's
    Figure 7, where aggressive SAFARA slows 355.seismic down until the
    ``dim``/``small`` clauses recover the registers.

Instruction counts come from walking the VIR stream with sequential-loop
trip multipliers; the launch topology supplies the thread count.  Nothing
is hard-coded per benchmark: changing a clause changes the generated code,
which changes registers, occupancy and traffic, which changes time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.coalescing import AccessInfo, AccessPattern
from ..analysis.memspace import MemSpace
from ..codegen.vir import Instr, Op, VirKernel
from ..errors import TimingUnavailable
from ..pickling import positional_pickle
from .arch import GpuArch, KEPLER_K20XM
from .memory import access_latency, warp_transaction_bytes
from .occupancy import Occupancy, compute_occupancy
from .registers import PtxasInfo

#: Warp-instruction issue cost by class (cycles per warp instruction,
#: normalised to one scheduler).  The f64 cost is derived per-arch from
#: ``arch.f64_throughput_ratio`` (3.0 on the K20X's 1/3-rate DP units,
#: 1.0 on CDNA2's full-rate FP64 pipes).
_ISSUE_COST = {
    "alu32": 1.0,
    "alu64": 2.0,
    "f32": 1.0,
    "math": 8.0,  # sqrt/div/transcendental via SFU
    "mov": 0.5,
    "mem": 1.0,
}


def _f64_cost(arch: GpuArch) -> float:
    return 1.0 / max(arch.f64_throughput_ratio, 1e-9)


@positional_pickle
@dataclass(slots=True)
class ThreadProfile:
    """Per-thread dynamic counts extracted from the VIR stream."""

    issue_cycles: float = 0.0
    mem_latency: float = 0.0
    mem_bytes_warp: float = 0.0  # bytes per *warp* (already warp-wide)
    loads: float = 0.0
    stores: float = 0.0


@positional_pickle
@dataclass(slots=True)
class KernelTiming:
    """The timing verdict for one kernel launch."""

    name: str
    total_threads: int
    threads_per_block: int
    occupancy: Occupancy
    compute_cycles: float
    bandwidth_cycles: float
    latency_cycles: float
    time_ms: float
    bound: str
    profile: ThreadProfile = field(default=None)

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.bandwidth_cycles, self.latency_cycles)

    def for_launches(self, launches: int, arch: GpuArch) -> "KernelTiming":
        """This verdict for ``launches`` executions, with a profile of its
        own: every other field does not depend on the launch count."""
        p = self.profile
        return KernelTiming(
            self.name,
            self.total_threads,
            self.threads_per_block,
            self.occupancy,
            self.compute_cycles,
            self.bandwidth_cycles,
            self.latency_cycles,
            launch_time_ms(self.cycles, launches, arch),
            self.bound,
            ThreadProfile(
                p.issue_cycles, p.mem_latency, p.mem_bytes_warp, p.loads, p.stores
            ),
        )


def launch_time_ms(cycles: float, launches: int, arch: GpuArch) -> float:
    """Wall time of ``launches`` executions of a kernel taking ``cycles``."""
    return launches * cycles / (arch.clock_mhz * 1e3)


def profile_thread(
    kernel: VirKernel,
    env: dict[str, int],
    spill_info: PtxasInfo | None = None,
    arch: GpuArch = KEPLER_K20XM,
    branch_weight: float = 1.0,
) -> ThreadProfile:
    """Walk the instruction stream accumulating per-thread costs.

    Sequential loops multiply their body by the trip count evaluated in
    ``env``; ``if`` bodies are weighted by ``branch_weight`` (1.0 models
    the common all-threads-take-the-guard case).
    """
    prof = ThreadProfile()
    mult_stack: list[float] = [1.0]

    def mult() -> float:
        return mult_stack[-1]

    for ins in kernel.instrs:
        op = ins.op
        if op is Op.LOOP_BEGIN:
            trips = ins.loop.trip_count(env) if ins.loop is not None else None
            if trips is None and ins.loop is not None:
                # Data-dependent bounds (e.g. CSR row loops): the benchmark
                # supplies an average trip count as __trips_<var>.
                trips = env.get(f"__trips_{ins.loop.var.name}")
            if trips is None:
                raise TimingUnavailable(
                    f"trip count of loop {ins.loop.var.name if ins.loop else '?'} "
                    "not evaluable; missing env entries?"
                )
            mult_stack.append(mult() * max(trips, 0))
            continue
        if op is Op.LOOP_END:
            mult_stack.pop()
            continue
        if op is Op.IF_BEGIN:
            mult_stack.append(mult() * branch_weight)
            continue
        if op in (Op.IF_ELSE,):
            continue
        if op is Op.IF_END:
            mult_stack.pop()
            continue
        if op is Op.RET:
            continue
        m = mult()
        if op in (Op.LD, Op.ST):
            assert ins.access is not None and ins.space is not None
            prof.issue_cycles += m * _ISSUE_COST["mem"]
            prof.mem_latency += m * access_latency(ins.space, ins.access, arch)
            prof.mem_bytes_warp += m * warp_transaction_bytes(
                ins.access, ins.width_bits, arch
            )
            if op is Op.LD:
                prof.loads += m
            else:
                prof.stores += m
        elif op is Op.MATH or op is Op.DIV or op is Op.REM:
            prof.issue_cycles += m * _ISSUE_COST["math"]
        elif op is Op.BAR:
            # Barrier: roughly a pipeline drain across the block.
            prof.issue_cycles += m * 20.0
        elif op in (Op.MOV, Op.MOV_IMM, Op.LD_PARAM, Op.LD_DOPE, Op.TID, Op.CTAID, Op.NTID):
            prof.issue_cycles += m * _ISSUE_COST["mov"]
        else:
            dst_bits = ins.dst.bits if ins.dst is not None else 32
            if ins.is_float:
                prof.issue_cycles += m * (
                    _f64_cost(arch) if dst_bits == 64 else _ISSUE_COST["f32"]
                )
            else:
                prof.issue_cycles += m * (
                    _ISSUE_COST["alu64"] if dst_bits == 64 else _ISSUE_COST["alu32"]
                )

    if spill_info is not None and spill_info.spilled_vregs:
        # Spill traffic: local-memory accesses per thread.
        uniform = AccessInfo(AccessPattern.COALESCED, 1)
        lat = access_latency(MemSpace.LOCAL, uniform, arch)
        n = spill_info.spill_loads + spill_info.spill_stores
        prof.mem_latency += n * lat
        prof.issue_cycles += n * _ISSUE_COST["mem"]
        prof.mem_bytes_warp += n * warp_transaction_bytes(uniform, 32, arch)
        prof.loads += spill_info.spill_loads
        prof.stores += spill_info.spill_stores
    return prof


def estimate_time(
    kernel: VirKernel,
    ptxas: PtxasInfo,
    env: dict[str, int],
    arch: GpuArch = KEPLER_K20XM,
    launches: int = 1,
    issue_scale: float = 1.0,
) -> KernelTiming:
    """Estimate wall-clock time of ``launches`` executions of the kernel.

    ``issue_scale`` models relative backend code quality (a mature
    commercial backend emits tighter scalar code than a research
    prototype); it scales only the compute bound.
    """
    prof = profile_thread(kernel, env, spill_info=ptxas, arch=arch)
    prof.issue_cycles *= issue_scale
    total_threads = max(1, kernel.launch.total_threads(env))
    tpb = kernel.launch.threads_per_block
    occ = compute_occupancy(
        ptxas.registers, tpb, arch, shared_mem_per_block=kernel.smem_bytes
    )

    total_warps = math.ceil(total_threads / arch.warp_size)
    # The busiest SM bounds kernel time; tiny launches (e.g. a loop that a
    # bad transformation sequentialised) cannot be spread below one warp.
    warps_per_sm = max(total_warps / arch.num_sms, 1.0) if total_warps else 0.0

    compute_cycles = warps_per_sm * prof.issue_cycles / arch.schedulers_per_sm

    bytes_per_sm = warps_per_sm * prof.mem_bytes_warp
    bytes_per_cycle_sm = (
        arch.mem_bandwidth_gbs * 1e9 / (arch.clock_mhz * 1e6) / arch.num_sms
    )
    bandwidth_cycles = bytes_per_sm / bytes_per_cycle_sm

    active = max(occ.active_warps, 1)
    latency_cycles = warps_per_sm * prof.mem_latency / active

    cycles = max(compute_cycles, bandwidth_cycles, latency_cycles)
    bound = {
        compute_cycles: "compute",
        bandwidth_cycles: "bandwidth",
        latency_cycles: "latency",
    }[cycles]
    time_ms = launch_time_ms(cycles, launches, arch)
    return KernelTiming(
        name=kernel.name,
        total_threads=total_threads,
        threads_per_block=tpb,
        occupancy=occ,
        compute_cycles=compute_cycles,
        bandwidth_cycles=bandwidth_cycles,
        latency_cycles=latency_cycles,
        time_ms=time_ms,
        bound=bound,
        profile=prof,
    )
