"""Device facade: one object tying the whole substrate together.

``SimulatedDevice`` is the user-facing handle a downstream project would
hold: it compiles regions, reports PTXAS info, estimates kernel times,
models host↔device transfers for the region's data clauses, and executes
kernels functionally — one stop for everything `repro.gpu` provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.memspace import referenced_arrays
from ..codegen.kernelgen import CodegenOptions, generate_kernel
from ..codegen.vir import VirKernel
from ..ir.module import KernelFunction
from ..ir.stmt import Region
from ..ir.symbols import Symbol
from .arch import GpuArch, KEPLER_K20XM
from .registers import PtxasInfo, ptxas_info
from .timing import KernelTiming, estimate_time

#: Effective PCIe gen-2 x16 bandwidth the K20Xm-era hosts saw (GB/s), and
#: the per-call launch/transfer latency (µs).
PCIE_BANDWIDTH_GBS = 6.0
TRANSFER_LATENCY_US = 10.0


@dataclass(frozen=True, slots=True)
class TransferEstimate:
    """Host↔device traffic implied by a region's data clauses."""

    h2d_bytes: int
    d2h_bytes: int

    def time_ms(self, bandwidth_gbs: float = PCIE_BANDWIDTH_GBS) -> float:
        total = self.h2d_bytes + self.d2h_bytes
        if total == 0:
            return 0.0
        seconds = total / (bandwidth_gbs * 1e9)
        calls = (1 if self.h2d_bytes else 0) + (1 if self.d2h_bytes else 0)
        return seconds * 1e3 + calls * TRANSFER_LATENCY_US * 1e-3


def _array_bytes(sym: Symbol, env: dict[str, int]) -> int:
    assert sym.array is not None
    elem = sym.array.elem.bits // 8
    count = 1
    if sym.array.is_pointer:
        size = env.get(f"__len_{sym.name}")
        return (size or 0) * elem
    for d in sym.array.dims:
        extent = d.extent if isinstance(d.extent, int) else env.get(d.extent.name, 0)
        count *= extent
    return count * elem


def estimate_transfers(
    region: Region, symtab, env: dict[str, int]
) -> TransferEstimate:
    """Bytes moved by the region's data clauses (OpenACC semantics:
    ``copyin`` H→D, ``copyout`` D→H, ``copy`` both; arrays without clauses
    default to ``copy`` of everything referenced, OpenACC's implicit
    behaviour for aggregate data)."""
    data = region.directive.data
    named = {name for names in data.values() for name in names}
    h2d = 0
    d2h = 0
    for name in data.get("copyin", ()):
        h2d += _array_bytes(symtab.require(name), env)
    for name in data.get("copyout", ()):
        d2h += _array_bytes(symtab.require(name), env)
    for name in data.get("copy", ()):
        size = _array_bytes(symtab.require(name), env)
        h2d += size
        d2h += size
    # 'create'/'present' move nothing.
    for sym in referenced_arrays(region):
        if sym.name not in named:
            size = _array_bytes(sym, env)
            h2d += size
            d2h += size
    return TransferEstimate(h2d_bytes=h2d, d2h_bytes=d2h)


@dataclass(slots=True)
class LaunchRecord:
    """Bookkeeping for one simulated launch."""

    kernel: VirKernel
    ptxas: PtxasInfo
    timing: KernelTiming
    transfers: TransferEstimate

    @property
    def total_ms(self) -> float:
        return self.timing.time_ms + self.transfers.time_ms()


@dataclass(slots=True)
class SimulatedDevice:
    """A virtual GPU: compile, inspect, time and run offload regions."""

    arch: GpuArch = KEPLER_K20XM
    options: CodegenOptions = field(default_factory=CodegenOptions)
    launches: list[LaunchRecord] = field(default_factory=list)
    #: Execution engine for :meth:`run`: "auto" (generated code with
    #: automatic scalar fallback), "codegen", or "scalar".
    executor: str = "auto"
    #: The :class:`~repro.gpu.vector_exec.ExecutionInfo` of the last
    #: :meth:`run` call (which executor actually ran, and why).
    last_execution: object = None

    def compile(self, region: Region, symtab, name: str = "kernel") -> VirKernel:
        return generate_kernel(region, symtab, self.options, name=name)

    def ptxas(self, kernel: VirKernel) -> PtxasInfo:
        return ptxas_info(kernel, self.arch)

    def launch(
        self,
        region: Region,
        symtab,
        env: dict[str, int],
        name: str = "kernel",
        include_transfers: bool = True,
    ) -> LaunchRecord:
        """Compile + allocate + time one region at the given problem size."""
        kernel = self.compile(region, symtab, name)
        info = self.ptxas(kernel)
        timing = estimate_time(kernel, info, env, arch=self.arch)
        transfers = (
            estimate_transfers(region, symtab, env)
            if include_transfers
            else TransferEstimate(0, 0)
        )
        record = LaunchRecord(
            kernel=kernel, ptxas=info, timing=timing, transfers=transfers
        )
        self.launches.append(record)
        return record

    def run(self, fn: KernelFunction, args: dict[str, object]):
        """Functional execution (the correctness path).

        Routes through the vectorized engine per :attr:`executor`; the
        chosen engine and any fallback reason land in
        :attr:`last_execution`.  Returns ``(arrays, stats)`` exactly like
        :func:`~repro.gpu.interpreter.run_kernel`.
        """
        from .vector_exec import execute_kernel

        arrays, stats, info = execute_kernel(fn, args, executor=self.executor)
        self.last_execution = info
        return arrays, stats

    @property
    def total_ms(self) -> float:
        return sum(l.total_ms for l in self.launches)
