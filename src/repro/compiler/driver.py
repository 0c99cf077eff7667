"""The OpenUH-like compiler driver's result types.

Mirrors the paper's Figure 2 pipeline: front end → IR → (optional)
scalar-replacement transformations with assembler feedback → virtual-ISA
code generation → register allocation — and, downstream, the analytic
timing model.

The pipeline itself lives in :mod:`repro.pipeline` (the ``Pass`` /
``PassManager`` abstraction) and is owned by a
:class:`~repro.compiler.session.CompilerSession`, which produces the
types defined here.

Because the transformations mutate IR in place, each configuration
compiles from a *fresh* parse of the source
(:meth:`~repro.compiler.session.CompilerSession.compile_source`) —
exactly as separate compiler invocations would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.vir import VirKernel
from ..gpu.registers import PtxasInfo
from ..gpu.timing import KernelTiming
from ..ir.module import KernelFunction
from ..esat.optimize import EsatReport
from ..transforms.carr_kennedy import CarrKennedyReport
from ..transforms.autopar import AutoparReport
from ..transforms.licm import LicmReport
from ..transforms.unroll import UnrollReport
from ..transforms.safara import SafaraReport
from .options import CompilerConfig


@dataclass(slots=True)
class CompiledKernel:
    """One offload region, fully compiled."""

    name: str
    region_id: int
    vir: VirKernel
    ptxas: PtxasInfo
    safara: SafaraReport | None = None
    carr_kennedy: CarrKennedyReport | None = None
    licm: LicmReport | None = None
    autopar: AutoparReport | None = None
    unroll: UnrollReport | None = None
    esat: "EsatReport | None" = None
    backend_compilations: int = 1

    @property
    def registers(self) -> int:
        return self.ptxas.registers


@dataclass(slots=True)
class CompiledProgram:
    """A kernel function compiled under one configuration."""

    function: KernelFunction
    config: CompilerConfig
    kernels: list[CompiledKernel] = field(default_factory=list)

    def kernel(self, name: str) -> CompiledKernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    @property
    def max_registers(self) -> int:
        return max((k.registers for k in self.kernels), default=0)


@dataclass(slots=True)
class ProgramTiming:
    """Timing verdict for a whole compiled program under one problem size."""

    program: CompiledProgram
    kernels: list[KernelTiming] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return sum(k.time_ms for k in self.kernels)
