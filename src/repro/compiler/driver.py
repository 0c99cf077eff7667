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
compiles a private clone of the session's one parse of the source
(:meth:`~repro.compiler.session.CompilerSession.compile_source`); a clone
compiles to exactly what a fresh parse would, as separate compiler
invocations do.
"""

from __future__ import annotations

import pickle
import threading
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..codegen.vir import VirKernel
from ..errors import CacheError
from ..gpu.registers import PtxasInfo
from ..gpu.timing import KernelTiming
from ..esat.optimize import EsatReport
from ..transforms.carr_kennedy import CarrKennedyReport
from ..transforms.autopar import AutoparReport
from ..transforms.licm import LicmReport
from ..transforms.unroll import UnrollReport
from ..transforms.safara import SafaraReport
from .options import CompilerConfig

if TYPE_CHECKING:
    from ..pipeline.diskcache import DiskCache

#: The attributes of a compiled kernel that only user-facing views read
#: once the compile is done: the VIR and the pass reports.
DETAIL_FIELDS = ("vir", "safara", "carr_kennedy", "licm", "autopar", "unroll", "esat")


class DetailSection:
    """The pickled detail (:data:`DETAIL_FIELDS`) of every kernel of one
    program loaded from disk, unpickled on the first read of any of it.

    One section per program, not per kernel, so the kernels keep sharing
    the symbols and IR their VIR and reports reference.  A CRC-32 taken
    at pickling time makes a damaged section fail loudly, not unpickle
    into different values.
    """

    __slots__ = ("_blob", "_crc", "_rows", "_lock", "origin")

    def __init__(self, blob: bytes, crc: int):
        self._blob = blob
        self._crc = crc
        self._rows: list[tuple] | None = None
        self._lock = threading.Lock()
        #: ``(disk cache, key)`` the section was read from: its load is
        #: counted there, and a damaged section's entry discarded.
        self.origin: tuple[DiskCache, str] | None = None

    def rows(self, kernel_name: str) -> list[tuple]:
        """Every kernel's detail values, in kernel order.  Raises
        :class:`~repro.errors.CacheError` naming ``kernel_name`` (the
        kernel whose read needed them) when the section is damaged."""
        with self._lock:
            if self._rows is None:
                if zlib.crc32(self._blob) != self._crc:
                    message = (
                        f"detail of kernel {kernel_name!r} is damaged (CRC mismatch)"
                    )
                    if self.origin is not None:
                        disk, key = self.origin
                        disk.discard(key)
                        message += f"; disk cache entry {key} discarded"
                    raise CacheError(message)
                self._rows = pickle.loads(self._blob)
                self._blob = b""
                if self.origin is not None:
                    self.origin[0].record_detail_load()
            return self._rows


@dataclass(slots=True)
class CompiledKernel:
    """One offload region, fully compiled.

    ``timing`` is the timing model's verdict for one launch under the
    env the program was compiled with (``None`` where that env cannot
    time the kernel).  A kernel loaded from disk leaves its
    :data:`DETAIL_FIELDS` unset until one is read: :meth:`__getattr__`
    then fills them all from the program's :class:`DetailSection`.
    """

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
    timing: KernelTiming | None = None
    #: ``(section, index of this kernel)`` for a kernel loaded from disk.
    _detail: tuple[DetailSection, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str):
        # Python calls this only for an attribute that is not set: here,
        # a detail field of a kernel loaded from disk, read the first time.
        if name not in DETAIL_FIELDS or self._detail is None:
            raise AttributeError(name)
        section, index = self._detail
        for field_name, value in zip(DETAIL_FIELDS, section.rows(self.name)[index]):
            setattr(self, field_name, value)
        return getattr(self, name)

    @property
    def registers(self) -> int:
        return self.ptxas.registers


@dataclass(slots=True)
class CompiledProgram:
    """A kernel function compiled under one configuration.

    Holds the compiled kernels only, not the function's IR: the IR is
    scratch for the compile that made it.  ``timing_env`` is the env the
    kernels' stored timing verdicts hold for, in
    :func:`~repro.pipeline.cache.env_token` form.

    Pickled, a program is an eager part (kernel names, region ids,
    ptxas info, backend-compile counts, timing verdicts) and one
    :class:`DetailSection` of bytes holding every kernel's VIR and pass
    reports; unpickling leaves that section unread until a detail field
    is.
    """

    config: CompilerConfig
    kernels: list[CompiledKernel] = field(default_factory=list)
    timing_env: str | None = None
    _detail: DetailSection | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __reduce__(self):
        blob = pickle.dumps(
            [tuple(getattr(k, f) for f in DETAIL_FIELDS) for k in self.kernels],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        eager = [
            (k.name, k.region_id, k.ptxas, k.backend_compilations, k.timing)
            for k in self.kernels
        ]
        return _unpickle_program, (
            self.config, self.timing_env, eager, blob, zlib.crc32(blob)
        )

    def bind_detail(self, disk: "DiskCache", key: str) -> None:
        """Mark this program as loaded from ``disk`` under ``key`` (see
        :attr:`DetailSection.origin`)."""
        if self._detail is not None:
            self._detail.origin = (disk, key)

    def kernel(self, name: str) -> CompiledKernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    @property
    def max_registers(self) -> int:
        return max((k.registers for k in self.kernels), default=0)


def _unpickle_program(config, timing_env, eager, blob, crc) -> CompiledProgram:
    section = DetailSection(blob, crc)
    program = CompiledProgram(config=config, timing_env=timing_env)
    program._detail = section
    for index, (name, region_id, ptxas, backend, timing) in enumerate(eager):
        kernel = CompiledKernel.__new__(CompiledKernel)
        kernel.name = name
        kernel.region_id = region_id
        kernel.ptxas = ptxas
        kernel.backend_compilations = backend
        kernel.timing = timing
        kernel._detail = (section, index)
        program.kernels.append(kernel)
    return program


@dataclass(slots=True)
class ProgramTiming:
    """Timing verdict for a whole compiled program under one problem size."""

    program: CompiledProgram
    kernels: list[KernelTiming] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return sum(k.time_ms for k in self.kernels)
