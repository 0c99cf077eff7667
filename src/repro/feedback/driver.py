"""The compile → assemble → feed-back loop (paper Section III-B.2).

``FeedbackCompiler`` is the bridge SAFARA needs: each call lowers the
region's *current* IR to VIR, runs the ptxas-simulator, and returns the
``PTXAS Info`` record.  The history of reports is kept so experiments can
show the iteration-by-iteration register climb the paper describes
("backend compilation is performed multiple times").

The simulated assembler is in-process and deterministic, so the driver
carries no retry policy: a failed backend call fails its compile, and
nothing calls it again.  What the driver does carry, for the serving
broker (:mod:`repro.serve.broker`) and its tests:

* a **deadline**: :func:`deadline_scope` installs a thread-local
  monotonic deadline; every backend invocation checks it first and raises
  :class:`FeedbackTimeout` once it passes, so a long feedback loop cannot
  hold a worker past its request's budget;
* a **test hook**: :func:`fault_scope` installs a process-wide hook
  called before each backend run, so a test can stall or fail a backend
  call exactly where the assembler runs, without touching compiler code.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Callable, Iterator

from ..codegen.kernelgen import CodegenOptions, generate_kernel
from ..codegen.vir import VirKernel
from ..errors import ReproError
from ..gpu.arch import GpuArch, KEPLER_K20XM
from ..gpu.registers import PtxasInfo, ptxas_info
from ..ir.stmt import Region
from ..ir.symbols import SymbolTable
from ..obs.tracer import span


class FeedbackTimeout(ReproError):
    """The thread's deadline passed mid-feedback-loop (see
    :func:`deadline_scope`); wire code ``deadline_exceeded``."""


_local = threading.local()


@contextmanager
def deadline_scope(deadline: float | None) -> Iterator[None]:
    """Install a ``time.monotonic()`` deadline for this thread's backend
    invocations; ``None`` is a no-op.  Scopes nest — the inner (sooner)
    deadline wins while active."""
    if deadline is None:
        yield
        return
    previous = getattr(_local, "deadline", None)
    _local.deadline = deadline if previous is None else min(deadline, previous)
    try:
        yield
    finally:
        _local.deadline = previous


#: Process-wide test hook (faults are injected from *outside* the worker
#: threads that hit them — a test installs the hook; every backend
#: invocation in the process sees it).
_fault_hook: Callable[[str, int], None] | None = None


@contextmanager
def fault_scope(hook: Callable[[str, int], None]) -> Iterator[None]:
    """Install a process-wide fault-injection hook for the scope.

    ``hook(kernel_name, iteration)`` runs before each backend invocation
    — on whichever thread performs it — and may sleep (a slow backend)
    or raise (a failing one).  Scopes restore the previous hook on exit;
    keep compiles that should see the faults inside the scope.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    try:
        yield
    finally:
        _fault_hook = previous


def check_deadline() -> None:
    """Raise :class:`FeedbackTimeout` if this thread's deadline passed."""
    deadline = getattr(_local, "deadline", None)
    if deadline is not None and time.monotonic() > deadline:
        raise FeedbackTimeout(
            f"feedback deadline exceeded by "
            f"{(time.monotonic() - deadline) * 1000.0:.1f} ms"
        )


@dataclass(frozen=True, slots=True)
class Lowering:
    """One backend compile of a region: its VIR, its ``PTXAS Info`` and
    the inputs besides the region that produced them."""

    vir: VirKernel
    info: PtxasInfo
    options: CodegenOptions
    arch: GpuArch
    register_limit: int | None
    name: str | None

    def matches(
        self,
        options: CodegenOptions,
        arch: GpuArch,
        register_limit: int | None,
        name: str | None,
    ) -> bool:
        """True when a compile with these inputs, of the region as it was
        lowered, would produce this lowering."""
        return (
            self.options == options
            and self.arch == arch
            and self.register_limit == register_limit
            and self.name == name
        )


@dataclass(slots=True)
class FeedbackCompiler:
    """Callable register-feedback oracle over the simulated backend.

    ``last`` is the lowering of the most recent call.  SAFARA changes no
    IR after its last feedback compile, so that lowering is the region's
    final one (paper Section III-B.2: the last backend compile is the
    one that ships).
    """

    symtab: SymbolTable
    options: CodegenOptions = field(default_factory=CodegenOptions)
    arch: GpuArch = KEPLER_K20XM
    register_limit: int | None = None
    name: str | None = None
    history: list[PtxasInfo] = field(default_factory=list)
    last: Lowering | None = None

    def __call__(self, region: Region) -> PtxasInfo:
        check_deadline()
        hook = _fault_hook
        if hook is not None:
            hook(self.name or "<region>", len(self.history))
        with span(
            "ptxas",
            kernel=self.name or "<region>",
            iteration=len(self.history),
        ) as sp:
            kernel = generate_kernel(
                region, self.symtab, self.options, name=self.name
            )
            info = ptxas_info(kernel, self.arch, self.register_limit)
            sp.set(registers=info.registers, spill_bytes=info.spill_bytes)
        self.history.append(info)
        self.last = Lowering(
            kernel, info, self.options, self.arch, self.register_limit, self.name
        )
        return info

    @property
    def compilations(self) -> int:
        """Backend invocations so far (each one is a 'ptxas run')."""
        return len(self.history)
