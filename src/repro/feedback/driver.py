"""The compile → assemble → feed-back loop (paper Section III-B.2).

``FeedbackCompiler`` is the bridge SAFARA needs: each call lowers the
region's *current* IR to VIR, runs the ptxas-simulator, and returns the
``PTXAS Info`` record.  The history of reports is kept so experiments can
show the iteration-by-iteration register climb the paper describes
("backend compilation is performed multiple times").

Because a real assembler is an *external* tool — it can hang, crash, or
fail transiently — the driver also carries the failure semantics the
serving broker (:mod:`repro.serve.broker`) builds on:

* a **deadline**: :func:`deadline_scope` installs a thread-local
  monotonic deadline; every backend invocation checks it first and raises
  :class:`FeedbackTimeout` once it passes, so a hung feedback loop cannot
  hold a worker forever;
* a **failure taxonomy**: :class:`TransientFeedbackError` (worth
  retrying: the tool was busy, the machine was loaded) vs
  :class:`PermanentFeedbackError` (retrying is pointless: the input is
  bad).  :func:`classify_failure` maps arbitrary exceptions onto it —
  the broker retries transients with backoff and fails permanents fast;
* a **fault-injection point**: :func:`fault_scope` installs a
  thread-local hook called before each backend run.  Tests and chaos
  drills inject timeouts and crashes exactly where a real ptxas would
  produce them, without touching compiler code.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Callable, Iterator

from ..codegen.kernelgen import CodegenOptions, generate_kernel
from ..errors import ReproError
from ..gpu.arch import GpuArch, KEPLER_K20XM
from ..gpu.registers import PtxasInfo, ptxas_info
from ..ir.stmt import Region
from ..ir.symbols import SymbolTable
from ..obs.tracer import span


class FeedbackError(ReproError):
    """Base of every backend-invocation failure (part of the unified
    :class:`~repro.errors.ReproError` hierarchy)."""


class TransientFeedbackError(FeedbackError):
    """The backend failed in a way worth retrying (busy tool, load spike)."""


class PermanentFeedbackError(FeedbackError):
    """The backend rejected the input; retrying cannot succeed."""


class FeedbackTimeout(TransientFeedbackError):
    """The thread's deadline passed mid-feedback-loop (see
    :func:`deadline_scope`).  Transient: a retry gets a fresh budget."""


#: Exception types (beyond the explicit taxonomy) treated as transient:
#: OS-level hiccups an external assembler produces under load.
_TRANSIENT_TYPES = (TimeoutError, InterruptedError, ConnectionError, BlockingIOError)


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` (retry with backoff) or ``"permanent"`` (fail fast).

    Unknown exceptions are permanent: retrying a deterministic compiler
    on the same input reproduces the same crash.
    """
    if isinstance(exc, TransientFeedbackError):
        return "transient"
    if isinstance(exc, PermanentFeedbackError):
        return "permanent"
    if isinstance(exc, _TRANSIENT_TYPES):
        return "transient"
    return "permanent"


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


#: Process-wide fault-injection hook (faults are injected from *outside*
#: the worker threads that hit them — a test or chaos drill installs the
#: hook; every backend invocation in the process sees it).
_fault_hook: Callable[[str, int], None] | None = None


@contextmanager
def fault_scope(hook: Callable[[str, int], None]) -> Iterator[None]:
    """Install a process-wide fault-injection hook for the scope.

    ``hook(kernel_name, iteration)`` runs before each backend invocation
    — on whichever thread performs it — and may raise, typically
    :class:`TransientFeedbackError` or :class:`FeedbackTimeout`, to
    simulate an external-assembler failure.  Scopes restore the previous
    hook on exit; keep compiles that should see the faults inside the
    scope.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    try:
        yield
    finally:
        _fault_hook = previous


#: Process-wide simulated backend latency (seconds per invocation).  The
#: in-process ptxas model answers in microseconds; a real external
#: assembler takes tens of milliseconds.  Benchmarks install a latency to
#: measure how well fan-out layers (``compile_many``, the autotuner)
#: overlap backend stalls across workers.
_latency_s: float = 0.0


@contextmanager
def latency_scope(seconds: float) -> Iterator[None]:
    """Simulate external-assembler latency for the scope (process-wide).

    Every backend invocation inside the scope sleeps ``seconds`` before
    answering, on whichever thread performs it.  Scopes restore the
    previous latency on exit.
    """
    global _latency_s
    previous = _latency_s
    _latency_s = float(seconds)
    try:
        yield
    finally:
        _latency_s = previous


def backend_latency() -> None:
    """Stall for the installed simulated backend latency (no-op by
    default); backend call sites invoke this next to the real work."""
    if _latency_s > 0.0:
        time.sleep(_latency_s)


def current_deadline() -> float | None:
    """This thread's active backend deadline (``time.monotonic()``-based),
    or ``None``.  Fan-out layers (``CompilerSession.compile_many``, the
    autotuner) read it here to re-install the caller's deadline inside
    their worker threads — :func:`deadline_scope` is thread-local."""
    return getattr(_local, "deadline", None)


def check_deadline() -> None:
    """Raise :class:`FeedbackTimeout` if this thread's deadline passed."""
    deadline = getattr(_local, "deadline", None)
    if deadline is not None and time.monotonic() > deadline:
        raise FeedbackTimeout(
            f"feedback deadline exceeded by "
            f"{(time.monotonic() - deadline) * 1000.0:.1f} ms"
        )


@dataclass(slots=True)
class FeedbackCompiler:
    """Callable register-feedback oracle over the simulated backend."""

    symtab: SymbolTable
    options: CodegenOptions = field(default_factory=CodegenOptions)
    arch: GpuArch = KEPLER_K20XM
    register_limit: int | None = None
    name: str | None = None
    history: list[PtxasInfo] = field(default_factory=list)

    def __call__(self, region: Region) -> PtxasInfo:
        check_deadline()
        hook = _fault_hook
        if hook is not None:
            hook(self.name or "<region>", len(self.history))
        backend_latency()
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
        return info

    @property
    def compilations(self) -> int:
        """Backend invocations so far (each one is a 'ptxas run')."""
        return len(self.history)
