"""Layer timing for the traced run, done from outside the program.

:class:`Ledger` replaces the public functions and methods listed in
:func:`install_layers` with timing wrappers for the duration of a
``with`` block, then restores the originals.  Each wrapped call records its *self time*: its wall time
minus the wall time of wrapped calls nested inside it, so a layer's
samples never double-count the layers below it.  Frames are kept per
thread, because the serving broker runs requests on worker threads.

Lexing is summed per parse: ``Lexer.tokens`` runs once for the source
and once per pragma, so its time and token count are added up inside the
enclosing ``parse_program`` call and recorded as one sample per parse.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class _Frame:
    child_s: float = 0.0
    #: Lexing done inside this call: ``[ms, tokens]``.
    lex: list[float] = field(default_factory=lambda: [0.0, 0.0])


class Ledger:
    """Per-layer self-time samples, plus counters the caller adds."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def add(self, layer: str, ms: float) -> None:
        with self._lock:
            self.samples.setdefault(layer, []).append(ms)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts.setdefault(name, []).append(value)

    def clear(self) -> None:
        """Drop every sample and count (say, those of a warm-up round)."""
        with self._lock:
            self.samples.clear()
            self.counts.clear()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer, fn, layer_of, args, kwargs):
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].child_s += elapsed
        name = layer_of(result) if layer_of is not None else layer
        self_ms = (elapsed - frame.child_s) * 1000.0
        if name == "lang.lex" and stack:
            stack[-1].lex[0] += self_ms
            stack[-1].lex[1] += len(result)
        else:
            self.add(name, self_ms)
        if frame.lex[1]:
            self.add("lang.lex", frame.lex[0])
            self.count("lang.tokens", frame.lex[1])
        return result

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        layer: str,
        targets: list[str],
        *,
        layer_of: Callable[[Any], str] | None = None,
    ) -> None:
        """Time every call reaching ``targets`` as ``layer``.

        A target is ``"module:attr"`` or ``"module:Class.attr"``.  All
        targets of one layer are the same function imported under several
        names; they share one wrapper around the first target's original.
        ``layer_of`` picks the layer name from the call's result.
        """
        original = _resolve(targets[0])
        ledger = self

        def timed(*args, **kwargs):
            return ledger._call(layer, original, layer_of, args, kwargs)

        for target in targets:
            owner, attr = _owner(target)
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, timed)

    def __enter__(self) -> "Ledger":
        install_layers(self)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def total_ms(self) -> float:
        return sum(sum(v) for v in self.samples.values())

    def median(self, layer: str) -> float:
        values = self.samples.get(layer)
        return statistics.median(values) if values else 0.0

    def table(self, op_total_ms: float) -> list[tuple[str, int, float, float, float]]:
        """``(layer, calls, median ms, total ms, share of op time)`` rows,
        heaviest first."""
        rows = [
            (
                layer,
                len(values),
                statistics.median(values),
                sum(values),
                sum(values) / op_total_ms if op_total_ms else 0.0,
            )
            for layer, values in self.samples.items()
        ]
        return sorted(rows, key=lambda row: -row[3])


def _owner(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _resolve(target: str) -> Any:
    owner, attr = _owner(target)
    return owner.__dict__[attr]


def install_layers(ledger: Ledger) -> None:
    """Wrap the public entry points of every layer an op can cross."""
    w = ledger.wrap
    w("lang.lex", ["repro.lang.lexer:Lexer.tokens"])
    w(
        "lang.parse",
        ["repro.lang.parser:parse_program", "repro.compiler.session:parse_program"],
    )
    w(
        "ir.build",
        ["repro.ir.builder:build_module", "repro.compiler.session:build_module"],
    )
    # Session-level names only: the SAFARA feedback loop calls its own
    # imports of these, and that time is already in the pass's trace.
    w("codegen.vir", ["repro.compiler.session:generate_kernel"])
    w("gpu.ptxas", ["repro.compiler.session:ptxas_info"])
    w("codegen.numpy_source", ["repro.codegen.numpy_source:generate_source"])
    w("codegen.bind", ["repro.codegen.numpy_source:bind_source"])
    w("cache.memory_get", ["repro.pipeline.cache:CompileCache.get"])
    w("cache.disk_get", ["repro.pipeline.diskcache:DiskCache.get_entry"])
    w("cache.disk_put", ["repro.pipeline.diskcache:DiskCache.put"])
    w("gpu.timing", ["repro.compiler.session:CompilerSession.time_program"])
    w("exec.build_args", ["repro.gpu.interpreter:build_run_args"])
    # An ``auto`` run answered by generated code is the codegen tier; one
    # answered by the scalar interpreter spends the rest of its time in
    # the tiers that failed first (planning, generation attempts).
    w(
        "exec.codegen",
        ["repro.gpu.vector_exec:execute_kernel"],
        layer_of=lambda r: "exec.codegen" if r[2].used == "codegen" else "exec.ladder",
    )
    w("exec.scalar", ["repro.gpu.vector_exec:run_kernel"])
