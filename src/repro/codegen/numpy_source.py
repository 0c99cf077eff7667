"""Codegen execution tier: KernelPlan → generated Python/NumPy source.

Each planned kernel function is compiled once into straight-line Python
source — one call per IR node, in the scalar interpreter's evaluation
order, into the batched runtime primitives of
:class:`~repro.gpu.vector_exec.VectorInterpreter` (``_apply_binop``,
``_load_idx``, ``_apply_if`` with mask push/pop, ``_run_loop`` with the
planned axis/seq mode baked in, ordinal loops for lane-varying seq
bounds) — then ``exec``'d into a function object and cached in memory
keyed by the caller's content hash.

Bit-for-bit equality with the scalar oracle is preserved *by construction*:
each primitive replays the interpreter's semantics for its construct (or
raises ``VectorUnsupported``), and the program calls them in the order the
interpreter evaluates the tree, so it produces the oracle's arrays and
:class:`~repro.gpu.interpreter.ExecutionStats`.  Anything the generator
does not recognise raises :class:`CodegenUnsupported` and the executor
ladder falls back to the scalar interpreter.

The generated *source text* is persisted next to the compiled program in
the DiskCache envelope (format v2) — a warm restart re-binds the text to a
freshly parsed function via :func:`bind_source` without re-running the
planner.  Rebinding is positional: ``enumerate_nodes`` walks the IR
deterministically, and the source references nodes only through their
walk index, so any parse of the same source text binds correctly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cast,
    Expr,
    FloatConst,
    IntConst,
    Select,
    UnOp,
    VarRef,
)
from ..ir.module import KernelFunction
from ..ir.stmt import Assign, If, LocalDecl, Loop, Region, Stmt
from ..obs.tracer import span
from .vector_lower import AXIS, KernelPlan, plan_kernel

FORMAT = "repro:numpy_source v1"

__all__ = [
    "CodegenUnsupported",
    "GeneratedKernel",
    "FunctionCache",
    "enumerate_nodes",
    "generate_source",
    "bind_source",
    "compile_kernel",
    "get_or_compile",
    "function_cache",
]


class CodegenUnsupported(Exception):
    """The generator cannot express this kernel; callers fall back to the
    scalar interpreter (the message is the logged reason)."""


# ---------------------------------------------------------------------------
# Deterministic node enumeration
# ---------------------------------------------------------------------------


def enumerate_nodes(fn: KernelFunction) -> list[object]:
    """Pre-order walk over statements and expressions of ``fn.body``.

    The walk order is a pure function of the IR structure, so generated
    source from one parse binds against any other parse of the same
    kernel source (node *identities* differ across parses — interned
    constants may even be shared — but walk *positions* never do).
    """
    out: list[object] = []

    def walk_expr(e: Expr) -> None:
        out.append(e)
        for c in e.children():
            walk_expr(c)

    def walk_stmt(s: Stmt) -> None:
        out.append(s)
        if isinstance(s, Assign):
            walk_expr(s.target)
            walk_expr(s.value)
        elif isinstance(s, LocalDecl):
            if s.init is not None:
                walk_expr(s.init)
        elif isinstance(s, If):
            walk_expr(s.cond)
            for t in s.then_body:
                walk_stmt(t)
            for t in s.else_body:
                walk_stmt(t)
        elif isinstance(s, Loop):
            walk_expr(s.init)
            walk_expr(s.bound)
            for t in s.body:
                walk_stmt(t)
        elif isinstance(s, Region):
            for t in s.body:
                walk_stmt(t)

    for s in fn.body:
        walk_stmt(s)
    return out


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------

_IND = "    "


class _Generator:
    def __init__(self, fn: KernelFunction, plan: KernelPlan):
        self._fn = fn
        self._plan = plan
        nodes = enumerate_nodes(fn)
        self._count = len(nodes)
        self._pos: dict[int, int] = {}
        for i, node in enumerate(nodes):
            self._pos.setdefault(id(node), i)
        self._binds: list[str] = []  # bind-time lines (run once per exec)
        self._bound: dict[tuple, str] = {}
        self._lines: list[str] = []  # kernel body lines
        self._n = 0

    # -- naming -------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        name = f"_{prefix}{self._n}"
        self._n += 1
        return name

    def _emit(self, depth: int, line: str) -> None:
        self._lines.append(_IND * depth + line)

    def _bind(self, key: tuple, rhs: str) -> str:
        name = self._bound.get(key)
        if name is None:
            name = self._fresh(key[0])
            self._bound[key] = name
            self._binds.append(f"{name} = {rhs}")
        return name

    def _node(self, node: object) -> str:
        idx = self._pos[id(node)]
        return self._bind(("n", idx), f"__nodes__[{idx}]")

    def _sym(self, node: object) -> str:
        idx = self._pos[id(node)]
        return self._bind(("s", idx), f"__nodes__[{idx}].sym")

    def _cast_type(self, node: Cast) -> str:
        idx = self._pos[id(node)]
        return self._bind(("c", idx), f"__nodes__[{idx}].to_type")

    def _const(self, e: Expr) -> str:
        if isinstance(e, IntConst):
            return self._bind(("k", "i", e.value), f"__ic__({e.value!r})")
        assert isinstance(e, FloatConst)
        return self._bind(("k", "f", repr(e.value)), f"__fc__({e.value!r})")

    # -- expressions ----------------------------------------------------------
    def expr(self, e: Expr, depth: int) -> str:
        """Emit statements computing ``e`` at ``depth``; return the Python
        expression (a temp name or inline leaf) holding its VArray.
        Emission order replays the interpreter's evaluation order."""
        if isinstance(e, (IntConst, FloatConst)):
            return self._const(e)
        if isinstance(e, VarRef):
            t = self._fresh("t")
            self._emit(depth, f"{t} = _eg({e.sym.name!r})")
            return t
        if isinstance(e, ArrayRef):
            idxs = [self.expr(i, depth) for i in e.indices]
            t = self._fresh("t")
            self._emit(depth, f"{t} = _ld({self._node(e)}, [{', '.join(idxs)}])")
            return t
        if isinstance(e, UnOp):
            x = self.expr(e.operand, depth)
            t = self._fresh("t")
            self._emit(depth, f"{t} = _un({e.op!r}, {x})")
            return t
        if isinstance(e, BinOp):
            if e.op in ("&&", "||"):
                lhs = self.expr(e.left, depth)
                thunk = self._thunk_expr(e.right, depth)
                t = self._fresh("t")
                self._emit(depth, f"{t} = _log({e.op!r}, {lhs}, {thunk})")
                return t
            lhs = self.expr(e.left, depth)
            rhs = self.expr(e.right, depth)
            t = self._fresh("t")
            self._emit(depth, f"{t} = _bin({e.op!r}, {lhs}, {rhs})")
            return t
        if isinstance(e, Select):
            cond = self.expr(e.cond, depth)
            then_thunk = self._thunk_expr(e.then, depth)
            else_thunk = self._thunk_expr(e.otherwise, depth)
            t = self._fresh("t")
            self._emit(depth, f"{t} = _sel({cond}, {then_thunk}, {else_thunk})")
            return t
        if isinstance(e, Cast):
            x = self.expr(e.operand, depth)
            t = self._fresh("t")
            self._emit(depth, f"{t} = _cst({self._cast_type(e)}, {x})")
            return t
        if isinstance(e, Call):
            args = [self.expr(a, depth) for a in e.args]
            t = self._fresh("t")
            self._emit(depth, f"{t} = _cal({e.func!r}, [{', '.join(args)}])")
            return t
        raise CodegenUnsupported(f"unknown expression {type(e).__name__}")

    def _thunk_expr(self, e: Expr, depth: int) -> str:
        """A nested ``def`` evaluating ``e`` lazily (short-circuit rhs,
        ternary arms) — called by the runtime under the proper lane mask."""
        name = self._fresh("f")
        self._emit(depth, f"def {name}():")
        result = self.expr(e, depth + 1)
        self._emit(depth + 1, f"return {result}")
        return name

    # -- statements -----------------------------------------------------------
    def stmts(self, body: list[Stmt], depth: int) -> None:
        if not body:
            self._emit(depth, "pass")
            return
        for s in body:
            self.stmt(s, depth)

    def stmt(self, s: Stmt, depth: int) -> None:
        if isinstance(s, Assign):
            value = self.expr(s.value, depth)
            if isinstance(s.target, VarRef):
                self._emit(depth, f"_asn({self._sym(s.target)}, {value})")
            elif isinstance(s.target, ArrayRef):
                idxs = [self.expr(i, depth) for i in s.target.indices]
                self._emit(
                    depth,
                    f"_st({self._node(s.target)}, [{', '.join(idxs)}], {value})",
                )
            else:
                raise CodegenUnsupported(
                    f"unknown assignment target {type(s.target).__name__}"
                )
        elif isinstance(s, LocalDecl):
            if s.init is not None:
                value = self.expr(s.init, depth)
                self._emit(depth, f"_asn({self._sym(s)}, {value})")
            else:
                self._emit(depth, f"_dd({s.sym.name!r})")
        elif isinstance(s, If):
            cond = self.expr(s.cond, depth)
            then_name = self._fresh("f")
            self._emit(depth, f"def {then_name}():")
            self.stmts(s.then_body, depth + 1)
            else_name = self._fresh("f")
            self._emit(depth, f"def {else_name}():")
            self.stmts(s.else_body, depth + 1)
            self._emit(depth, f"_if({cond}, {then_name}, {else_name})")
        elif isinstance(s, Loop):
            body_name = self._fresh("f")
            self._emit(depth, f"def {body_name}():")
            self.stmts(s.body, depth + 1)
            axis = self._plan.mode_of(s) == AXIS
            self._emit(depth, f"_lp({self._node(s)}, {body_name}, {axis})")
        elif isinstance(s, Region):
            body_name = self._fresh("f")
            self._emit(depth, f"def {body_name}():")
            self.stmts(s.body, depth + 1)
            # The name hint carries a process-global counter — bind it from
            # the node table so the source text stays deterministic.
            idx = self._pos[id(s)]
            hint = self._bind(("r", idx), f"__nodes__[{idx}].name_hint")
            self._emit(depth, f"_rg({hint}, {body_name})")
        else:
            raise CodegenUnsupported(f"unknown statement {type(s).__name__}")

    # -- assembly -------------------------------------------------------------
    def render(self) -> str:
        self.stmts(self._fn.body, 2)
        header = [
            f"# {FORMAT}",
            f"# kernel: {self._fn.name}",
            f"# nodes: {self._count}",
        ]
        # Planner demotions ride along so the cached-function fast path
        # (which never re-plans) still reports them.
        if self._plan.demotion_reasons:
            reasons = " | ".join(
                r.replace("\n", " ") for r in self._plan.demotion_reasons
            )
            header.append(f"# demoted: {reasons}")
        header.append("def __bind__(__nodes__):")
        binds = [_IND + line for line in self._binds]
        prologue = [
            _IND + "def __kernel__(R):",
            _IND * 2 + "_eg = R._env_get",
            _IND * 2 + "_asn = R._assign_scalar",
            _IND * 2 + "_dd = R._decl_default",
            _IND * 2 + "_bin = R._apply_binop",
            _IND * 2 + "_log = R._apply_logic",
            _IND * 2 + "_un = R._apply_unop",
            _IND * 2 + "_sel = R._apply_select",
            _IND * 2 + "_cst = R._apply_cast",
            _IND * 2 + "_cal = R._apply_call",
            _IND * 2 + "_ld = R._load_idx",
            _IND * 2 + "_st = R._store_idx",
            _IND * 2 + "_if = R._apply_if",
            _IND * 2 + "_lp = R._run_loop",
            _IND * 2 + "_rg = R._run_region",
        ]
        tail = [_IND + "return __kernel__", ""]
        return "\n".join(header + binds + prologue + self._lines + tail)


def generate_source(fn: KernelFunction, plan: KernelPlan | None = None) -> str:
    """Generate the straight-line NumPy program for ``fn``.

    ``plan`` defaults to a fresh :func:`plan_kernel` run; the planned
    axis/seq decision of every loop is baked into the emitted
    ``_run_loop`` call, so executing the program needs no plan at all.
    """
    if plan is None:
        plan = plan_kernel(fn)
    with span("codegen", kernel=fn.name, tier="numpy_source") as sp:
        source = _Generator(fn, plan).render()
        sp.set(bytes=len(source))
    return source


# ---------------------------------------------------------------------------
# Binding: source text -> function object
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class GeneratedKernel:
    """A generated program bound to node positions: ``run(interp)`` drives a
    :class:`~repro.gpu.vector_exec.VectorInterpreter` (or subclass) through
    the straight-line program."""

    kernel: str
    source: str
    func: object  # __kernel__(R)
    #: Planner demotion reasons captured at generation time (the cached
    #: fast path never re-plans, so these travel with the program).
    demoted: tuple = ()

    def run(self, interp) -> None:
        self.func(interp)


def _exec_globals() -> dict:
    # Deferred import: vector_exec imports this module lazily and vice versa.
    from ..gpu import vector_exec as vx

    def _fc(value: float):
        import numpy as np

        return vx.VArray(np.asarray(value, dtype=np.float64), vx.PYFLOAT)

    return {"__builtins__": {}, "__ic__": vx._const_int, "__fc__": _fc}


def bind_source(fn: KernelFunction, source: str) -> GeneratedKernel:
    """``exec`` generated source and bind it to ``fn``'s node positions.

    Validates the header (format, kernel name, node count) against the
    function it is being bound to; any mismatch — or a source that fails
    to compile — raises :class:`CodegenUnsupported`, which callers treat
    as a corrupt entry and fall back to re-planning.
    """
    lines = source.split("\n", 3)
    if len(lines) < 4 or lines[0] != f"# {FORMAT}":
        raise CodegenUnsupported("generated source: bad or missing format header")
    if lines[1] != f"# kernel: {fn.name}":
        raise CodegenUnsupported(
            f"generated source is for {lines[1].removeprefix('# kernel: ')!r}, "
            f"not {fn.name!r}"
        )
    nodes = enumerate_nodes(fn)
    if lines[2] != f"# nodes: {len(nodes)}":
        raise CodegenUnsupported(
            "generated source node count mismatch (stale entry?)"
        )
    demoted: tuple = ()
    first_body_line = lines[3].split("\n", 1)[0]
    if first_body_line.startswith("# demoted: "):
        demoted = tuple(
            first_body_line.removeprefix("# demoted: ").split(" | ")
        )
    try:
        code = compile(source, f"<numpy_source:{fn.name}>", "exec")
        namespace = _exec_globals()
        exec(code, namespace)  # noqa: S102 — our own generated text
        func = namespace["__bind__"](nodes)
    except CodegenUnsupported:
        raise
    except Exception as exc:  # noqa: BLE001 — corrupt source text
        raise CodegenUnsupported(f"generated source failed to bind: {exc}") from exc
    return GeneratedKernel(
        kernel=fn.name, source=source, func=func, demoted=demoted
    )


def compile_kernel(
    fn: KernelFunction, plan: KernelPlan | None = None
) -> GeneratedKernel:
    """Generate and bind in one step (cold path)."""
    return bind_source(fn, generate_source(fn, plan))


# ---------------------------------------------------------------------------
# In-memory function cache
# ---------------------------------------------------------------------------


class FunctionCache:
    """Process-wide cache of bound function objects keyed by content hash.

    Metrics (``cache.fnobj.hits`` / ``cache.fnobj.misses``) are counted
    into the registry the *caller* passes — sessions and brokers each see
    their own traffic against the shared cache.
    """

    def __init__(self, max_entries: int = 256):
        self._lock = threading.Lock()
        self._map: dict[str, GeneratedKernel] = {}
        self._max = max_entries
        self.hits = 0
        self.misses = 0

    def get(
        self, key: str, metrics=None, *, record_miss: bool = True
    ) -> GeneratedKernel | None:
        """Look up ``key``; ``record_miss=False`` makes a miss silent, for
        probes whose caller will retry through :func:`get_or_compile` (which
        counts the miss exactly once)."""
        with self._lock:
            gk = self._map.get(key)
            if gk is not None:
                self._map.pop(key)
                self._map[key] = gk  # LRU touch
                self.hits += 1
            elif record_miss:
                self.misses += 1
        if metrics is not None and (gk is not None or record_miss):
            metrics.counter(
                "cache.fnobj.hits" if gk is not None else "cache.fnobj.misses"
            ).inc()
        return gk

    def put(self, key: str, gk: GeneratedKernel) -> None:
        with self._lock:
            self._map[key] = gk
            while len(self._map) > self._max:
                self._map.pop(next(iter(self._map)))

    def source_for(self, key: str) -> str | None:
        """The cached generated source text, if any (for persistence)."""
        with self._lock:
            gk = self._map.get(key)
        return None if gk is None else gk.source

    def clear(self) -> None:
        with self._lock:
            self._map.clear()


_CACHE = FunctionCache()


def function_cache() -> FunctionCache:
    """The process-wide generated-function cache."""
    return _CACHE


def get_or_compile(
    fn: KernelFunction,
    plan: KernelPlan | None = None,
    *,
    content_key: str | None = None,
    source: str | None = None,
    metrics=None,
) -> GeneratedKernel:
    """Fetch the bound program for ``fn``, generating at most once.

    With a ``content_key``, repeat launches hit the in-memory function
    cache and skip planning and generation entirely.  ``source`` (from a
    warm disk-cache envelope) rebinds persisted text without re-planning;
    if it turns out corrupt or stale the tier regenerates from the plan.
    """
    if content_key is not None:
        cached = _CACHE.get(content_key, metrics)
        if cached is not None:
            return cached
    t0 = time.perf_counter()
    gk = None
    if source is not None:
        try:
            gk = bind_source(fn, source)
        except CodegenUnsupported:
            gk = None  # corrupt persisted source: regenerate below
            if metrics is not None:
                metrics.counter(
                    "cache.disk.codegen_corrupt",
                    "persisted codegen sources unusable at load time",
                ).inc()
    if gk is None:
        gk = compile_kernel(fn, plan)
    if metrics is not None:
        metrics.histogram("codegen.generate_ms").observe(
            (time.perf_counter() - t0) * 1000.0
        )
    if content_key is not None:
        _CACHE.put(content_key, gk)
    return gk
