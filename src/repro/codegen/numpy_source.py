"""Codegen execution tier: KernelPlan → typed Python/NumPy source.

Each planned kernel function is compiled into straight-line Python source
*specialised on the launch's argument kinds* — every scalar parameter's
kind (weak Python ``int``/``float``, or ``np.int32``/``int64``/
``float32``/``float64``) and every array's dtype.  With those fixed, the
kind of every expression follows statically from the IR: constants,
declared scalar types (the interpreter's ``_coerce_scalar`` rule), loop
variables (Python ints), array loads (the array's dtype) and NEP 50
promotion applied at generation time.  The program is plain NumPy
operators on bare arrays and scalars, with the interpreter's
load/store/flop counting folded into one increment per block.  Every
value is typed, or the kernel runs on the scalar oracle: a construct
whose kind would depend on control flow or the data (a scalar holding
different kinds on different paths, ternary arms of different kinds,
``min``/``max`` over mixed kinds, ``%`` on a float) raises
:class:`CodegenUnsupported`.

Guards are discharged where the ranges allow it.  A weak-integer operand
(``|x| < 2**31``) or an unmasked subscript that is a polynomial in
launch-uniform integer parameters and loop variables becomes a *launch
range check*: the program's prologue evaluates the polynomial's interval
from the parameters and the loops' concrete bounds, and raises
:class:`~repro.gpu.vector_exec.VectorUnsupported` if it could leave the
safe range.  The check is a pure function of those launch values, so a
program runs it once per distinct tuple of them.  Every other guard stays
a cheap per-op check.  The generator counts both
(``codegen.guards.static`` / ``.dynamic``).

Bit-for-bit equality with the scalar oracle holds by construction: the
program evaluates the tree in the interpreter's order, each operator
replays the interpreter's semantics for its kinds (or raises
``VectorUnsupported``), and loops keep their planned axis/sequential mode,
so it produces the oracle's arrays and
:class:`~repro.gpu.interpreter.ExecutionStats`.  Anything the generator
does not recognise raises :class:`CodegenUnsupported` and the executor
ladder falls back to the scalar interpreter.

Generated programs are made and bound on execution only, and cached in
memory under (content key, argument-kind signature); nothing persists
them.  A program's text reaches IR objects (loops, regions) only through
``__nodes__``, the list of nodes its generator referenced, which
:func:`bind_source` hands to it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from ..analysis.subscripts import affine_of
from ..gpu import vector_exec as vx
from ..gpu.interpreter import numpy_dtype
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
from ..ir.stmt import Assign, If, LocalDecl, Loop, Region, Stmt, walk_stmts
from ..obs.tracer import span
from .vector_lower import AXIS, KernelPlan, plan_kernel

__all__ = [
    "CodegenUnsupported",
    "GeneratedKernel",
    "GeneratedSource",
    "FunctionCache",
    "declared_signature",
    "generate_source",
    "guard_census",
    "bind_source",
    "compile_kernel",
    "get_or_compile",
    "function_cache",
]


class CodegenUnsupported(Exception):
    """The generator cannot express this kernel; callers fall back to the
    scalar interpreter (the message is the logged reason)."""


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

#: A comparison or logic result: a bool (array), the oracle's ``0``/``1``.
BOOL = "bool"
_INT_KINDS = {vx.PYINT, vx.I32, vx.I64}
_FLOAT_KINDS = {vx.PYFLOAT, vx.F32, vx.F64}
_CMP = {"<", "<=", ">", ">=", "==", "!="}
_WEAK_LIMIT = vx._INT_GUARD - 1
#: Integer constants beyond this cannot be held as int64 lanes.
_CONST_LIMIT = vx._CAST_GUARD


def declared_signature(fn: KernelFunction) -> tuple[tuple[str, str], ...]:
    """The argument-kind signature of a launch whose arguments follow the
    declarations: Python ``int``/``float`` scalars, arrays of the declared
    element type."""
    kinds = []
    for p in fn.params:
        if p.is_array:
            kind = vx._DTYPE_KIND[np.dtype(numpy_dtype(p))]
        else:
            kind = vx.PYFLOAT if p.stype.is_float else vx.PYINT
        kinds.append((p.name, kind))
    return tuple(sorted(kinds))


def _join(a: dict, b: dict) -> dict:
    """Merge two variable-kind states at a control-flow join; a variable
    holding different kinds on the two paths maps to ``None`` (reading it
    is unsupported)."""
    out = dict(a)
    for name, kind in b.items():
        out[name] = kind if out.get(name, kind) == kind else None
    return out


def _assigned_names(stmts: list[Stmt]) -> set[str]:
    names = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Assign) and isinstance(s.target, VarRef):
            names.add(s.target.sym.name)
        elif isinstance(s, LocalDecl):
            names.add(s.sym.name)
    return names


def _flow(stmts: list[Stmt], state: dict) -> dict:
    """The variable kinds after ``stmts`` (kind analysis only)."""
    for s in stmts:
        if isinstance(s, Assign):
            if isinstance(s.target, VarRef):
                state[s.target.sym.name] = _coerced(s.target.sym)
        elif isinstance(s, LocalDecl):
            name = s.sym.name
            if s.init is not None:
                state[name] = _coerced(s.sym)
            else:
                state[name] = _join({name: state.get(name, vx.PYINT)},
                                    {name: vx.PYINT})[name]
        elif isinstance(s, If):
            state = _join(_flow(s.then_body, dict(state)),
                          _flow(s.else_body, dict(state)))
        elif isinstance(s, Loop):
            entry = _loop_entry(s, state)
            state = _after_loop(s, state, _flow(s.body, dict(entry)))
        elif isinstance(s, Region):
            state = _flow(s.body, state)
    return state


def _coerced(sym) -> str:
    return vx.PYFLOAT if sym.stype.is_float else vx.PYINT


def _loop_entry(loop: Loop, state: dict) -> dict:
    """Fixpoint of the kinds at the head of ``loop``'s body."""
    entry = dict(state)
    entry[loop.var.name] = vx.PYINT
    while True:
        new = _join(state, _flow(loop.body, dict(entry)))
        new[loop.var.name] = vx.PYINT
        if new == entry:
            return entry
        entry = new


def _after_loop(loop: Loop, before: dict, end: dict) -> dict:
    after = _join(before, end)
    var = loop.var.name
    after[var] = _join(before, {var: vx.PYINT})[var] if var in before else vx.PYINT
    return after


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------

_IND = "    "


@dataclass(slots=True)
class _Val:
    code: str  # a Python expression (temp name, literal or prologue local)
    kind: str  # a value kind or BOOL
    literal: object = None  # the Python value of a literal constant
    #: Known to be 0 or 1 (a converted BOOL): no weak-int guard needed.
    small: bool = False


class _Generator:
    def __init__(self, fn: KernelFunction, plan: KernelPlan, signature):
        self._fn = fn
        self.plan = plan
        self._sig = dict(signature)
        self._signature = signature
        #: IR objects the program references, as ``__nodes__[i]``.
        self.nodes: list[object] = []
        self._binds: list[str] = []  # bind-time lines (run once per exec)
        self._bound: dict[tuple, str] = {}
        self._lines: list[str] = []  # kernel body lines
        self._n = 0
        self._used: set[str] = set()  # runtime methods the body calls
        # Launch prologue: hoisted parameters, arrays, loop intervals, facts.
        self._pro_vals: list[str] = []
        self._pro_loops: list[str] = []
        self._weak_facts: dict[str, None] = {}
        self._subscript_facts: dict[tuple, None] = {}
        self._arrays: dict[str, str] = {}
        written = _assigned_names(fn.body) | {
            loop.var.name for loop in walk_stmts(fn.body) if isinstance(loop, Loop)
        }
        #: Parameters fixed for the whole launch (never written).
        self._invariant = {
            p.name for p in fn.params if not p.is_array and p.name not in written
        }
        #: ... of which the integer-kinded ones usable in range facts.
        self._bounded = {
            name for name in self._invariant if self._sig[name] in _INT_KINDS
        }
        self._kinds: dict[str, str] = {
            p.name: self._sig[p.name] for p in fn.params if not p.is_array
        }
        #: Enclosing loops: (variable, interval local or None, lane-uniform).
        self._ctx: list[tuple[str, str | None, bool]] = []
        self._masked = 0  # inside a branch, ternary arm or short-circuit rhs
        self._varying = 0  # inside a loop whose bounds may differ per lane
        self._slots = 0
        self.rank = 0
        self._blocks: list[list] = []  # [insert index, depth, loads, stores, flops]
        self._reads: dict[str, str] = {}  # per-block variable-read temps
        self._region: int | None = None
        self.census: dict[int | None, list[int]] = {}

    # -- naming -------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        name = f"_{prefix}{self._n}"
        self._n += 1
        return name

    def _emit(self, depth: int, line: str) -> None:
        self._lines.append(_IND * depth + line)

    def _call(self, name: str) -> str:
        self._used.add(name)
        return name

    def _bind(self, key: tuple, rhs: str) -> str:
        name = self._bound.get(key)
        if name is None:
            name = self._fresh(key[0])
            self._bound[key] = name
            self._binds.append(f"{name} = {rhs}")
        return name

    def _node(self, node: object, attr: str = "") -> str:
        """A bind-time local holding ``node`` (or its ``attr``)."""
        key = ("n", id(node), attr)
        name = self._bound.get(key)
        if name is None:
            self.nodes.append(node)
            name = self._bind(key, f"__nodes__[{len(self.nodes) - 1}]{attr}")
        return name

    def _temp(self, depth: int, rhs: str) -> str:
        t = self._fresh("t")
        self._emit(depth, f"{t} = {rhs}")
        return t

    def _guard(self, static: bool) -> None:
        counts = self.census.setdefault(self._region, [0, 0])
        counts[0 if static else 1] += 1

    # -- blocks ---------------------------------------------------------------
    def _open_block(self, depth: int) -> None:
        self._blocks.append([len(self._lines), depth, 0, 0, 0])
        self._reads = {}

    def _close_block(self) -> None:
        at, depth, loads, stores, flops = self._blocks.pop()
        if loads or stores or flops:
            self._lines.insert(
                at, _IND * depth + f"{self._call('_cnt')}({loads}, {stores}, {flops})"
            )
        self._reads = {}

    def _forget(self, names: set[str]) -> None:
        """Drop the cached reads of variables a nested construct may have
        written (an axis loop also narrows the lanes of everything it
        wrote, which assignment already covers)."""
        for name in names:
            self._reads.pop(name, None)

    def _tally(self, slot: int) -> None:
        self._blocks[-1][slot] += 1

    def _body(self, depth: int, emit) -> str:
        """Emit a nested ``def`` whose body ``emit(depth + 1)`` writes."""
        name = self._fresh("f")
        self._emit(depth, f"def {name}():")
        saved = self._reads
        self._open_block(depth + 1)
        emit(depth + 1)
        self._close_block()
        self._reads = saved
        return name

    # -- launch prologue ------------------------------------------------------
    def _array(self, ref: ArrayRef) -> str:
        name = ref.sym.name
        local = self._arrays.get(name)
        if local is None:
            local = self._fresh("A")
            self._arrays[name] = local
            flat = ".reshape(-1)" if ref.sym.array is not None and ref.sym.array.is_pointer else ""
            self._pro_vals.append(f"{local} = R._arrays[{name!r}]{flat}")
        return local

    def _extent(self, ref: ArrayRef, axis: int) -> str:
        arr = self._array(ref)
        return self._prologue(("E", arr, axis), f"{arr}.shape[{axis}]")

    def _lower(self, ref: ArrayRef, axis: int) -> tuple[str, int | None]:
        """(code, static value) of a subscript's declared lower bound."""
        info = ref.sym.array
        if info is None or info.is_pointer or not info.dims:
            return "0", 0
        lower = info.dims[axis].lower
        if isinstance(lower, int):
            return repr(lower), lower
        return self._prologue(
            ("W", ref.sym.name, axis), f"R._lowers[{ref.sym.name!r}][{axis}]"
        ), None

    def _prologue(self, key: tuple, rhs: str) -> str:
        name = self._bound.get(key)
        if name is None:
            name = self._fresh(key[0])
            self._bound[key] = name
            self._pro_vals.append(f"{name} = {rhs}")
        return name

    def _param_int(self, name: str) -> str:
        value = self._read(name, 0).code  # hoisted: the parameter is invariant
        return self._prologue(("I", name), f"int({value})")

    def _poly(self, e: Expr) -> str | None:
        """Interval code for ``e`` over launch values, or ``None`` when ``e``
        is not a polynomial in bounded parameters and loop variables."""
        form = affine_of(e)
        if form is None:
            return None
        const: list[str] = []
        terms: list[str] = []
        for monomial, coef in form.terms:
            factors = [repr(coef)]
            intervals = []
            for sym in monomial:
                name = sym.name
                binding = next((iv for var, iv, _ in reversed(self._ctx) if var == name), False)
                if binding is None:
                    return None  # an unbounded loop
                if binding is not False:
                    intervals.append(binding)
                elif name in self._bounded:
                    factors.append(self._param_int(name))
                else:
                    return None
            coef_code = "*".join(factors)
            if intervals:
                terms.append(f"({coef_code}, {', '.join(intervals)})")
            else:
                const.append(coef_code)
        return f"_poly({' + '.join(const) or '0'}{''.join(', ' + t for t in terms)})"

    def _fact(self, e: Expr, subscript: tuple | None = None) -> bool:
        """Record a launch range fact on ``e``: a weak-integer operand's
        ``|e| < 2**31``, or for ``subscript=(lower, extent, array, axis)``
        ``lower <= e < lower + extent``.  False if ``e`` is not a bounded
        polynomial here."""
        poly = self._poly(e)
        if poly is None:
            return False
        if subscript is None:
            self._weak_facts[poly] = None
        else:
            self._subscript_facts[(poly, *subscript)] = None
        return True

    def _uniform(self, e: Expr) -> bool:
        """Is loop bound ``e`` provably the same on every lane?"""
        if isinstance(e, IntConst):
            return True
        if isinstance(e, VarRef):
            name = e.sym.name
            binding = next((u for var, _, u in reversed(self._ctx) if var == name), None)
            return binding if binding is not None else name in self._invariant
        if isinstance(e, UnOp):
            return e.op == "-" and self._uniform(e.operand)
        if isinstance(e, BinOp):
            return self._uniform(e.left) and self._uniform(e.right)
        return False

    def _loop_interval(self, loop: Loop) -> str | None:
        if loop.var.name in _assigned_names(loop.body):
            return None
        lo, hi = self._poly(loop.init), self._poly(loop.bound)
        if lo is None or hi is None:
            return None
        name = self._fresh("L")
        self._pro_loops.append(
            f"{name} = _span({lo}, {hi}, {loop.cond_op!r}, {loop.step})"
        )
        return name

    # -- expressions ----------------------------------------------------------
    def expr(self, e: Expr, depth: int) -> _Val:
        """Return the inline code computing ``e``, emitting at ``depth`` only
        the statements it needs first (variable reads, lazy thunks).
        Evaluation order replays the interpreter's (see :meth:`_eval_all`)."""
        if isinstance(e, IntConst):
            if abs(e.value) >= _CONST_LIMIT:
                raise CodegenUnsupported(
                    f"integer constant {e.value} exceeds the int64-safe range"
                )
            code = repr(e.value) if e.value >= 0 else f"({e.value!r})"
            return _Val(code, vx.PYINT, e.value)
        if isinstance(e, FloatConst):
            if not math.isfinite(e.value):
                raise CodegenUnsupported(f"non-finite float constant {e.value!r}")
            code = repr(e.value) if e.value >= 0 else f"({e.value!r})"
            return _Val(code, vx.PYFLOAT, e.value)
        if isinstance(e, VarRef):
            return self._read(e.sym.name, depth)
        if isinstance(e, ArrayRef):
            idx = self._subscripts(e, self._eval_all(e.indices, depth), depth, load=True)
            self._tally(2)
            return _Val(f"{self._array(e)}[{', '.join(idx)}]", self._sig[e.sym.name])
        if isinstance(e, UnOp):
            x = self.expr(e.operand, depth)
            if e.op == "!":
                return _Val(f"({x.code} == 0)", BOOL)
            if e.op != "-":
                raise CodegenUnsupported(f"unknown unary {e.op!r}")
            x = self._int_of(x)
            return _Val(f"(-{x.code})", x.kind)
        if isinstance(e, BinOp):
            if e.op in ("&&", "||"):
                lhs = self.expr(e.left, depth)
                self._masked += 1
                thunk, _ = self._thunk(e.right, depth, lambda v: v.code)
                self._masked -= 1
                return _Val(f"{self._call('_lg')}({e.op!r}, {lhs.code}, {thunk})", BOOL)
            return self._binop(e, depth)
        if isinstance(e, Select):
            return self._select(e, depth)
        if isinstance(e, Cast):
            x = self.expr(e.operand, depth)
            if e.to_type.is_float:
                cast = "_f64" if e.to_type.bits == 64 else "_f32"
                return _Val(f"{cast}({x.code})", vx.PYFLOAT)
            return _Val(self._to_int(x, "int cast"), vx.PYINT)
        if isinstance(e, Call):
            return self._intrinsic(e.func, self._eval_all(e.args, depth))
        raise CodegenUnsupported(f"unknown expression {type(e).__name__}")

    def _eval_all(self, exprs, depth: int) -> list[_Val]:
        """Codes for ``exprs``, evaluated left to right.  Codes are inline
        expressions, so when a later operand had to emit statements first,
        each earlier non-trivial operand is bound to a temp placed before
        those statements — keeping the interpreter's evaluation order."""
        vals, ends = [], []
        for e in exprs:
            vals.append(self.expr(e, depth))
            ends.append(len(self._lines))
        for i in reversed(range(len(vals) - 1)):
            v = vals[i]
            if ends[-1] > ends[i] and not (v.code.isidentifier() or v.literal is not None):
                t = self._fresh("t")
                self._lines.insert(ends[i], _IND * depth + f"{t} = {v.code}")
                vals[i] = replace(v, code=t)
        return vals

    def _read(self, name: str, depth: int) -> _Val:
        if name not in self._kinds:
            raise CodegenUnsupported(f"scalar {name!r} read before any assignment")
        kind = self._kinds[name]
        if kind is None:
            raise CodegenUnsupported(
                f"scalar {name!r} holds different kinds on different paths"
            )
        if name in self._invariant:
            code = self._prologue(("P", name), f"R._env_value({name!r}, {kind!r})")
            return _Val(code, kind)
        cached = self._reads.get(name)
        if cached is None:
            rhs = f"{self._call('_ev')}({name!r}, {kind!r})"
            cached = self._reads[name] = self._temp(depth, rhs)
        return _Val(cached, kind)

    def _intrinsic(self, func: str, args: list[_Val]) -> _Val:
        """An intrinsic call, one flop; transcendentals go through
        ``math.*`` per element, as the interpreter computes them."""
        args = [self._int_of(a) for a in args]
        if len(args) < (2 if func == "pow" else 1):
            raise CodegenUnsupported(f"{func} with {len(args)} arguments")
        self._tally(4)
        x = args[0]
        if func == "sqrt":
            return _Val(f"{self._call('_sqrt')}({x.code})", vx.PYFLOAT)
        if func in ("exp", "log", "sin", "cos", "tan", "pow"):
            codes = ", ".join(a.code for a in args[: 2 if func == "pow" else 1])
            return _Val(f"{self._call('_math')}({func!r}, {codes})", vx.PYFLOAT)
        if func in ("fabs", "abs"):
            return _Val(f"_abs({x.code})", x.kind)
        if func in ("min", "fmin", "max", "fmax"):
            if any(a.kind != x.kind for a in args[1:]):
                kinds = ", ".join(a.kind for a in args)
                raise CodegenUnsupported(f"{func} over mixed kinds ({kinds})")
            pick = "min" if func in ("min", "fmin") else "max"
            codes = ", ".join(a.code for a in args)
            return _Val(f"_pick({pick!r}, _dt_{x.kind}, {codes})", x.kind)
        if func in ("floor", "ceil"):
            if x.kind in _FLOAT_KINDS:
                x = _Val(f"_{func}(_f64({x.code}))", vx.PYFLOAT)
            return _Val(self._to_int(x, func), vx.PYINT)
        raise CodegenUnsupported(f"unknown intrinsic {func!r}")

    def _thunk(self, e: Expr, depth: int, result) -> str:
        """A nested ``def`` evaluating ``e`` lazily (short-circuit rhs,
        ternary arms) — called by the runtime under the proper lane mask."""
        name = self._fresh("f")
        self._emit(depth, f"def {name}():")
        saved = self._reads
        self._open_block(depth + 1)
        value = self.expr(e, depth + 1)
        self._emit(depth + 1, f"return {result(value)}")
        self._close_block()
        self._reads = saved
        return name, value

    # -- value plumbing -------------------------------------------------------
    def _int_of(self, v: _Val) -> _Val:
        """A BOOL value as the oracle's 0/1 integer."""
        if v.kind != BOOL:
            return v
        return _Val(f"_b2i({v.code})", vx.PYINT, small=True)

    def _to_int(self, v: _Val, what: str) -> str:
        """``int(v)``: a Python-int conversion of an integer value, or a
        guarded float→int truncation."""
        if v.kind in _INT_KINDS | {BOOL}:
            return f"_i64({v.code})"
        self._guard(static=False)  # float→int
        return f"{self._call('_fi')}({v.code}, {what!r})"

    def _weak_operand(self, e: Expr, v: _Val, op: str) -> str:
        """``v``'s code, guarded as a weak-int operand of ``op``."""
        if v.literal is not None:
            static = abs(v.literal) <= _WEAK_LIMIT
        else:
            static = v.small or self._fact(e)
        self._guard(static)
        if static:
            return v.code
        return f"{self._call('_wk')}({v.code}, {f'operator {op!r}'!r})"

    def _binop(self, e: BinOp, depth: int) -> _Val:
        op = e.op
        lhs, rhs = self._eval_all((e.left, e.right), depth)
        if op == "%" and not {lhs.kind, rhs.kind} <= _INT_KINDS | {BOOL}:
            raise CodegenUnsupported(f"'%' on a float operand ({lhs.kind} % {rhs.kind})")
        if op not in _CMP | {"+", "-", "*", "/", "%"}:
            raise CodegenUnsupported(f"unknown operator {op!r}")
        if op not in _CMP:
            lhs, rhs = self._int_of(lhs), self._int_of(rhs)
        lk = vx.PYINT if lhs.kind == BOOL else lhs.kind
        rk = vx.PYINT if rhs.kind == BOOL else rhs.kind
        kind = vx._promote(lk, rk)
        dtype = vx._KIND_DTYPE[kind]
        floaty = dtype.kind == "f"
        codes = []
        for sub, v in ((e.left, lhs), (e.right, rhs)):
            code = v.code
            if v.kind == vx.PYINT and (op not in _CMP or floaty):
                code = self._weak_operand(sub, v, op)
            narrow = dtype.itemsize < 8 and (op not in _CMP or floaty)
            if v.kind in (vx.PYINT, vx.PYFLOAT) and narrow and v.literal is None:
                code = f"_cv({code}, _dt_{kind})"
            codes.append(code)
        a, b = codes
        if op in _CMP:
            return _Val(f"({a} {op} {b})", BOOL)
        if lk in vx._PYFLOAT_LIKE or rk in vx._PYFLOAT_LIKE or kind in vx._PYFLOAT_LIKE:
            self._tally(4)
        if op in ("+", "-", "*"):
            return _Val(f"({a} {op} {b})", kind)
        nonzero = rhs.literal is not None and rhs.literal != 0
        both_int = lk in _INT_KINDS and rk in _INT_KINDS
        if op == "%" or both_int:
            self._guard(static=nonzero)
            fn = self._call("_imd" if op == "%" else "_idv")
            return _Val(f"{fn}({a}, {b}, {not nonzero})", kind)
        if lk in vx._WEAK and rk in vx._WEAK:
            self._guard(static=nonzero)
            return _Val(f"{self._call('_wdv')}({a}, {b}, {not nonzero})", kind)
        return _Val(f"({a} / {b})", kind)

    def _select(self, e: Select, depth: int) -> _Val:
        cond = self.expr(e.cond, depth)
        self._masked += 1
        then_thunk, then_v = self._thunk(e.then, depth, lambda v: v.code)
        then_ret = len(self._lines) - 1
        else_thunk, else_v = self._thunk(e.otherwise, depth, lambda v: v.code)
        self._masked -= 1
        kinds = {then_v.kind, else_v.kind}
        if len(kinds) == 1:
            kind = then_v.kind
        elif kinds == {BOOL, vx.PYINT}:
            kind = vx.PYINT
            # Both arms must return one representation: rewrite their
            # returns now that both kinds are known.
            for at, v in ((then_ret, then_v), (len(self._lines) - 1, else_v)):
                line = self._lines[at]
                indent = line[: len(line) - len(line.lstrip())]
                self._lines[at] = indent + f"return {self._int_of(v).code}"
        else:
            raise CodegenUnsupported(
                f"ternary arms of different kinds ({then_v.kind} vs {else_v.kind})"
            )
        return _Val(f"{self._call('_sel')}({cond.code}, {then_thunk}, {else_thunk})", kind)

    def _subscripts(
        self, ref: ArrayRef, vals: list[_Val], depth: int, *, load: bool
    ) -> list[str]:
        name = ref.sym.name
        out = []
        for axis, (sub, v) in enumerate(zip(ref.indices, vals)):
            if v.kind in _FLOAT_KINDS:
                code = self._to_int(v, f"subscript of {name!r}")
            else:
                code = self._int_of(v).code
            lower, lower_value = self._lower(ref, axis)
            if lower_value != 0:
                code = f"({code} - {lower})"
            extent = self._extent(ref, axis)
            proved = (
                not self._masked
                and v.kind in _INT_KINDS
                and self._fact(sub, (lower, extent, name, axis))
            )
            self._guard(static=proved)
            if not proved:
                code = f"{self._call('_bnd')}({code}, {extent}, {name!r})"
            elif load and (self._masked or self._varying):
                # Lanes a mask switched off may hold garbage subscripts.
                if not code.isidentifier():
                    code = self._temp(depth, code)
                code = f"({code} if R._mask is None else {self._call('_clp')}({code}, {extent}))"
            out.append(code)
        return out

    # -- statements -----------------------------------------------------------
    def stmts(self, body: list[Stmt], depth: int) -> None:
        if not body:
            self._emit(depth, "pass")
            return
        for s in body:
            self.stmt(s, depth)

    def _assign(self, sym, value: _Val, depth: int) -> None:
        """The interpreter's ``_coerce_scalar``: ``float()`` or ``int()``
        per the symbol's declared type."""
        name = sym.name
        if sym.stype.is_float:
            self._emit(depth, f"{self._call('_sf')}({name!r}, {value.code})")
        else:
            code = value.code
            if value.kind in _FLOAT_KINDS:
                code = self._to_int(value, f"int({name})")
            self._emit(depth, f"{self._call('_si')}({name!r}, {code})")
        self._kinds[name] = _coerced(sym)
        self._reads.pop(name, None)

    def stmt(self, s: Stmt, depth: int) -> None:
        if isinstance(s, Assign):
            if isinstance(s.target, VarRef):
                self._assign(s.target.sym, self.expr(s.value, depth), depth)
            elif isinstance(s.target, ArrayRef):
                self._store(s.target, s.value, depth)
            else:
                raise CodegenUnsupported(
                    f"unknown assignment target {type(s.target).__name__}"
                )
        elif isinstance(s, LocalDecl):
            if s.init is not None:
                self._assign(s.sym, self.expr(s.init, depth), depth)
            else:
                name = s.sym.name
                self._emit(depth, f"{self._call('_dd')}({name!r})")
                self._kinds = _flow([s], self._kinds)
                self._reads.pop(name, None)
        elif isinstance(s, If):
            cond = self.expr(s.cond, depth)
            before = self._kinds
            self._masked += 1
            self._kinds = dict(before)
            then_name = self._body(depth, lambda d: self.stmts(s.then_body, d))
            after_then = self._kinds
            self._kinds = dict(before)
            else_name = self._body(depth, lambda d: self.stmts(s.else_body, d))
            self._masked -= 1
            self._kinds = _join(after_then, self._kinds)
            self._emit(depth, f"{self._call('_if')}({cond.code}, {then_name}, {else_name})")
            self._forget(_assigned_names(s.then_body + s.else_body))
        elif isinstance(s, Loop):
            self._loop(s, depth)
        elif isinstance(s, Region):
            saved = self._region
            self._region = s.region_id
            self.census.setdefault(s.region_id, [0, 0])
            body_name = self._body(depth, lambda d: self.stmts(s.body, d))
            self._region = saved
            # The name hint carries a process-global counter — bind it from
            # the node list so the source text stays deterministic.
            hint = self._node(s, ".name_hint")
            self._emit(depth, f"{self._call('_rg')}({hint}, {body_name})")
            self._forget(_assigned_names(s.body))
        else:
            raise CodegenUnsupported(f"unknown statement {type(s).__name__}")

    def _loop(self, s: Loop, depth: int) -> None:
        before = self._kinds
        self._kinds = _loop_entry(s, before)
        slot = None
        if self.plan.mode_of(s) == AXIS:
            slot = self._slots
            self._slots += 1
            self.rank = max(self.rank, self._slots)
        # Lane-varying bounds make the runtime walk the loop under a mask.
        varying = not (self._uniform(s.init) and self._uniform(s.bound))
        self._varying += varying
        self._ctx.append((
            s.var.name, self._loop_interval(s),
            slot is None and not varying and not self._masked,
        ))
        body_name = self._body(depth, lambda d: self.stmts(s.body, d))
        self._ctx.pop()
        self._varying -= varying
        if slot is not None:
            self._slots -= 1
        self._kinds = _after_loop(s, before, self._kinds)
        self._emit(depth, f"{self._call('_lp')}({self._node(s)}, {body_name}, {slot})")
        self._forget(_assigned_names(s.body) | {s.var.name})

    def _store(self, ref: ArrayRef, value: Expr, depth: int) -> None:
        arr = self._array(ref)
        value, *vals = self._eval_all((value, *ref.indices), depth)
        idx = self._subscripts(ref, vals, depth, load=False)
        self._tally(3)
        target = self._sig[ref.sym.name]
        index = f"({', '.join(idx)},)"
        kind = vx.PYINT if value.kind == BOOL else value.kind
        if target in _INT_KINDS and not (
            value.kind in (BOOL, target)
            or (target == vx.I64 and kind in _INT_KINDS)
        ):
            self._guard(static=False)
            self._emit(depth, f"{self._call('_stc')}({arr}, {index}, "
                              f"{self._int_of(value).code}, {kind in _FLOAT_KINDS})")
            return
        if target in _INT_KINDS:
            self._guard(static=True)
        self._emit(depth, f"{self._call('_st')}({arr}, {index}, {value.code})")

    # -- assembly -------------------------------------------------------------
    _RUNTIME = {
        "_ev": "_env_value", "_sf": "_set_float", "_si": "_set_int",
        "_dd": "_decl_default", "_sel": "_select", "_lg": "_logic",
        "_st": "_store", "_stc": "_store_checked",
        "_if": "_apply_if", "_lp": "_run_loop", "_rg": "_run_region",
        "_cnt": "_count", "_wk": "_weak", "_bnd": "_bounds", "_clp": "_clip",
        "_fi": "_float_to_int", "_idv": "_int_div", "_imd": "_int_mod",
        "_wdv": "_weak_div", "_sqrt": "_sqrt", "_math": "_math",
    }

    def render(self) -> str:
        self._open_block(2)
        self.stmts(self._fn.body, 2)
        self._close_block()
        header = [
            f"# {self._fn.name} ({vx.format_signature(self._signature)})",
            "def __bind__(__nodes__):",
        ]
        binds = list(self._binds)
        binds.append(f"_SIG = {self._signature!r}")
        prologue = [
            "def __kernel__(R):",
            _IND + f"R._begin({self.rank}, _SIG)",
        ]
        prologue += [
            _IND + f"{short} = R.{self._RUNTIME[short]}"
            for short in sorted(self._used)
        ]
        prologue += [_IND + line for line in self._pro_vals]
        checks = list(self._pro_loops)
        if self._weak_facts:
            checks.append(f"_rw({', '.join(self._weak_facts)})")
        checks += [
            f"_rs({poly}, {lower}, {extent}, {name!r}, {axis})"
            for poly, lower, extent, name, axis in self._subscript_facts
        ]
        if checks:
            # The facts are a pure function of the launch values they read
            # (integer parameters, extents, lower bounds): check each
            # distinct tuple of them once.
            launch = [
                name for key, name in self._bound.items() if key[0] in ("I", "E", "W")
            ]
            binds.append("_checked = set()")
            prologue.append(_IND + f"_launch = ({''.join(n + ', ' for n in launch)})")
            prologue.append(_IND + "if _launch not in _checked:")
            prologue += [_IND * 2 + line for line in checks]
            prologue.append(_IND * 2 + "_remember(_checked, _launch)")
        body = [_IND + line for line in binds] + [_IND + line for line in prologue]
        tail = [_IND + "return __kernel__", ""]
        return "\n".join(header + body + self._lines + tail)


def _span(lo, hi, cond_op: str, step: int):
    """The interval of a loop variable whose bounds lie in ``lo``/``hi``
    (``None`` when the loop can never run); mirrors ``_range_of``."""
    if lo is None or hi is None:
        return None
    adjust = {"<": 0, "<=": 1, ">": 0, ">=": -1}[cond_op]
    if step > 0:
        first, last = lo[0], hi[1] + adjust - 1
    else:
        first, last = hi[0] + adjust + 1, lo[1]
    return (first, last) if first <= last else None


def _poly(const: int, *terms):
    """Interval of ``const + Σ coef·Π intervals`` (``None`` if any loop
    in a term never runs)."""
    lo = hi = const
    for coef, *intervals in terms:
        tlo = thi = coef
        for iv in intervals:
            if iv is None:
                return None
            corners = (tlo * iv[0], tlo * iv[1], thi * iv[0], thi * iv[1])
            tlo, thi = min(corners), max(corners)
        lo += tlo
        hi += thi
    return lo, hi


def _range_check(interval, lo: int, hi: int, what: str) -> None:
    """One launch range fact: every value ``interval`` covers is in
    ``[lo, hi]``, or the launch falls back to the scalar oracle."""
    if interval is not None and (interval[0] < lo or interval[1] > hi):
        raise vx.VectorUnsupported(
            f"launch range check: {what} spans [{interval[0]}, {interval[1]}] "
            f"outside [{lo}, {hi}]"
        )


def _remember(checked: set, launch: tuple) -> None:
    """Record a launch tuple whose range facts held (bounded: a program
    launched at many sizes forgets the oldest ones wholesale)."""
    if len(checked) >= 64:
        checked.clear()
    checked.add(launch)


def _check_weak(*intervals) -> None:
    """The weak-integer operands' launch facts: ``|x| < 2**31``."""
    for interval in intervals:
        _range_check(interval, -_WEAK_LIMIT, _WEAK_LIMIT, "a weak-integer operand")


def _check_subscript(interval, lower: int, extent: int, array: str, axis: int) -> None:
    """An unmasked subscript's launch fact: ``lower <= x < lower + extent``."""
    _range_check(interval, lower, lower + extent - 1, f"subscript {axis} of {array!r}")


@dataclass(frozen=True, slots=True)
class GeneratedSource:
    """A generated program before binding: its text and what the generator
    learned while writing it."""

    kernel: str
    text: str
    #: The IR objects ``text`` references as ``__nodes__[i]``.
    nodes: tuple
    #: Planner demotion reasons captured at generation time (the cached
    #: fast path never re-plans, so these travel with the program).
    demoted: tuple[str, ...]
    #: Guards discharged at generation/launch time vs checked per op.
    guards_static: int
    guards_dynamic: int


def _generate(fn: KernelFunction, plan: KernelPlan | None, signature) -> _Generator:
    if plan is None:
        plan = plan_kernel(fn)
    if signature is None:
        signature = declared_signature(fn)
    gen = _Generator(fn, plan, signature)
    gen.text = gen.render()
    return gen


def generate_source(
    fn: KernelFunction, plan: KernelPlan | None = None, signature=None
) -> GeneratedSource:
    """Generate the typed NumPy program for ``fn``.

    ``plan`` defaults to a fresh :func:`plan_kernel` run; the planned
    axis/seq decision of every loop is baked into the emitted
    ``_run_loop`` call, so executing the program needs no plan at all.
    ``signature`` (see :func:`~repro.gpu.vector_exec.argument_signature`)
    defaults to :func:`declared_signature`; the program refuses to run on
    arguments of other kinds.
    """
    with span("codegen", kernel=fn.name, tier="numpy_source") as sp:
        gen = _generate(fn, plan, signature)
        sp.set(bytes=len(gen.text))
    return GeneratedSource(
        kernel=fn.name, text=gen.text, nodes=tuple(gen.nodes),
        demoted=tuple(gen.plan.demotion_reasons),
        guards_static=sum(c[0] for c in gen.census.values()),
        guards_dynamic=sum(c[1] for c in gen.census.values()),
    )


def guard_census(
    fn: KernelFunction, plan: KernelPlan | None = None, signature=None
) -> dict[int | None, tuple[int, int]]:
    """``(static, dynamic)`` guard counts per region id of ``fn``'s
    generated program (``None`` keys code outside any region)."""
    gen = _generate(fn, plan, signature)
    return {region: (s, d) for region, (s, d) in gen.census.items()}


# ---------------------------------------------------------------------------
# Binding: generated source -> function object
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class GeneratedKernel:
    """A bound generated program: ``run(interp)`` drives a
    :class:`~repro.gpu.vector_exec.VectorInterpreter` (or subclass) through
    the straight-line program."""

    source: GeneratedSource
    func: object  # __kernel__(R)

    def run(self, interp) -> None:
        # Lanes a mask switched off may overflow or divide by zero; their
        # results are never observed, so NumPy's warnings are noise (the
        # interpreter's own Python-semantics errors are guarded per op).
        with np.errstate(all="ignore"):
            self.func(interp)


_EXEC_GLOBALS = {
    "__builtins__": {"int": int, "set": set},
    "_b2i": vx._bool_to_int,
    "_cv": vx._cast_to,
    "_f64": vx._as_f64,
    "_f32": vx._as_f32,
    "_i64": vx._as_i64,
    "_abs": np.abs,
    "_floor": np.floor,
    "_ceil": np.ceil,
    "_pick": vx._pick,
    "_span": _span,
    "_poly": _poly,
    "_rw": _check_weak,
    "_remember": _remember,
    "_rs": _check_subscript,
    **{f"_dt_{kind}": dtype for kind, dtype in vx._KIND_DTYPE.items()},
}


def bind_source(source: GeneratedSource) -> GeneratedKernel:
    """``exec`` a generated program in a namespace holding only the
    runtime helpers, binding it to the nodes its generator referenced.
    A program that fails to compile is a generator bug: it propagates."""
    code = compile(source.text, f"<numpy_source:{source.kernel}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
    exec(code, namespace)  # noqa: S102 — our own generated text
    return GeneratedKernel(source=source, func=namespace["__bind__"](source.nodes))


def compile_kernel(
    fn: KernelFunction, plan: KernelPlan | None = None, signature=None
) -> GeneratedKernel:
    """Generate and bind in one step (cold path)."""
    return bind_source(generate_source(fn, plan, signature))


# ---------------------------------------------------------------------------
# In-memory function cache
# ---------------------------------------------------------------------------


class FunctionCache:
    """Process-wide cache of bound function objects, keyed by (content
    hash, argument-kind signature): one program per signature.

    Metrics (``cache.fnobj.hits`` / ``cache.fnobj.misses``) are counted
    into the registry the *caller* passes — sessions and brokers each see
    their own traffic against the shared cache.
    """

    def __init__(self, max_entries: int = 256):
        self._lock = threading.Lock()
        self._map: dict[object, GeneratedKernel] = {}
        self._max = max_entries

    def get(
        self, key, metrics=None, *, record_miss: bool = True
    ) -> GeneratedKernel | None:
        """Look up ``key``; ``record_miss=False`` makes a miss silent, for
        probes whose caller will retry through :func:`get_or_compile` (which
        counts the miss exactly once)."""
        with self._lock:
            gk = self._map.get(key)
            if gk is not None:
                self._map.pop(key)
                self._map[key] = gk  # LRU touch
        if metrics is not None and (gk is not None or record_miss):
            metrics.counter(
                "cache.fnobj.hits" if gk is not None else "cache.fnobj.misses"
            ).inc()
        return gk

    def put(self, key, gk: GeneratedKernel) -> None:
        with self._lock:
            self._map[key] = gk
            while len(self._map) > self._max:
                self._map.pop(next(iter(self._map)))

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
    signature=None,
    metrics=None,
) -> GeneratedKernel:
    """Fetch the bound program for ``fn`` specialised on ``signature``
    (default: :func:`declared_signature`), generating at most once.

    With a ``content_key``, repeat launches of the same signature hit the
    in-memory function cache and skip planning and generation entirely.
    """
    if signature is None:
        signature = declared_signature(fn)
    key = (content_key, signature)
    if content_key is not None:
        cached = _CACHE.get(key, metrics)
        if cached is not None:
            return cached
    t0 = time.perf_counter()
    gk = compile_kernel(fn, plan, signature)
    if metrics is not None:
        metrics.histogram("codegen.generate_ms").observe(
            (time.perf_counter() - t0) * 1000.0
        )
        metrics.counter(
            "codegen.guards.static",
            "guards of generated programs discharged at generation or launch",
        ).inc(gk.source.guards_static)
        metrics.counter(
            "codegen.guards.dynamic",
            "guards of generated programs still checked per operation",
        ).inc(gk.source.guards_dynamic)
    if content_key is not None:
        _CACHE.put(key, gk)
    return gk
