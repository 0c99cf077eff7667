"""Functional interpreter for MiniACC IR over NumPy arrays.

This is the correctness oracle of the reproduction: every compiler
transformation is validated by executing the kernel *before and after* on
the same inputs and comparing results bit-for-bit (scalar replacement never
reorders floating-point arithmetic, so exact equality is the right check).

Semantics notes:

* OpenACC-parallel loops are executed as ordinary sequential loops — for a
  *correct* OpenACC program (independent iterations) this matches any
  parallel schedule; kernels with clause lies would diverge on a GPU and
  here, equally.
* Arrays with non-zero lower bounds (Fortran-allocatable model) are backed
  by 0-based NumPy arrays; subscripts are rebased by the declared lower
  bound, mirroring the dope-vector arithmetic the backend emits.
* Integer division/modulo follow C (truncation toward zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
from ..ir.symbols import Symbol

_NUMPY_DTYPES = {
    ("float", 32): np.float32,
    ("double", 64): np.float64,
    ("int", 32): np.int32,
    ("long", 64): np.int64,
}


class InterpreterError(Exception):
    """Bad arguments or a runtime fault (e.g. out-of-bounds access)."""


@dataclass(slots=True)
class ExecutionStats:
    """Dynamic operation counts, for tests and the examples.

    The scalar interpreter's counting rules are the *contract*; any other
    executor (see :mod:`repro.gpu.vector_exec`) must reproduce them exactly:

    * ``loads``/``stores`` — one per :class:`~repro.ir.expr.ArrayRef`
      element access actually evaluated (lazy ``&&``/``||``/ternary
      operands that are skipped count nothing).
    * ``flops`` — one per arithmetic ``BinOp`` whose result or either
      operand is a Python ``float`` (``np.float64`` qualifies,
      ``np.float32`` does not); one per intrinsic ``Call``.  Comparisons
      and lazy logical operators never count.
    * ``iterations`` — one per executed iteration of *every* loop,
      parallel or sequential.
    """

    loads: int = 0
    stores: int = 0
    flops: int = 0
    iterations: int = 0


class Interpreter:
    """Executes one kernel function against concrete arguments."""

    def __init__(self, fn: KernelFunction, args: dict[str, object]):
        self._fn = fn
        self._scalars: dict[str, float | int] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._lowers: dict[str, tuple[int, ...]] = {}
        self.stats = ExecutionStats()
        self._bind_args(args)

    # -- setup --------------------------------------------------------------
    def _bind_args(self, args: dict[str, object]) -> None:
        self._scalars, self._arrays, self._lowers = bind_arguments(self._fn, args)

    # -- execution ------------------------------------------------------------
    def run(self) -> None:
        self._run_block(self._fn.body)

    def _run_block(self, stmts: list[Stmt]) -> None:
        for stmt in stmts:
            self._run_stmt(stmt)

    def _run_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            value = self._eval(stmt.value)
            if isinstance(stmt.target, VarRef):
                self._scalars[stmt.target.sym.name] = self._coerce_scalar(
                    stmt.target.sym, value
                )
            else:
                self._store(stmt.target, value)
        elif isinstance(stmt, LocalDecl):
            if stmt.init is not None:
                self._scalars[stmt.sym.name] = self._coerce_scalar(
                    stmt.sym, self._eval(stmt.init)
                )
            else:
                self._scalars.setdefault(stmt.sym.name, 0)
        elif isinstance(stmt, If):
            if self._eval(stmt.cond):
                self._run_block(stmt.then_body)
            else:
                self._run_block(stmt.else_body)
        elif isinstance(stmt, Loop):
            var = stmt.var.name
            saved = self._scalars.get(var)
            for value in stmt.iter_values(self._int_env()):
                self._scalars[var] = value
                self.stats.iterations += 1
                self._run_block(stmt.body)
            if saved is not None:
                self._scalars[var] = saved
        elif isinstance(stmt, Region):
            self._run_block(stmt.body)
        else:
            raise InterpreterError(f"unknown statement {type(stmt).__name__}")

    def _int_env(self) -> dict[str, int]:
        return {k: int(v) for k, v in self._scalars.items() if isinstance(v, (int, np.integer))}

    @staticmethod
    def _coerce_scalar(sym: Symbol, value):
        if sym.stype.is_float:
            return float(value)
        return int(value)

    # -- memory ---------------------------------------------------------------
    def _element_index(self, ref: ArrayRef) -> tuple[int, ...]:
        name = ref.sym.name
        lowers = self._lowers.get(name)
        idx = []
        for axis, sub in enumerate(ref.indices):
            value = int(self._eval(sub))
            if lowers is not None:
                value -= lowers[axis]
            idx.append(value)
        arr = self._arrays[name]
        if ref.sym.array is not None and ref.sym.array.is_pointer:
            flat = idx[0]
            if not (0 <= flat < arr.size):
                raise InterpreterError(
                    f"out-of-bounds access {name}[{flat}] (size {arr.size})"
                )
            return (flat,)
        for axis, value in enumerate(idx):
            if not (0 <= value < arr.shape[axis]):
                raise InterpreterError(
                    f"out-of-bounds access on {name!r} axis {axis}: index "
                    f"{value} not in [0, {arr.shape[axis]})"
                )
        return tuple(idx)

    def _load(self, ref: ArrayRef):
        arr = self._arrays[ref.sym.name]
        idx = self._element_index(ref)
        self.stats.loads += 1
        if ref.sym.array is not None and ref.sym.array.is_pointer:
            return arr.flat[idx[0]]
        return arr[idx]

    def _store(self, ref: ArrayRef, value) -> None:
        arr = self._arrays[ref.sym.name]
        idx = self._element_index(ref)
        self.stats.stores += 1
        if ref.sym.array is not None and ref.sym.array.is_pointer:
            arr.flat[idx[0]] = value
        else:
            arr[idx] = value

    # -- expressions --------------------------------------------------------
    def _eval(self, e: Expr):
        if isinstance(e, IntConst):
            return e.value
        if isinstance(e, FloatConst):
            return e.value
        if isinstance(e, VarRef):
            try:
                return self._scalars[e.sym.name]
            except KeyError:
                raise InterpreterError(f"read of unset scalar {e.sym.name!r}") from None
        if isinstance(e, ArrayRef):
            return self._load(e)
        if isinstance(e, UnOp):
            value = self._eval(e.operand)
            if e.op == "-":
                return -value
            if e.op == "!":
                return 0 if value else 1
            raise InterpreterError(f"unknown unary {e.op!r}")
        if isinstance(e, BinOp):
            return self._eval_binop(e)
        if isinstance(e, Select):
            return self._eval(e.then) if self._eval(e.cond) else self._eval(e.otherwise)
        if isinstance(e, Cast):
            value = self._eval(e.operand)
            if e.to_type.is_float:
                return float(np.float32(value)) if e.to_type.bits == 32 else float(value)
            return int(value)
        if isinstance(e, Call):
            return self._eval_call(e)
        raise InterpreterError(f"unknown expression {type(e).__name__}")

    def _eval_binop(self, e: BinOp):
        op = e.op
        if op == "&&":
            return 1 if (self._eval(e.left) and self._eval(e.right)) else 0
        if op == "||":
            return 1 if (self._eval(e.left) or self._eval(e.right)) else 0
        lhs = self._eval(e.left)
        rhs = self._eval(e.right)
        both_int = isinstance(lhs, (int, np.integer)) and isinstance(rhs, (int, np.integer))
        if op == "+":
            result = lhs + rhs
        elif op == "-":
            result = lhs - rhs
        elif op == "*":
            result = lhs * rhs
        elif op == "/":
            if both_int:
                if rhs == 0:
                    raise InterpreterError("integer division by zero")
                q = abs(lhs) // abs(rhs)
                result = q if (lhs >= 0) == (rhs >= 0) else -q
            else:
                result = lhs / rhs
        elif op == "%":
            if not both_int:
                raise InterpreterError("modulo requires integers")
            if rhs == 0:
                raise InterpreterError("integer modulo by zero")
            result = lhs - rhs * (abs(lhs) // abs(rhs)) * (1 if (lhs >= 0) == (rhs >= 0) else -1)
        elif op == "<":
            return 1 if lhs < rhs else 0
        elif op == "<=":
            return 1 if lhs <= rhs else 0
        elif op == ">":
            return 1 if lhs > rhs else 0
        elif op == ">=":
            return 1 if lhs >= rhs else 0
        elif op == "==":
            return 1 if lhs == rhs else 0
        elif op == "!=":
            return 1 if lhs != rhs else 0
        else:
            raise InterpreterError(f"unknown operator {op!r}")
        if isinstance(result, float) or (
            isinstance(lhs, float) or isinstance(rhs, float)
        ):
            self.stats.flops += 1
        return result

    def _eval_call(self, e: Call):
        args = [self._eval(a) for a in e.args]
        self.stats.flops += 1
        func = e.func
        if func == "sqrt":
            return math.sqrt(args[0])
        if func in ("fabs", "abs"):
            return abs(args[0])
        if func == "exp":
            return math.exp(args[0])
        if func == "log":
            return math.log(args[0])
        if func == "sin":
            return math.sin(args[0])
        if func == "cos":
            return math.cos(args[0])
        if func == "tan":
            return math.tan(args[0])
        if func == "pow":
            return math.pow(args[0], args[1])
        if func in ("min", "fmin"):
            return min(args)
        if func in ("max", "fmax"):
            return max(args)
        if func == "floor":
            return math.floor(args[0])
        if func == "ceil":
            return math.ceil(args[0])
        raise InterpreterError(f"unknown intrinsic {func!r}")


def bind_arguments(
    fn: KernelFunction, args: dict[str, object]
) -> tuple[dict[str, float | int], dict[str, np.ndarray], dict[str, tuple[int, ...]]]:
    """Validate ``args`` against ``fn``'s parameter list.

    Returns ``(scalars, arrays, lowers)``: the scalar environment, the array
    bindings (the caller's ndarrays, not copies), and per-array declared
    lower bounds (absent for pointer-shaped arrays, which index flat).
    Raises :class:`InterpreterError` on missing/extra arguments, non-array
    values for array parameters, or extent mismatches.
    """
    scalars: dict[str, float | int] = {}
    arrays: dict[str, np.ndarray] = {}
    for param in fn.params:
        if param.name not in args:
            raise InterpreterError(f"missing argument {param.name!r}")
        value = args[param.name]
        if param.is_array:
            if not isinstance(value, np.ndarray):
                raise InterpreterError(f"argument {param.name!r} must be ndarray")
            arrays[param.name] = value
        else:
            scalars[param.name] = value
    extra = set(args) - {p.name for p in fn.params}
    if extra:
        raise InterpreterError(f"unknown arguments {sorted(extra)}")

    def dim_value(bound: int | Symbol) -> int:
        if isinstance(bound, int):
            return bound
        value = scalars.get(bound.name)
        if value is None:
            raise InterpreterError(f"array bound {bound.name!r} not supplied")
        return int(value)

    # Resolve lower bounds and validate declared shapes.
    lowers: dict[str, tuple[int, ...]] = {}
    for param in fn.params:
        if param.array is None or param.array.is_pointer:
            continue
        arr = arrays[param.name]
        lower_list = []
        for axis, dim in enumerate(param.array.dims):
            extent = dim_value(dim.extent)
            lower_list.append(dim_value(dim.lower))
            if arr.shape[axis] != extent:
                raise InterpreterError(
                    f"array {param.name!r} axis {axis}: expected extent "
                    f"{extent}, got {arr.shape[axis]}"
                )
        lowers[param.name] = tuple(lower_list)
    return scalars, arrays, lowers


def run_kernel(
    fn: KernelFunction, args: dict[str, object]
) -> tuple[dict[str, np.ndarray], ExecutionStats]:
    """Execute ``fn`` with ``args`` (arrays are mutated in place).

    Returns the array dict and dynamic statistics.  Callers wanting the
    original data preserved should pass copies.
    """
    interp = Interpreter(fn, args)
    interp.run()
    return interp._arrays, interp.stats


def numpy_dtype(sym: Symbol) -> type:
    """The NumPy dtype matching an array symbol's element type."""
    assert sym.array is not None
    elem = sym.array.elem
    return _NUMPY_DTYPES[(elem.name, elem.bits)]


def build_run_args(
    fn: KernelFunction,
    env: dict,
    seed: int | np.random.Generator = 0,
    *,
    given: dict[str, np.ndarray] | None = None,
) -> dict[str, object]:
    """Deterministic functional-run arguments for a kernel function.

    Scalars come from ``env``; array arguments are random but seeded
    (identical across processes), with extents resolved from ``env`` and
    raw-pointer sizes from ``env['__len_<name>']``.  ``seed`` may be a
    NumPy ``Generator``, which is drawn from as it stands.  Arrays in
    ``given`` (a benchmark's index arrays) are used as they are and draw
    nothing.  Shared by the CLI's ``--run`` flag, the serving daemon's
    ``run`` op and :func:`repro.bench.args.build_test_args`.  Raises
    :class:`ValueError` naming the missing binding otherwise.
    """
    rng = np.random.default_rng(seed)
    given = given or {}
    run_args: dict[str, object] = {
        k: v for k, v in env.items() if not k.startswith("__")
    }
    for param in fn.params:
        if param.array is None:
            if param.name not in run_args:
                raise ValueError(
                    f"run needs env {param.name}=<value> for scalar "
                    f"parameter {param.name!r}"
                )
            continue
        if param.name in given:
            run_args[param.name] = given[param.name]
            continue
        if param.array.is_pointer:
            size = env.get(f"__len_{param.name}")
            if size is None:
                raise ValueError(
                    f"run needs env __len_{param.name}=<size> for "
                    f"pointer parameter {param.name!r}"
                )
            shape: tuple[int, ...] = (int(size),)
        else:
            try:
                shape = tuple(
                    d.extent if isinstance(d.extent, int) else int(env[d.extent.name])
                    for d in param.array.dims
                )
            except KeyError as missing:
                raise ValueError(
                    f"run needs env {missing.args[0]}=<value> to size "
                    f"array parameter {param.name!r}"
                ) from None
        dtype = numpy_dtype(param)
        if np.issubdtype(dtype, np.floating):
            run_args[param.name] = rng.uniform(0.5, 2.0, size=shape).astype(dtype)
        else:
            run_args[param.name] = rng.integers(0, 3, size=shape).astype(dtype)
    return run_args
