"""Vectorized SIMT execution: parallel loops as NumPy array axes.

The scalar interpreter (:mod:`repro.gpu.interpreter`) is the correctness
oracle, but it executes OpenACC-parallel loops one Python iteration at a
time.  This module holds the runtime that executes whole loop nests as
*batched* NumPy programs: each parallel loop the planner
(:mod:`repro.codegen.vector_lower`) proves safe becomes a trailing array
axis over its full iteration domain, every expression is evaluated once
as a broadcast operation over all lanes, and ``If`` branches become
boolean lane masks with both sides evaluated under their respective
masks.  The programs themselves are generated NumPy source
(:mod:`repro.codegen.numpy_source`) calling :class:`VectorInterpreter`'s
primitives; :func:`execute_kernel` runs the ladder codegen → scalar.

Bit-for-bit equality with the oracle is preserved by construction:

* lane axes are appended in nesting order, so C-order resolution of
  duplicate fancy-index writes equals the scalar iteration order;
* every value carries a *kind* (weak Python ``int``/``float`` or strong
  ``np.int32``/``np.int64``/``np.float32``/``np.float64``) so NEP 50
  promotion and the interpreter's flop-counting rule are replayed exactly;
* transcendental intrinsics go through ``math.*`` per element (NumPy's own
  ``sin``/``exp`` may differ from libm in the last ulp);
* anything that cannot be reproduced exactly — lane-dependent values where
  the interpreter would hold one Python scalar, Python-semantics errors
  like division by zero, arbitrary-precision integers — raises
  :class:`VectorUnsupported`, and :func:`execute_kernel` falls back to the
  scalar interpreter on *pristine* inputs (the codegen attempt runs on
  array copies), reproducing even error-path partial mutation.

:class:`~repro.gpu.interpreter.ExecutionStats` counters are derived
analytically from active-lane counts (see the contract on that class), and
must match the scalar counters exactly — tests assert this.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..codegen.vector_lower import plan_kernel
from ..executors import Executor, parse_executor
from ..ir.expr import ArrayRef, BinOp, Expr, IntConst, UnOp, VarRef
from ..ir.module import KernelFunction
from ..ir.stmt import Loop
from ..obs.tracer import span
from .interpreter import ExecutionStats, bind_arguments, run_kernel

logger = logging.getLogger(__name__)


class VectorUnsupported(Exception):
    """The batched runtime cannot reproduce scalar semantics here; callers
    fall back to the interpreter (the message is the logged reason)."""


_fallback_local = threading.local()


@contextmanager
def fallback_listener(callback):
    """Install a thread-local degradation hook for the calling thread.

    ``callback(kernel_name, reason)`` fires every time an ``auto``
    execution inside the scope falls back to the scalar interpreter.  The
    serving broker uses this to count degradations (with their reasons)
    in its metrics registry without threading a callback through every
    execution call site.
    """
    previous = getattr(_fallback_local, "callback", None)
    _fallback_local.callback = callback
    try:
        yield
    finally:
        _fallback_local.callback = previous


def _notify_fallback(kernel: str, reason: str) -> None:
    callback = getattr(_fallback_local, "callback", None)
    if callback is not None:
        callback(kernel, reason)


# -- value kinds -------------------------------------------------------------
#
# NEP 50: Python scalars are "weak" (they adopt the other operand's dtype);
# NumPy scalars are "strong".  ``np.float64`` both subclasses Python
# ``float`` (it counts as a flop operand) and promotes strongly, so weak
# and strong float64 must stay distinguishable.

PYINT = "pyint"
PYFLOAT = "pyfloat"
I32 = "i32"
I64 = "i64"
F32 = "f32"
F64 = "f64"

_KIND_DTYPE = {
    PYINT: np.dtype(np.int64),
    PYFLOAT: np.dtype(np.float64),
    I32: np.dtype(np.int32),
    I64: np.dtype(np.int64),
    F32: np.dtype(np.float32),
    F64: np.dtype(np.float64),
}
_DTYPE_KIND = {
    np.dtype(np.int32): I32,
    np.dtype(np.int64): I64,
    np.dtype(np.float32): F32,
    np.dtype(np.float64): F64,
}
_WEAK = {PYINT, PYFLOAT}
_INT_KINDS = {PYINT, I32, I64}
#: Kinds whose values are Python ``float`` instances to the scalar
#: interpreter's flop rule (``np.float64`` subclasses ``float``).
_PYFLOAT_LIKE = {PYFLOAT, F64}

#: Magnitude bound on weak-integer operands: products of two such values
#: fit in int64, so int64 arithmetic matches Python's bignums.
_INT_GUARD = 2**31
#: Magnitude bound on float→int conversions (results stay well inside
#: int64, where ``astype`` truncation equals Python ``int()``).
_CAST_GUARD = 2**62


_CMP_UFUNC = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _promote(lk: str, rk: str) -> str:
    if lk == rk:
        return lk
    if lk in _WEAK and rk in _WEAK:
        return PYFLOAT if PYFLOAT in (lk, rk) else PYINT
    if lk in _WEAK or rk in _WEAK:
        weak, strong = (lk, rk) if lk in _WEAK else (rk, lk)
        if weak == PYINT:
            return strong
        # weak float + strong float keeps the strong precision;
        # weak float + strong int goes to float64.
        return strong if strong in (F32, F64) else F64
    return _DTYPE_KIND[np.result_type(_KIND_DTYPE[lk], _KIND_DTYPE[rk])]


@dataclass(slots=True)
class VArray:
    """One lane-indexed value: an ndarray whose trailing dimensions map to
    the active axis stack (missing trailing axes broadcast), its kind, and
    which lanes actually hold a value (``True`` or a bool lane mask)."""

    data: np.ndarray
    kind: str
    defined: object = True  # True | np.ndarray[bool]


def _const_int(value: int) -> VArray:
    return VArray(np.asarray(value, dtype=np.int64), PYINT)


@dataclass(slots=True)
class ExecutionInfo:
    """What :func:`execute_kernel` actually did, for stats/observability."""

    requested: str
    used: str  # "codegen" | "scalar"
    fallback_reason: str | None = None
    #: Lane-iterations executed through batched axis loops.
    elements: int = 0
    region_elements: dict[str, int] = field(default_factory=dict)
    #: Planner demotion reasons (parallel loops executed sequentially).
    demoted: list[str] = field(default_factory=list)
    #: Wall time spent obtaining the generated program (None when the
    #: codegen tier was never consulted; ~0 on a function-cache hit).
    codegen_ms: float | None = None

    def as_dict(self) -> dict:
        out: dict = {"requested": self.requested, "used": self.used}
        if self.fallback_reason is not None:
            out["fallback_reason"] = self.fallback_reason
        out["elements"] = self.elements
        if self.region_elements:
            out["region_elements"] = dict(self.region_elements)
        if self.demoted:
            out["demoted"] = list(self.demoted)
        if self.codegen_ms is not None:
            out["codegen_ms"] = round(self.codegen_ms, 6)
        return out


class VectorInterpreter:
    """The lane-batched runtime a generated program drives.

    Holds the lane state of one launch — the scalar environment, the
    active axis stack and lane mask, the arrays — and exposes one
    primitive per IR construct (``_apply_binop``, ``_load_idx``,
    ``_store_idx``, ``_apply_if``, ``_run_loop``, …).  Generated code
    (:mod:`repro.codegen.numpy_source`) calls them in interpreter order
    with each loop's planned axis/sequential mode baked in.

    Mutates the arrays it is given (callers pass copies and commit on
    success).  Raises :class:`VectorUnsupported` — or any error an
    expression evaluation produces — when exact scalar semantics cannot be
    guaranteed; nothing observable should be trusted after that.
    """

    def __init__(
        self,
        scalars: dict[str, object],
        arrays: dict[str, np.ndarray],
        lowers: dict[str, tuple[int, ...]],
    ):
        self._arrays = arrays
        self._lowers = lowers
        self._env: dict[str, VArray] = {}
        self._axes: list[str] = []
        self._shape: tuple[int, ...] = ()
        self._mask: np.ndarray | None = None  # None == all lanes active
        self._acount: int | None = None
        self.stats = ExecutionStats()
        self.elements = 0
        self.region_elements: dict[str, int] = {}
        for name, value in scalars.items():
            self._env[name] = self._bind_scalar(name, value)

    @staticmethod
    def _bind_scalar(name: str, value: object) -> VArray:
        if isinstance(value, np.generic):
            kind = _DTYPE_KIND.get(value.dtype)
            if kind is None:
                raise VectorUnsupported(
                    f"argument {name!r} has unsupported dtype {value.dtype}"
                )
            return VArray(np.asarray(value), kind)
        if isinstance(value, float):
            return VArray(np.asarray(value, dtype=np.float64), PYFLOAT)
        if isinstance(value, int):  # bool included — arithmetic treats it as int
            if abs(value) >= _CAST_GUARD:
                raise VectorUnsupported(f"argument {name!r} exceeds int64 range")
            return VArray(np.asarray(int(value), dtype=np.int64), PYINT)
        raise VectorUnsupported(
            f"argument {name!r} has unsupported type {type(value).__name__}"
        )

    # -- lane bookkeeping ---------------------------------------------------
    def _lift(self, data: np.ndarray) -> np.ndarray:
        n = len(self._axes)
        if data.ndim == n:
            return data
        return data.reshape(data.shape + (1,) * (n - data.ndim))

    def _active(self) -> int:
        if self._acount is None:
            if self._mask is None:
                self._acount = math.prod(self._shape)
            else:
                self._acount = int(
                    np.count_nonzero(np.broadcast_to(self._mask, self._shape))
                )
        return self._acount

    def _set_mask(self, mask: np.ndarray | None) -> None:
        self._mask = mask
        self._acount = None

    def _masked_any(self, cond: np.ndarray) -> bool:
        """Does ``cond`` hold on any *active* lane?"""
        cond = self._lift(np.asarray(cond))
        if self._mask is not None:
            cond = cond & self._mask
        return bool(np.broadcast_to(cond, self._shape).any())

    def _sanitize(self, data: np.ndarray, fill: object) -> np.ndarray:
        """Replace inactive-lane values (which may be arbitrary garbage)
        with a safe ``fill`` before an operation that could fault on them."""
        if self._mask is None:
            return data
        return np.where(self._mask, self._lift(data), fill)

    # -- scalar environment -------------------------------------------------
    def _env_get(self, name: str) -> VArray:
        va = self._env.get(name)
        if va is None:
            raise VectorUnsupported(f"read of unset scalar {name!r}")
        if va.defined is not True and self._masked_any(~va.defined):
            raise VectorUnsupported(f"scalar {name!r} undefined on active lanes")
        return va

    def _env_set(self, name: str, va: VArray) -> None:
        if self._mask is None:
            self._env[name] = va
            return
        old = self._env.get(name)
        m = self._mask
        if old is None:
            data = np.where(m, self._lift(va.data), _KIND_DTYPE[va.kind].type(0))
            defined = np.broadcast_to(m, data.shape).copy()
            self._env[name] = VArray(data, va.kind, defined)
            return
        if old.kind != va.kind:
            raise VectorUnsupported(
                f"scalar {name!r} holds mixed kinds across lanes "
                f"({old.kind} vs {va.kind})"
            )
        data = np.where(m, self._lift(va.data), self._lift(old.data))
        if old.defined is True:
            defined: object = True
        else:
            defined = np.broadcast_to(m | self._lift(old.defined), data.shape).copy()
        self._env[name] = VArray(data, va.kind, defined)

    # -- numeric guards -----------------------------------------------------
    def _guard_weak_int(self, va: VArray, what: str) -> None:
        if va.kind == PYINT and self._masked_any(np.abs(va.data) >= _INT_GUARD):
            raise VectorUnsupported(f"{what}: weak integer exceeds safe range")

    def _float_to_int(self, data: np.ndarray, what: str) -> np.ndarray:
        """Python ``int(float)`` truncation, guarded against lanes where
        int64 ``astype`` would diverge from Python (non-finite / huge)."""
        bad = ~np.isfinite(data) | (np.abs(data) >= _CAST_GUARD)
        if self._masked_any(bad):
            raise VectorUnsupported(f"{what}: float→int out of exact range")
        with np.errstate(invalid="ignore"):
            return self._sanitize(data, 0.0).astype(np.int64)

    # -- statements ---------------------------------------------------------
    def _assign_scalar(self, sym, va: VArray) -> None:
        self._env_set(sym.name, self._coerce_scalar(sym, va))

    def _run_region(self, name_hint: str, body) -> None:
        before = self.elements
        body()
        self.region_elements[name_hint] = (
            self.region_elements.get(name_hint, 0) + self.elements - before
        )

    def _coerce_scalar(self, sym, va: VArray) -> VArray:
        """The interpreter's ``_coerce_scalar``: assignments to a scalar
        apply ``float()`` / ``int()`` per the symbol's declared type."""
        if sym.stype.is_float:
            return VArray(va.data.astype(np.float64), PYFLOAT)
        if va.kind in _INT_KINDS:
            return VArray(va.data.astype(np.int64), PYINT)
        return VArray(
            self._float_to_int(va.data.astype(np.float64), f"int({sym.name})"),
            PYINT,
        )

    def _decl_default(self, name: str) -> None:
        """``scalars.setdefault(name, 0)`` on the active lanes."""
        old = self._env.get(name)
        if old is None:
            self._env_set(name, _const_int(0))
            return
        if old.defined is True:
            return  # every lane already holds a value
        if old.kind != PYINT:
            raise VectorUnsupported(
                f"scalar {name!r} holds mixed kinds across lanes"
            )
        od = self._lift(old.defined)
        need = ~od if self._mask is None else (~od & self._mask)
        data = np.where(od, self._lift(old.data), np.int64(0))
        defined = np.broadcast_to(od | need, data.shape).copy()
        self._env[name] = VArray(data, PYINT, True if defined.all() else defined)

    def _apply_if(self, cond: VArray, then_body, else_body) -> None:
        """``If`` with a pre-evaluated condition and body thunks (nested
        functions of the generated program)."""
        if not self._axes:
            if bool(cond.data):
                then_body()
            else:
                else_body()
            return
        truth = self._lift(cond.data) != 0
        base = self._mask
        m_then = truth if base is None else (base & truth)
        m_else = ~truth if base is None else (base & ~truth)
        if self._masked_count(m_then):
            self._set_mask(m_then)
            then_body()
        if self._masked_count(m_else):
            self._set_mask(m_else)
            else_body()
        self._set_mask(base)

    def _masked_count(self, mask: np.ndarray) -> int:
        return int(np.count_nonzero(np.broadcast_to(mask, self._shape)))

    # -- loops --------------------------------------------------------------
    def _run_loop(self, loop: Loop, body, axis: bool) -> None:
        """Dispatch one loop with its *planned* mode baked in (``axis``) and
        its body as a thunk (a nested function of the generated program).
        Axis-mode loops still demote dynamically to the ordinal walk when
        their concrete bounds turn out lane-varying."""
        lo_va = self._eval_loop_bound(loop.init)
        hi_va = self._eval_loop_bound(loop.bound)
        lo = self._uniform_int(lo_va)
        hi = self._uniform_int(hi_va)
        if lo is not None and hi is not None:
            vals = _range_of(loop, lo, hi)
            if len(vals) == 0:
                return
            if axis:
                self._exec_axis_loop(loop, vals, body)
            else:
                self._exec_seq_uniform(loop, vals, body)
            return
        self._exec_seq_varying(loop, lo_va, hi_va, body)

    def _eval_loop_bound(self, e: Expr) -> VArray:
        """Loop bounds mirror ``Loop.iter_values``'s restricted evaluator
        (``ir.stmt._eval_int`` over the integer scalar environment); any
        construct it would reject must fall back, not be 'helpfully'
        evaluated here."""
        if isinstance(e, IntConst):
            return _const_int(e.value)
        if isinstance(e, VarRef):
            va = self._env_get(e.sym.name)
            if va.kind not in _INT_KINDS:
                raise VectorUnsupported(
                    f"loop bound reads non-integer scalar {e.sym.name!r}"
                )
            return VArray(va.data.astype(np.int64), PYINT, va.defined)
        if isinstance(e, UnOp) and e.op == "-":
            va = self._eval_loop_bound(e.operand)
            return VArray(-va.data, PYINT, va.defined)
        if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/", "%"):
            lhs = self._eval_loop_bound(e.left)
            rhs = self._eval_loop_bound(e.right)
            self._guard_weak_int(lhs, "loop bound")
            self._guard_weak_int(rhs, "loop bound")
            la, rb = self._lift(lhs.data), self._lift(rhs.data)
            if e.op == "+":
                data = la + rb
            elif e.op == "-":
                data = la - rb
            elif e.op == "*":
                data = la * rb
            else:  # '/' or '%': C truncation; 0 divisor → interpreter error
                if self._masked_any(rb == 0):
                    raise VectorUnsupported("loop bound divides by zero")
                rb = np.where(rb == 0, np.int64(1), rb)
                q = np.abs(la) // np.abs(rb)
                q = np.where((la >= 0) == (rb >= 0), q, -q)
                data = q if e.op == "/" else la - rb * q
            return VArray(data, PYINT)
        raise VectorUnsupported(
            f"loop bound uses {type(e).__name__} (not evaluable by iter_values)"
        )

    def _uniform_int(self, va: VArray) -> int | None:
        data = va.data
        if data.ndim == 0:
            return int(data)
        vals = np.broadcast_to(self._lift(data), self._shape)
        if self._mask is not None:
            vals = vals[np.broadcast_to(self._mask, self._shape)]
        else:
            vals = vals.reshape(-1)
        if vals.size == 0:
            return None
        first = vals[0]
        return int(first) if bool((vals == first).all()) else None

    def _exec_axis_loop(self, loop: Loop, vals: range, body) -> None:
        var = loop.var.name
        saved = self._env.get(var)
        saved_mask = self._mask
        n0 = len(self._axes)
        axis_vals = np.asarray(list(vals), dtype=np.int64)
        self._axes.append(var)
        self._shape = self._shape + (len(vals),)
        self._set_mask(None if saved_mask is None else saved_mask[..., None])
        self._env[var] = VArray(axis_vals.reshape((1,) * n0 + (len(vals),)), PYINT)
        active = self._active()
        self.stats.iterations += active
        self.elements += active
        body()
        # Pop the axis: anything written per-lane keeps its final-iteration
        # slice (the scalar interpreter leaks the last iteration's value;
        # the planner demoted the loop if a lane-varying final is *read*).
        n1 = n0 + 1
        for name, va in list(self._env.items()):
            data, defined, changed = va.data, va.defined, False
            if data.ndim == n1:
                data, changed = data[..., -1], True
            if isinstance(defined, np.ndarray) and defined.ndim == n1:
                defined, changed = defined[..., -1], True
            if changed:
                self._env[name] = VArray(data, va.kind, defined)
        self._axes.pop()
        self._shape = self._shape[:-1]
        self._set_mask(saved_mask)
        if saved is not None:
            self._env[var] = saved
        else:
            self._env.pop(var, None)
            self._env_set(var, _const_int(vals[-1]))

    def _exec_seq_uniform(self, loop: Loop, vals: range, body) -> None:
        var = loop.var.name
        saved = self._env.get(var)
        for v in vals:
            self._env_set(var, _const_int(v))
            self.stats.iterations += self._active()
            body()
        if saved is not None:
            self._env[var] = saved

    def _exec_seq_varying(
        self, loop: Loop, lo_va: VArray, hi_va: VArray, body
    ) -> None:
        """Sequential loop whose bounds differ per lane (e.g. a CSR row
        walk): advance every lane through its *own* range in lockstep —
        at ordinal step ``k`` each active lane executes its ``k``-th
        iteration (loop variable ``start ± k``), with a membership mask
        retiring lanes past their trip count.  The Python-loop cost is the
        longest per-lane trip count, not the span of the union of ranges
        (a CSR row walk's absolute ranges jointly cover all of ``nnz``).

        Reordering which (lane, iteration) pairs run simultaneously is
        invisible: the planner only admits lane-varying sequential loops
        whose array accesses are cross-lane disjoint for *all* iteration
        pairs, each lane's own iterations stay in order, and scalar
        privates merge per-lane through the masked environment."""
        if loop.step not in (1, -1):
            raise VectorUnsupported(
                f"lane-varying bounds with step {loop.step} on loop "
                f"'{loop.var.name}'"
            )
        adjust = {"<": 0, "<=": 1, ">": 0, ">=": -1}[loop.cond_op]
        start = np.broadcast_to(self._lift(lo_va.data), self._shape)
        stop = np.broadcast_to(self._lift(hi_va.data) + adjust, self._shape)
        base = self._mask
        trips = np.maximum(stop - start, 0) if loop.step == 1 else np.maximum(
            start - stop, 0
        )
        if base is not None:
            trips = np.where(np.broadcast_to(base, self._shape), trips, 0)
        max_trips = int(trips.max()) if trips.size else 0
        if max_trips == 0:
            return
        var = loop.var.name
        saved = self._env.get(var)
        for k in range(max_trips):
            m_k = trips > k
            count = self._masked_count(m_k)
            self._set_mask(m_k)
            values = start + k if loop.step == 1 else start - k
            self._env_set(var, VArray(values.astype(np.int64), PYINT))
            self.stats.iterations += count
            body()
        self._set_mask(base)
        if saved is not None:
            self._env[var] = saved
        else:
            # Per-lane leak of the final iteration value on lanes that ran.
            ran = (stop > start) if loop.step == 1 else (stop < start)
            m_ran = ran if base is None else (base & ran)
            if m_ran.any():
                last = stop - 1 if loop.step == 1 else stop + 1
                data = np.where(m_ran, last, np.int64(0))
                self._env[var] = VArray(data, PYINT, m_ran)
            else:
                self._env.pop(var, None)

    # -- memory -------------------------------------------------------------
    def _index_from(
        self, ref: ArrayRef, vas: list[VArray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        name = ref.sym.name
        arr = self._arrays[name]
        lowers = self._lowers.get(name)
        idx: list[np.ndarray] = []
        for axis, va in enumerate(vas):
            if va.kind in _INT_KINDS:
                data = self._lift(va.data.astype(np.int64))
            else:
                data = self._lift(
                    self._float_to_int(
                        va.data.astype(np.float64), f"subscript of {name!r}"
                    )
                )
            if lowers is not None:
                data = data - lowers[axis]
            idx.append(data)
        pointer = ref.sym.array is not None and ref.sym.array.is_pointer
        if pointer:
            extents = [arr.size]
        else:
            extents = [arr.shape[axis] for axis in range(len(idx))]
        clipped = []
        for data, extent in zip(idx, extents):
            if self._masked_any((data < 0) | (data >= extent)):
                raise VectorUnsupported(f"out-of-bounds access on {name!r}")
            clipped.append(np.clip(data, 0, max(extent - 1, 0)))
        return arr, clipped

    def _load_idx(self, ref: ArrayRef, vas: list[VArray]) -> VArray:
        arr, idx = self._index_from(ref, vas)
        self.stats.loads += self._active()
        if ref.sym.array is not None and ref.sym.array.is_pointer:
            data = arr.reshape(-1)[idx[0]]
        else:
            data = arr[tuple(idx)]
        return VArray(data, _DTYPE_KIND[arr.dtype])

    def _store_idx(self, ref: ArrayRef, vas: list[VArray], value: VArray) -> None:
        arr, idx = self._index_from(ref, vas)
        if arr.dtype.kind in "iu":
            # Scalar element assignment raises on NaN/inf and on values
            # outside the target's range; array assignment wraps silently.
            vdata = value.data
            if value.kind not in _INT_KINDS and self._masked_any(
                ~np.isfinite(vdata)
            ):
                raise VectorUnsupported("non-finite value stored to int array")
            info = np.iinfo(arr.dtype)
            if self._masked_any((vdata < info.min) | (vdata > info.max)):
                raise VectorUnsupported("integer store out of range")
        self.stats.stores += self._active()
        target = (
            arr.reshape(-1)
            if ref.sym.array is not None and ref.sym.array.is_pointer
            else arr
        )
        # Broadcast indices and value to the full lane shape so duplicate
        # writes resolve in C order — the scalar iteration order.
        full_idx = tuple(np.broadcast_to(i, self._shape) for i in idx)
        val = np.broadcast_to(self._lift(value.data), self._shape)
        with np.errstate(invalid="ignore", over="ignore"):
            if self._mask is None:
                if len(full_idx) == 1 and target.ndim == 1:
                    target[full_idx[0]] = val
                else:
                    target[full_idx] = val
            else:
                m = np.broadcast_to(self._mask, self._shape)
                sel = tuple(i[m] for i in full_idx)
                if len(sel) == 1 and target.ndim == 1:
                    target[sel[0]] = val[m]
                else:
                    target[sel] = val[m]

    # -- expressions --------------------------------------------------------
    def _apply_unop(self, op: str, va: VArray) -> VArray:
        if op == "-":
            return VArray(-va.data, va.kind)
        if op == "!":
            return VArray((va.data == 0).astype(np.int64), PYINT)
        raise VectorUnsupported(f"unknown unary {op!r}")

    def _apply_select(self, cond: VArray, then_thunk, else_thunk) -> VArray:
        """Ternary with a pre-evaluated condition and arm thunks; each arm
        is evaluated only under the lanes that take it."""
        if not self._axes:
            return then_thunk() if bool(cond.data) else else_thunk()
        truth = self._lift(cond.data) != 0
        base = self._mask
        m_then = truth if base is None else (base & truth)
        m_else = ~truth if base is None else (base & ~truth)
        then_va = else_va = None
        if self._masked_count(m_then):
            self._set_mask(m_then)
            then_va = then_thunk()
        if self._masked_count(m_else):
            self._set_mask(m_else)
            else_va = else_thunk()
        self._set_mask(base)
        if then_va is None:
            return else_va  # type: ignore[return-value]
        if else_va is None:
            return then_va
        if then_va.kind != else_va.kind:
            raise VectorUnsupported(
                "ternary arms yield different kinds per lane"
            )
        data = np.where(truth, self._lift(then_va.data), self._lift(else_va.data))
        return VArray(data, then_va.kind)

    def _apply_cast(self, to_type, va: VArray) -> VArray:
        if to_type.is_float:
            if to_type.bits == 32:
                # float(np.float32(v)): round to f32, widen back to Python float
                data = va.data.astype(np.float32).astype(np.float64)
            else:
                data = va.data.astype(np.float64)
            return VArray(data, PYFLOAT)
        if va.kind in _INT_KINDS:
            return VArray(va.data.astype(np.int64), PYINT)
        return VArray(
            self._float_to_int(va.data.astype(np.float64), "int cast"), PYINT
        )

    def _truthy(self, va: VArray) -> np.ndarray:
        return self._lift(va.data) != 0

    def _apply_binop(self, op: str, lhs: VArray, rhs: VArray) -> VArray:
        kind = _promote(lhs.kind, rhs.kind)
        dtype = _KIND_DTYPE[kind]
        la = self._lift(lhs.data).astype(dtype, copy=False)
        rb = self._lift(rhs.data).astype(dtype, copy=False)
        if dtype.kind == "f":
            # Python compares int/float exactly; float64 rounds ints above
            # 2**53.  The weak-int guard keeps us far inside the exact range.
            self._guard_weak_int(lhs, f"operator {op!r}")
            self._guard_weak_int(rhs, f"operator {op!r}")
        if op in _CMP_UFUNC:
            return VArray(_CMP_UFUNC[op](la, rb).astype(np.int64), PYINT)
        self._guard_weak_int(lhs, f"operator {op!r}")
        self._guard_weak_int(rhs, f"operator {op!r}")
        both_int = lhs.kind in _INT_KINDS and rhs.kind in _INT_KINDS
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if op == "+":
                result = la + rb
            elif op == "-":
                result = la - rb
            elif op == "*":
                result = la * rb
            elif op == "/":
                result = self._divide(la, rb, lhs, rhs, both_int)
            elif op == "%":
                if not both_int:
                    raise VectorUnsupported("modulo requires integers")
                result = self._int_divmod(la, rb)[1]
            else:
                raise VectorUnsupported(f"unknown operator {op!r}")
        if (
            lhs.kind in _PYFLOAT_LIKE
            or rhs.kind in _PYFLOAT_LIKE
            or kind in _PYFLOAT_LIKE
        ):
            self.stats.flops += self._active()
        return VArray(result, kind)

    def _divide(
        self,
        la: np.ndarray,
        rb: np.ndarray,
        lhs: VArray,
        rhs: VArray,
        both_int: bool,
    ) -> np.ndarray:
        if both_int:
            if self._masked_any(rb == 0):
                raise VectorUnsupported("integer division by zero")
            return self._int_divmod(la, rb)[0]
        if lhs.kind in _WEAK and rhs.kind in _WEAK:
            # Pure Python operands: float division by zero raises.  (With a
            # strong NumPy operand it yields inf/nan, exactly as the array
            # division below does.)
            if self._masked_any(rb == 0):
                raise VectorUnsupported("float division by zero (Python semantics)")
        return la / rb

    @staticmethod
    def _int_divmod(la: np.ndarray, rb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """C-truncation quotient and remainder (divisor pre-checked)."""
        rb = np.where(rb == 0, np.asarray(1, dtype=rb.dtype), rb)
        q = np.abs(la) // np.abs(rb)
        q = np.where((la >= 0) == (rb >= 0), q, -q).astype(la.dtype, copy=False)
        return q, (la - rb * q).astype(la.dtype, copy=False)

    def _apply_logic(self, op: str, lhs: VArray, rhs_thunk) -> VArray:
        """Short-circuit ``&&``/``||`` with the right operand as a thunk,
        evaluated only under the lanes that reach it."""
        if not self._axes:
            lv = bool(lhs.data)
            if op == "&&" and not lv:
                return _const_int(0)
            if op == "||" and lv:
                return _const_int(1)
            rv = bool(rhs_thunk().data)
            return _const_int(1 if rv else 0)
        lt = self._truthy(lhs)
        base = self._mask
        m_right = (lt if op == "&&" else ~lt)
        m_right = m_right if base is None else (base & m_right)
        if self._masked_count(m_right):
            self._set_mask(m_right)
            rt = self._truthy(rhs_thunk())
            self._set_mask(base)
        else:
            rt = np.zeros((1,) * len(self._axes), dtype=bool)
        combined = (lt & rt) if op == "&&" else (lt | rt)
        return VArray(combined.astype(np.int64), PYINT)

    # -- intrinsics ---------------------------------------------------------
    def _apply_call(self, func: str, args: list[VArray]) -> VArray:
        self.stats.flops += self._active()
        if func == "sqrt":
            data = args[0].data.astype(np.float64)
            if self._masked_any(data < 0):
                raise VectorUnsupported("sqrt of negative value")
            return VArray(np.sqrt(self._sanitize(data, 0.0)), PYFLOAT)
        if func in ("fabs", "abs"):
            return VArray(np.abs(args[0].data), args[0].kind)
        if func in ("exp", "log", "sin", "cos", "tan"):
            safe = 1.0 if func == "log" else 0.0
            data = self._sanitize(args[0].data.astype(np.float64), safe)
            ufunc = np.frompyfunc(getattr(math, func), 1, 1)
            out = ufunc(self._lift(data)).astype(np.float64)
            return VArray(out, PYFLOAT)
        if func == "pow":
            base = self._sanitize(args[0].data.astype(np.float64), 1.0)
            expo = self._sanitize(args[1].data.astype(np.float64), 1.0)
            out = np.frompyfunc(math.pow, 2, 1)(
                self._lift(base), self._lift(expo)
            ).astype(np.float64)
            return VArray(out, PYFLOAT)
        if func in ("min", "fmin", "max", "fmax"):
            kind = args[0].kind
            if any(a.kind != kind for a in args[1:]):
                raise VectorUnsupported(f"{func} over mixed kinds")
            pick = min if func in ("min", "fmin") else max
            ufunc = np.frompyfunc(pick, 2, 1)
            acc = self._lift(args[0].data)
            for a in args[1:]:
                acc = ufunc(acc, self._lift(a.data))
            return VArray(np.asarray(acc).astype(_KIND_DTYPE[kind]), kind)
        if func in ("floor", "ceil"):
            va = args[0]
            if va.kind in _INT_KINDS:
                return VArray(va.data.astype(np.int64), PYINT)
            rounded = getattr(np, func)(va.data.astype(np.float64))
            return VArray(self._float_to_int(rounded, func), PYINT)
        raise VectorUnsupported(f"unknown intrinsic {func!r}")


def _range_of(loop: Loop, lo: int, hi: int) -> range:
    """Exactly ``Loop.iter_values`` once the bounds are concrete."""
    if loop.cond_op == "<":
        return range(lo, hi, loop.step)
    if loop.cond_op == "<=":
        return range(lo, hi + 1, loop.step)
    if loop.cond_op == ">":
        return range(lo, hi, loop.step)
    return range(lo, hi - 1, loop.step)  # '>='


def execute_kernel(
    fn: KernelFunction,
    args: dict[str, object],
    *,
    executor: "str | Executor" = "auto",
    content_key: str | None = None,
    codegen_source: str | None = None,
    metrics=None,
) -> tuple[dict[str, np.ndarray], ExecutionStats, ExecutionInfo]:
    """Execute ``fn`` with ``args`` (arrays are mutated in place).

    ``executor`` selects the engine (see :mod:`repro.executors`):
    ``"scalar"`` always interprets, ``"codegen"`` requires the
    generated-NumPy tier (raising :class:`VectorUnsupported` or
    :class:`~repro.codegen.numpy_source.CodegenUnsupported` if impossible),
    and ``"auto"`` — the default — walks the ladder codegen → scalar,
    logging the fallback reason.  Codegen attempts run on array copies and
    commit only on success, so a fallback re-runs the scalar path on
    pristine inputs and reproduces its behaviour exactly, including
    exceptions and the partial mutation preceding them.

    ``content_key`` (optional) keys the in-memory generated-function cache
    — callers that know a stable content hash for ``fn``'s source pass it
    so repeat launches skip planning and code generation entirely.
    ``codegen_source`` (optional) is persisted generated source from a
    warm disk-cache envelope; it is rebound instead of re-generated, and
    silently re-planned if stale.  ``metrics`` (optional,
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the codegen
    tier's cache and generation counters.
    """
    with span("execute", kernel=fn.name, requested=str(executor)) as sp:
        arrays, stats, info = _execute_kernel(
            fn, args, executor=executor, content_key=content_key,
            codegen_source=codegen_source, metrics=metrics,
        )
        sp.set(used=info.used, elements=info.elements)
        if info.fallback_reason is not None:
            sp.set(fallback_reason=info.fallback_reason)
    return arrays, stats, info


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


def _scalar_fallback(fn, args, requested, reason, demoted):
    logger.info("codegen executor: %s falls back to scalar: %s", fn.name, reason)
    _notify_fallback(fn.name, reason)
    arrays, stats = run_kernel(fn, args)
    return arrays, stats, ExecutionInfo(
        requested=requested, used="scalar", fallback_reason=reason,
        demoted=demoted,
    )


def _run_generated(fn, args, compiled, ex: Executor, demoted, t0: float):
    """Drive ``compiled`` over copies of the bound arguments; commit the
    copies on success, else re-run the scalar oracle on pristine inputs."""
    scalars, arrays, lowers = bind_arguments(fn, args)
    copies = {name: arr.copy() for name, arr in arrays.items()}
    try:
        interp = VectorInterpreter(scalars, copies, lowers)
        compiled.run(interp)
    except Exception as exc:  # noqa: BLE001 — runtime unsupported
        if ex is Executor.CODEGEN:
            raise
        # Unsupported lanes and Python-semantics errors (division by zero,
        # …) are the oracle's to reproduce, partial mutation included.
        return _scalar_fallback(fn, args, ex.value, _reason(exc), demoted)
    for name, arr in arrays.items():
        arr[...] = copies[name]
    return arrays, interp.stats, ExecutionInfo(
        requested=ex.value,
        used="codegen",
        elements=interp.elements,
        region_elements=interp.region_elements,
        demoted=demoted,
        codegen_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _execute_kernel(
    fn: KernelFunction,
    args: dict[str, object],
    *,
    executor: "str | Executor",
    content_key: str | None = None,
    codegen_source: str | None = None,
    metrics=None,
) -> tuple[dict[str, np.ndarray], ExecutionStats, ExecutionInfo]:
    from ..codegen import numpy_source  # deferred: avoids import cycle

    ex = parse_executor(executor)
    if ex is Executor.SCALAR:
        arrays, stats = run_kernel(fn, args)
        return arrays, stats, ExecutionInfo(requested="scalar", used="scalar")

    # Warm fast path: a cached generated function already bakes the axis
    # decisions, so repeat launches with a content_key skip the planner
    # entirely.  The generated program never consults the plan at runtime.
    if content_key is not None:
        cached = numpy_source.function_cache().get(
            content_key, metrics, record_miss=False
        )
        if cached is not None:
            t0 = time.perf_counter()
            demoted = list(cached.demoted)
            return _run_generated(fn, args, cached, ex, demoted, t0)

    plan = plan_kernel(fn)
    demoted = plan.demotion_reasons
    if not plan.has_axes:
        reason = "no vectorizable parallel loops"
        if demoted:
            reason += f" ({demoted[0]})"
        if ex is Executor.CODEGEN:
            raise VectorUnsupported(reason)
        return _scalar_fallback(fn, args, ex.value, reason, demoted)

    t0 = time.perf_counter()
    try:
        compiled = numpy_source.get_or_compile(
            fn, plan, content_key=content_key,
            source=codegen_source, metrics=metrics,
        )
    except numpy_source.CodegenUnsupported as exc:
        if ex is Executor.CODEGEN:
            raise
        return _scalar_fallback(fn, args, ex.value, _reason(exc), demoted)
    return _run_generated(fn, args, compiled, ex, demoted, t0)
