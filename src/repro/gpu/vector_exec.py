"""Vectorized SIMT execution: parallel loops as NumPy array axes.

The scalar interpreter (:mod:`repro.gpu.interpreter`) is the correctness
oracle, but it executes OpenACC-parallel loops one Python iteration at a
time.  This module holds the runtime that executes whole loop nests as
*batched* NumPy programs: each parallel loop the planner
(:mod:`repro.codegen.vector_lower`) proves safe becomes an array axis
(a fixed lane *slot*) over its full iteration domain, every expression
is evaluated once as a broadcast operation over all lanes, and ``If``
branches become boolean lane masks with both sides evaluated under their
respective masks.  The programs themselves are typed generated NumPy
source (:mod:`repro.codegen.numpy_source`), specialised on the launch's
argument kinds (:func:`argument_signature`): they compute with bare
NumPy operators and call :class:`VectorInterpreter` only for lane state
(environment, masks, loops, stores), for intrinsics and float→int
conversions, and for the guards the generator could not discharge.  They
hand the runtime plain values — a loop's variable name, computed start,
stop and step, a region's kernel name — so nothing here reads IR.
:func:`execute_kernel` runs the ladder codegen → scalar.

Bit-for-bit equality with the oracle is preserved by construction:

* lane axes keep nesting order, so C-order resolution of duplicate
  fancy-index writes equals the scalar iteration order;
* every value has a *kind* (weak Python ``int``/``float`` or strong
  ``np.int32``/``np.int64``/``np.float32``/``np.float64``), inferred
  when the program is generated, so NEP 50 promotion and the
  interpreter's flop-counting rule are replayed exactly;
* transcendental intrinsics go through ``math.*`` per element (NumPy's own
  ``sin``/``exp`` may differ from libm in the last ulp);
* anything that cannot be reproduced exactly — lane-dependent values where
  the interpreter would hold one Python scalar, Python-semantics errors
  like division by zero, arbitrary-precision integers, a failed launch
  range check — raises :class:`VectorUnsupported`, and
  :func:`execute_kernel` falls back to the scalar interpreter on
  *pristine* inputs (the codegen attempt runs on array copies),
  reproducing even error-path partial mutation.  Any other exception is
  a bug and propagates.

:class:`~repro.gpu.interpreter.ExecutionStats` counters are derived
analytically from active-lane counts (see the contract on that class), and
must match the scalar counters exactly — tests assert this.
"""

from __future__ import annotations

import logging
import math
import re
import time
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from ..codegen.vector_lower import plan_kernel
from ..executors import Executor, parse_executor
from ..ir.module import KernelFunction
from ..obs.tracer import span
from .interpreter import ExecutionStats, bind_arguments, run_kernel

logger = logging.getLogger(__name__)


class VectorUnsupported(Exception):
    """The batched runtime cannot reproduce scalar semantics here; callers
    fall back to the interpreter (the message is the logged reason)."""


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
    """One scalar of the lane environment: the data (a NumPy scalar when
    lane-uniform, else an ndarray of the launch's lane rank), its kind, and
    which lanes actually hold a value (``True`` or a bool lane mask).
    Generated code reads and writes the bare data."""

    data: np.ndarray
    kind: str
    defined: object = True  # True | np.ndarray[bool]


def _const_int(value: int) -> VArray:
    return VArray(np.int64(value), PYINT)


def _as_f64(data):
    """``float(value)`` lane-wise."""
    if isinstance(data, np.ndarray):
        return data.astype(np.float64)
    return np.float64(data)


def _as_f32(data):
    """``float(np.float32(value))`` lane-wise."""
    if isinstance(data, np.ndarray):
        return data.astype(np.float32).astype(np.float64)
    return np.float64(np.float32(data))


def _as_i64(data):
    """``int(value)`` lane-wise, for integer-kinded (or bool) values."""
    if isinstance(data, np.ndarray):
        return data.astype(np.int64)
    return np.int64(data)


def _bool_to_int(data):
    """A comparison/logic result as the oracle's ``0``/``1`` integer."""
    if isinstance(data, np.ndarray):
        return data.astype(np.int64)
    return int(data)


def _cast_to(data, dtype: np.dtype):
    """Weak operand → the promoted dtype.  Python scalars stay as they are:
    NumPy's own weak-scalar promotion already yields the right dtype."""
    if type(data) in (int, float):
        return data
    return data.astype(dtype)


_PICK = {"min": np.frompyfunc(min, 2, 1), "max": np.frompyfunc(max, 2, 1)}


def _pick(func: str, dtype: np.dtype, *args):
    """``min``/``max`` of same-kind values lane-wise, with Python's own
    comparison, as the interpreter computes it; in the kind's dtype."""
    acc = args[0]
    for a in args[1:]:
        acc = _PICK[func](acc, a)
    return acc.astype(dtype) if isinstance(acc, np.ndarray) else dtype.type(acc)


_MATH = {
    f: np.frompyfunc(getattr(math, f), 2 if f == "pow" else 1, 1)
    for f in ("exp", "log", "sin", "cos", "tan", "pow")
}


def _scalar_kind(name: str, value: object) -> str:
    if isinstance(value, np.generic):
        kind = _DTYPE_KIND.get(value.dtype)
        if kind is None:
            raise VectorUnsupported(
                f"argument {name!r} has unsupported dtype {value.dtype}"
            )
        return kind
    if isinstance(value, float):
        return PYFLOAT
    if isinstance(value, int):  # bool included — arithmetic treats it as int
        if abs(value) >= _CAST_GUARD:
            raise VectorUnsupported(f"argument {name!r} exceeds int64 range")
        return PYINT
    raise VectorUnsupported(
        f"argument {name!r} has unsupported type {type(value).__name__}"
    )


def argument_signature(
    scalars: dict[str, object], arrays: dict[str, np.ndarray]
) -> tuple[tuple[str, str], ...]:
    """The launch's argument-kind signature: ``(name, kind)`` for every
    scalar and array argument, sorted by name.  Generated programs are
    specialised on it.  Raises :class:`VectorUnsupported` for argument
    types the batched runtime cannot reproduce."""
    kinds = [(name, _scalar_kind(name, v)) for name, v in scalars.items()]
    for name, arr in arrays.items():
        kind = _DTYPE_KIND.get(arr.dtype)
        if kind is None:
            raise VectorUnsupported(
                f"array {name!r} has unsupported dtype {arr.dtype}"
            )
        kinds.append((name, kind))
    return tuple(sorted(kinds))


def format_signature(signature) -> str:
    return ",".join(f"{name}={kind}" for name, kind in signature)


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
    #: Wall time spent obtaining and running the generated program (None
    #: when the codegen tier never ran).
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
    active lane axes and mask, the arrays.  Lane axes live in fixed
    *slots*: the generator numbers every axis-mode loop by its nesting
    among axis loops, and :meth:`_begin` fixes the lane rank, so every
    lane-varying value is an ndarray of that rank (size 1 on slots not
    currently iterated) and NumPy broadcasting lines lanes up without any
    reshaping.  Lane-uniform values are NumPy scalars.

    Typed generated code (:mod:`repro.codegen.numpy_source`) computes with
    bare NumPy operators and calls back only for lane state (environment,
    masks, loops, stores), for intrinsics and float→int conversions, and
    for the guards it could not discharge.

    Mutates the arrays it is given (callers pass copies and commit on
    success).  Raises :class:`VectorUnsupported` when exact scalar
    semantics cannot be guaranteed; nothing observable should be trusted
    after that.
    """

    def __init__(
        self,
        scalars: dict[str, object],
        arrays: dict[str, np.ndarray],
        lowers: dict[str, tuple[int, ...]],
    ):
        self._arrays = arrays
        self._lowers = lowers
        self.signature = argument_signature(scalars, arrays)
        self._env: dict[str, VArray] = {}
        self._axes: list[str] = []
        self._shape: tuple[int, ...] = ()
        self._mask: np.ndarray | None = None  # None == all lanes active
        self._acount: int | None = None
        self.stats = ExecutionStats()
        self.elements = 0
        self.region_elements: dict[str, int] = {}
        kinds = dict(self.signature)
        for name, value in scalars.items():
            dtype = _KIND_DTYPE[kinds[name]]
            self._env[name] = VArray(
                value if isinstance(value, np.generic) else dtype.type(value),
                kinds[name],
            )

    def _begin(self, rank: int, signature) -> None:
        """Start a generated program specialised on ``signature`` whose
        axis loops occupy ``rank`` lane slots."""
        if signature != self.signature:
            raise VectorUnsupported(
                f"argument kinds ({format_signature(self.signature)}) differ "
                f"from the program's ({format_signature(signature)})"
            )
        self._shape = (1,) * rank

    # -- lane bookkeeping ---------------------------------------------------
    def _active(self) -> int:
        if self._acount is None:
            if self._mask is None:
                self._acount = math.prod(self._shape)
            else:
                self._acount = self._masked_count(self._mask)
        return self._acount

    def _set_mask(self, mask: np.ndarray | None) -> None:
        self._mask = mask
        self._acount = None

    def _masked_any(self, cond) -> bool:
        """Does ``cond`` hold on any *active* lane?  (No lane axis has
        length 0, so the unbroadcast ``any`` is the lane-shaped one.)"""
        if self._mask is not None:
            cond = cond & self._mask
        return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)

    def _masked_count(self, mask: np.ndarray) -> int:
        """Active lanes of ``mask`` over the full lane shape (a size-1 mask
        dimension counts once per lane of that slot)."""
        n = int(np.count_nonzero(mask))
        if mask.shape != self._shape:
            for size, msize in zip(self._shape, mask.shape or (1,) * len(self._shape)):
                if msize == 1:
                    n *= size
        return n

    def _count(self, loads: int, stores: int, flops: int) -> None:
        """Add one block's statically counted operations, once per active
        lane (a block runs under one mask from start to end)."""
        n = self._active()
        stats = self.stats
        stats.loads += loads * n
        stats.stores += stores * n
        stats.flops += flops * n

    def _sanitize(self, data, fill: object):
        """Replace inactive-lane values (which may be arbitrary garbage)
        with a safe ``fill`` before an operation that could fault on them."""
        if self._mask is None:
            return data
        return np.where(self._mask, data, fill)

    # -- scalar environment -------------------------------------------------
    def _env_get(self, name: str) -> VArray:
        va = self._env.get(name)
        if va is None:
            raise VectorUnsupported(f"read of unset scalar {name!r}")
        if va.defined is not True and self._masked_any(~va.defined):
            raise VectorUnsupported(f"scalar {name!r} undefined on active lanes")
        return va

    def _env_value(self, name: str, kind: str):
        """Typed read: the bare data of a scalar whose kind the generator
        inferred (a mismatch is a generator bug, not a fallback)."""
        va = self._env_get(name)
        if va.kind != kind:
            raise TypeError(
                f"generated code expected {name!r} as {kind}, found {va.kind}"
            )
        return va.data

    def _env_set(self, name: str, va: VArray) -> None:
        if self._mask is None:
            self._env[name] = va
            return
        old = self._env.get(name)
        m = self._mask
        if old is None:
            data = np.where(m, va.data, _KIND_DTYPE[va.kind].type(0))
            defined = np.broadcast_to(m, data.shape).copy()
            self._env[name] = VArray(data, va.kind, defined)
            return
        if old.kind != va.kind:
            raise VectorUnsupported(
                f"scalar {name!r} holds mixed kinds across lanes "
                f"({old.kind} vs {va.kind})"
            )
        data = np.where(m, va.data, old.data)
        if old.defined is True:
            defined: object = True
        else:
            defined = np.broadcast_to(m | old.defined, data.shape).copy()
        self._env[name] = VArray(data, va.kind, defined)

    def _set_float(self, name: str, data) -> None:
        """Typed assignment to a float-declared scalar: ``float(value)``."""
        self._env_set(name, VArray(_as_f64(data), PYFLOAT))

    def _set_int(self, name: str, data) -> None:
        """Typed assignment of an integer-kinded value to an int-declared
        scalar: ``int(value)``."""
        self._env_set(name, VArray(_as_i64(data), PYINT))

    # -- numeric guards -----------------------------------------------------
    def _weak(self, data, what: str):
        """Guard a weak-integer operand (``|x| < 2**31`` on active lanes, so
        int64 arithmetic equals Python's); returns the operand."""
        if isinstance(data, np.ndarray):
            if self._masked_any(np.abs(data) >= _INT_GUARD):
                raise VectorUnsupported(f"{what}: weak integer exceeds safe range")
        elif not -_INT_GUARD < data < _INT_GUARD:
            raise VectorUnsupported(f"{what}: weak integer exceeds safe range")
        return data

    def _float_to_int(self, data, what: str):
        """Python ``int(float)`` truncation, guarded against lanes where
        int64 ``astype`` would diverge from Python (non-finite / huge)."""
        data = _as_f64(data)
        bad = ~np.isfinite(data) | (np.abs(data) >= _CAST_GUARD)
        if self._masked_any(bad):
            raise VectorUnsupported(f"{what}: float→int out of exact range")
        return self._sanitize(data, 0.0).astype(np.int64)

    def _bounds(self, idx, extent: int, name: str):
        """Dynamic subscript check on the active lanes; returns an index
        safe to gather with (inactive lanes clipped into range)."""
        if not isinstance(idx, np.ndarray):
            if not 0 <= idx < extent:
                raise VectorUnsupported(f"out-of-bounds access on {name!r}")
            return idx
        bad = (idx < 0) | (idx >= extent)
        if self._masked_any(bad):
            raise VectorUnsupported(f"out-of-bounds access on {name!r}")
        # Any lane still out of range is switched off: gather element 0.
        return idx if self._mask is None else np.where(bad, 0, idx)

    def _clip(self, idx, extent: int):
        """A subscript proved in range by the launch check: only lanes a
        mask switched off can hold garbage, so clip those for gathering."""
        if self._mask is None or not isinstance(idx, np.ndarray):
            return idx
        return np.where((idx < 0) | (idx >= extent), 0, idx)

    # -- statements ---------------------------------------------------------
    def _run_region(self, name: str, body) -> None:
        before = self.elements
        body()
        self.region_elements[name] = (
            self.region_elements.get(name, 0) + self.elements - before
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
        od = old.defined
        need = ~od if self._mask is None else (~od & self._mask)
        data = np.where(od, old.data, np.int64(0))
        defined = np.broadcast_to(od | need, data.shape).copy()
        self._env[name] = VArray(data, PYINT, True if defined.all() else defined)

    def _apply_if(self, cond, then_body, else_body) -> None:
        """``If`` with a pre-evaluated condition and body thunks (nested
        functions of the generated program).  A lane-uniform condition
        runs one branch under the current mask."""
        if not isinstance(cond, np.ndarray) or not self._axes:
            if cond:
                then_body()
            else:
                else_body()
            return
        truth = cond != 0
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

    # -- loops --------------------------------------------------------------
    def _run_loop(self, var: str, lo, stop, step: int, body, slot: int | None) -> None:
        """Dispatch one loop over ``range(lo, stop, step)`` (bounds computed
        by the generated code) with its *planned* mode baked in (``slot`` is
        the lane slot of an axis-mode loop, ``None`` for sequential) and its
        body as a thunk.  Axis-mode loops still demote dynamically to the
        ordinal walk when their concrete bounds turn out lane-varying."""
        first, end = self._uniform_int(lo), self._uniform_int(stop)
        if first is not None and end is not None:
            vals = range(first, end, step)
            if len(vals) == 0:
                return
            if slot is None:
                self._exec_seq_uniform(var, vals, body)
            else:
                self._exec_axis_loop(var, vals, body, slot)
            return
        self._exec_seq_varying(var, lo, stop, step, body)

    def _uniform_int(self, data) -> int | None:
        """The value every active lane holds, or ``None``."""
        if not isinstance(data, np.ndarray):
            return int(data)
        vals = np.broadcast_to(data, self._shape)
        if self._mask is not None:
            vals = vals[np.broadcast_to(self._mask, self._shape)]
        else:
            vals = vals.reshape(-1)
        if vals.size == 0:
            return None
        first = vals[0]
        return int(first) if bool((vals == first).all()) else None

    def _exec_axis_loop(self, var: str, vals: range, body, slot: int) -> None:
        saved = self._env.get(var)
        saved_shape = self._shape
        view = [1] * len(saved_shape)
        view[slot] = len(vals)
        self._axes.append(var)
        self._shape = saved_shape[:slot] + (len(vals),) + saved_shape[slot + 1:]
        self._acount = None  # the mask broadcasts along the new slot
        self._env[var] = VArray(
            np.arange(vals.start, vals.stop, vals.step, dtype=np.int64).reshape(view),
            PYINT,
        )
        active = self._active()
        self.stats.iterations += active
        self.elements += active
        body()
        # Pop the axis: anything written per-lane keeps its final-iteration
        # slice (the scalar interpreter leaks the last iteration's value;
        # the planner demoted the loop if a lane-varying final is *read*).
        last = (slice(None),) * slot + (slice(-1, None),)
        for name, va in list(self._env.items()):
            data, defined, changed = va.data, va.defined, False
            if isinstance(data, np.ndarray) and data.ndim and data.shape[slot] > 1:
                data, changed = data[last], True
            if isinstance(defined, np.ndarray) and defined.ndim and defined.shape[slot] > 1:
                defined, changed = defined[last], True
            if changed:
                self._env[name] = VArray(data, va.kind, defined)
        self._axes.pop()
        self._shape = saved_shape
        self._acount = None
        if saved is not None:
            self._env[var] = saved
        else:
            self._env.pop(var, None)
            self._env_set(var, _const_int(vals[-1]))

    def _exec_seq_uniform(self, var: str, vals: range, body) -> None:
        saved = self._env.get(var)
        for v in vals:
            self._env_set(var, VArray(np.int64(v), PYINT))
            self.stats.iterations += self._active()
            body()
        if saved is not None:
            self._env[var] = saved

    def _exec_seq_varying(self, var: str, lo, stop, step: int, body) -> None:
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
        if step not in (1, -1):
            raise VectorUnsupported(
                f"lane-varying bounds with step {step} on loop '{var}'"
            )
        start = np.broadcast_to(lo, self._shape)
        stop = np.broadcast_to(stop, self._shape)
        base = self._mask
        trips = np.maximum(stop - start, 0) if step == 1 else np.maximum(
            start - stop, 0
        )
        if base is not None:
            trips = np.where(np.broadcast_to(base, self._shape), trips, 0)
        max_trips = int(trips.max()) if trips.size else 0
        if max_trips == 0:
            return
        saved = self._env.get(var)
        for k in range(max_trips):
            m_k = trips > k
            self._set_mask(m_k)
            self._acount = count = int(np.count_nonzero(m_k))
            # Read under m_k (or narrower) only: retired lanes may hold
            # anything (the final values are set after the loop).
            self._env[var] = VArray(start + k if step == 1 else start - k, PYINT)
            self.stats.iterations += count
            body()
        self._set_mask(base)
        if saved is not None:
            self._env[var] = saved
        else:
            # Per-lane leak of the final iteration value on lanes that ran.
            ran = (stop > start) if step == 1 else (stop < start)
            m_ran = ran if base is None else (base & ran)
            if m_ran.any():
                last = stop - 1 if step == 1 else stop + 1
                data = np.where(m_ran, last, np.int64(0))
                self._env[var] = VArray(data, PYINT, m_ran)
            else:
                self._env.pop(var, None)

    # -- memory -------------------------------------------------------------
    def _store(self, target: np.ndarray, idx: tuple, value) -> None:
        """``target[idx] = value`` on the active lanes.  Indices and value
        are broadcast to the full lane shape so duplicate writes resolve in
        C order — the scalar iteration order."""
        shape = self._shape
        full = tuple(
            i if isinstance(i, np.ndarray) and i.shape == shape
            else np.broadcast_to(i, shape)
            for i in idx
        )
        if self._mask is None:
            target[full] = value
            return
        m = np.broadcast_to(self._mask, shape)
        target[tuple(i[m] for i in full)] = np.broadcast_to(value, shape)[m]

    def _store_checked(
        self, target: np.ndarray, idx: tuple, value, is_float: bool
    ) -> None:
        """A store into an integer array whose value needs the range checks
        scalar element assignment performs (it raises on NaN/inf and on
        values outside the target's range; array assignment wraps)."""
        if is_float and self._masked_any(~np.isfinite(value)):
            raise VectorUnsupported("non-finite value stored to int array")
        info = np.iinfo(target.dtype)
        if self._masked_any((value < info.min) | (value > info.max)):
            raise VectorUnsupported("integer store out of range")
        self._store(target, idx, value)

    # -- expressions --------------------------------------------------------
    def _select(self, cond, then_thunk, else_thunk):
        """Ternary with a pre-evaluated condition and arm thunks; each arm
        is evaluated only under the lanes that take it; both arms return
        bare data of one kind."""
        if not isinstance(cond, np.ndarray) or not self._axes:
            return then_thunk() if cond else else_thunk()
        truth = cond != 0
        base = self._mask
        m_then = truth if base is None else (base & truth)
        m_else = ~truth if base is None else (base & ~truth)
        then_v = else_v = None
        if self._masked_count(m_then):
            self._set_mask(m_then)
            then_v = then_thunk()
        if self._masked_count(m_else):
            self._set_mask(m_else)
            else_v = else_thunk()
        self._set_mask(base)
        if then_v is None:
            return else_v
        if else_v is None:
            return then_v
        return np.where(truth, then_v, else_v)

    def _logic(self, op: str, lhs, rhs_thunk):
        """Short-circuit ``&&``/``||`` with the right operand as a thunk,
        evaluated only under the lanes that reach it; a bool result."""
        if not isinstance(lhs, np.ndarray) or not self._axes:
            if op == "&&" and not lhs:
                return False
            if op == "||" and lhs:
                return True
            rv = rhs_thunk()
            return rv != 0 if isinstance(rv, np.ndarray) else bool(rv)
        lt = lhs != 0
        base = self._mask
        m_right = lt if op == "&&" else ~lt
        m_right = m_right if base is None else (base & m_right)
        if self._masked_count(m_right):
            self._set_mask(m_right)
            rt = rhs_thunk() != 0
            self._set_mask(base)
        else:
            rt = False
        return (lt & rt) if op == "&&" else (lt | rt)

    def _int_div(self, la, rb, checked: bool = True):
        """C-truncation ``/`` of integers (operands already in the result
        dtype); ``checked`` guards the divisor against zero."""
        if checked and self._masked_any(rb == 0):
            raise VectorUnsupported("integer division by zero")
        return _int_divmod(la, rb)[0]

    def _int_mod(self, la, rb, checked: bool = True):
        if checked and self._masked_any(rb == 0):
            raise VectorUnsupported("integer division by zero")
        return _int_divmod(la, rb)[1]

    def _weak_div(self, la, rb, checked: bool = True):
        """``/`` of two weak operands yielding a float: Python raises on a
        zero divisor where NumPy would produce inf/nan."""
        if checked and self._masked_any(rb == 0):
            raise VectorUnsupported("float division by zero (Python semantics)")
        return la / rb

    # -- intrinsics ---------------------------------------------------------
    def _sqrt(self, data):
        data = _as_f64(data)
        if self._masked_any(data < 0):
            raise VectorUnsupported("sqrt of negative value")
        return np.sqrt(self._sanitize(data, 0.0))

    def _math(self, func: str, *args):
        """``math.<func>`` per element (exp, log, sin, cos, tan, pow);
        inactive lanes compute on a safe argument."""
        safe = 0.0 if func in ("exp", "sin", "cos", "tan") else 1.0
        data = [self._sanitize(_as_f64(a), safe) for a in args]
        return _libm(_MATH[func], func, *data)


def _libm(ufunc, func: str, *args):
    """Apply a ``math`` function per element, as the interpreter does;
    Python's domain/range errors become a fallback reason."""
    try:
        out = ufunc(*args)
    except (ValueError, OverflowError) as exc:
        raise VectorUnsupported(f"{func}: {exc}") from None
    if isinstance(out, np.ndarray):
        return out.astype(np.float64)
    return np.float64(out)


def _int_divmod(la, rb):
    """C-truncation quotient and remainder (divisor pre-checked)."""
    dtype = np.result_type(la, rb)
    rb = np.where(rb == 0, np.asarray(1, dtype=dtype), rb)
    q = np.abs(la) // np.abs(rb)
    q = np.where((la >= 0) == (rb >= 0), q, -q).astype(dtype, copy=False)
    r = (la - rb * q).astype(dtype, copy=False)
    if q.ndim == 0:
        return q[()], r[()]
    return q, r


def execute_kernel(
    fn: KernelFunction,
    args: dict[str, object],
    *,
    executor: "str | Executor" = "auto",
    content_key: Hashable | None = None,
    metrics=None,
) -> tuple[dict[str, np.ndarray], ExecutionStats, ExecutionInfo]:
    """Execute ``fn`` with ``args`` (arrays are mutated in place).

    ``executor`` selects the engine (see :mod:`repro.executors`):
    ``"scalar"`` always interprets, ``"codegen"`` requires the
    generated-NumPy tier (raising :class:`VectorUnsupported` or
    :class:`~repro.codegen.numpy_source.CodegenUnsupported` if impossible),
    and ``"auto"`` — the default — walks the ladder codegen → scalar,
    logging and counting the fallback reason.  Only those two typed
    exceptions mean "fall back"; any other exception from generated code
    is a bug and propagates.  Codegen attempts run on array copies and
    commit only on success, so a fallback re-runs the scalar path on
    pristine inputs and reproduces its behaviour exactly, including
    exceptions and the partial mutation preceding them.

    ``content_key`` (optional) keys the in-memory generated-function cache
    together with the launch's argument-kind signature — callers that know
    a stable key for ``fn``'s content pass it (a session's
    :meth:`~repro.compiler.session.CompilerSession.run` passes its parse
    key) so repeat launches skip planning and code generation entirely.
    ``metrics`` (optional, :class:`~repro.obs.metrics.MetricsRegistry`)
    receives the codegen tier's cache, generation, guard and fallback
    counters.
    """
    with span("execute", kernel=fn.name, requested=str(executor)) as sp:
        arrays, stats, info = _execute_kernel(
            fn, args, executor=executor, content_key=content_key,
            metrics=metrics,
        )
        sp.set(used=info.used, elements=info.elements)
        if info.fallback_reason is not None:
            sp.set(fallback_reason=info.fallback_reason)
    return arrays, stats, info


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


def _reason_slug(reason: str) -> str:
    """A metric-name slug for a fallback reason: its words, without the
    quoted names, bracketed values and parenthesised details that vary
    per kernel and launch."""
    text = reason.split(": ", 1)[-1]
    text = re.sub(r"'[^']*'|\[[^\]]*\]|\([^)]*\)|[0-9]+", " ", text)
    slug = ""
    for word in re.findall(r"[a-z]+", text.lower()):
        if len(slug) + len(word) > 48:
            break
        slug = f"{slug}_{word}" if slug else word
    return slug or "unknown"


def _scalar_fallback(fn, args, requested, reason, demoted, metrics):
    logger.info("codegen executor: %s falls back to scalar: %s", fn.name, reason)
    if metrics is not None:
        metrics.counter(
            f"codegen.fallbacks.{_reason_slug(reason)}",
            "auto executions that fell back to the scalar interpreter, by reason",
        ).inc()
    arrays, stats = run_kernel(fn, args)
    return arrays, stats, ExecutionInfo(
        requested=requested, used="scalar", fallback_reason=reason,
        demoted=demoted,
    )


def _run_generated(fn, args, bound, compiled, ex: Executor, t0, metrics):
    """Drive ``compiled`` over copies of the bound arguments; commit the
    copies on success, else re-run the scalar oracle on pristine inputs."""
    scalars, arrays, lowers = bound
    copies = {name: arr.copy() for name, arr in arrays.items()}
    demoted = list(compiled.source.demoted)
    try:
        interp = VectorInterpreter(scalars, copies, lowers)
        compiled.run(interp)
    except VectorUnsupported as exc:
        if ex is Executor.CODEGEN:
            raise
        # Unsupported lanes and Python-semantics errors (division by zero,
        # …) are the oracle's to reproduce, partial mutation included.
        return _scalar_fallback(fn, args, ex.value, _reason(exc), demoted, metrics)
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
    content_key: Hashable | None = None,
    metrics=None,
) -> tuple[dict[str, np.ndarray], ExecutionStats, ExecutionInfo]:
    from ..codegen import numpy_source  # deferred: avoids import cycle

    ex = parse_executor(executor)
    if ex is Executor.SCALAR:
        arrays, stats = run_kernel(fn, args)
        return arrays, stats, ExecutionInfo(requested="scalar", used="scalar")

    t0 = time.perf_counter()
    bound = bind_arguments(fn, args)
    try:
        signature = argument_signature(bound[0], bound[1])
    except VectorUnsupported as exc:
        if ex is Executor.CODEGEN:
            raise
        return _scalar_fallback(fn, args, ex.value, _reason(exc), [], metrics)

    # Warm fast path: a cached generated function already bakes the axis
    # decisions and the argument kinds, so repeat launches with a
    # content_key skip the planner entirely.
    if content_key is not None:
        cached = numpy_source.function_cache().get(
            (content_key, signature), metrics, record_miss=False
        )
        if cached is not None:
            return _run_generated(fn, args, bound, cached, ex, t0, metrics)

    plan = plan_kernel(fn)
    demoted = plan.demotion_reasons
    if not plan.has_axes:
        reason = "no vectorizable parallel loops"
        if demoted:
            reason += f" ({demoted[0]})"
        if ex is Executor.CODEGEN:
            raise VectorUnsupported(reason)
        return _scalar_fallback(fn, args, ex.value, reason, demoted, metrics)

    try:
        compiled = numpy_source.get_or_compile(
            fn, plan, content_key=content_key, signature=signature,
            metrics=metrics,
        )
    except numpy_source.CodegenUnsupported as exc:
        if ex is Executor.CODEGEN:
            raise
        return _scalar_fallback(fn, args, ex.value, _reason(exc), demoted, metrics)
    return _run_generated(fn, args, bound, compiled, ex, t0, metrics)
