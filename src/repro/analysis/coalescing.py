"""Memory-coalescing classification of array references.

Within a warp, consecutive threads execute consecutive iterations of the
vector loop.  An access is *coalesced* when those threads touch consecutive
memory addresses — i.e. when the vector-loop variable appears with
coefficient ±1 in the fastest-varying (last, row-major) dimension and
nowhere else.  Any other dependence on the vector variable produces strided
or scattered transactions (*uncoalesced*), which the paper's cost model
prices much higher (Section III-A.2).  References not involving the vector
variable at all are *uniform* — one transaction broadcast to the warp.

The classification follows the index-analysis approach of Jang et al.
(paper reference [8]) restricted to affine subscripts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..ir.expr import ArrayRef
from ..ir.symbols import Symbol
from .subscripts import subscript_forms


class AccessPattern(enum.Enum):
    #: Consecutive threads → consecutive addresses (1–2 transactions/warp).
    COALESCED = "coalesced"
    #: Thread-dependent with non-unit stride (up to 32 transactions/warp).
    UNCOALESCED = "uncoalesced"
    #: Same address for the whole warp (broadcast).
    UNIFORM = "uniform"
    #: Subscript not analysable (treated as uncoalesced by the cost model).
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class AccessInfo:
    """Pattern plus element stride between adjacent threads.

    ``stride_elems`` is the address distance (in elements) between
    consecutive threads: 1 for coalesced, 0 for uniform, the detected
    stride otherwise (``None`` when unknown, e.g. the vector variable
    appears in an outer dimension whose row length is symbolic).
    """

    pattern: AccessPattern
    stride_elems: int | None


def classify_access(
    ref: ArrayRef,
    vector_var: Symbol | None,
    divergent: frozenset[Symbol] | set[Symbol] = frozenset(),
) -> AccessInfo:
    """Classify one array reference against the vector-loop variable.

    ``divergent`` holds symbols whose values differ across a warp without
    being the vector variable itself (CSR row-loop counters and scalars
    derived from thread ids/loads); subscripts through them are scattered,
    never uniform.

    With no vector variable (purely gang-parallel or sequential region)
    every access is treated as coalesced-equivalent ``UNIFORM`` — there is
    no warp-level divergence to model.
    """
    if vector_var is None:
        return AccessInfo(AccessPattern.UNIFORM, 0)
    forms = subscript_forms(ref)
    if forms is None:
        return AccessInfo(AccessPattern.UNKNOWN, None)
    if divergent and any(f.depends_on(s) for f in forms for s in divergent):
        return AccessInfo(AccessPattern.UNKNOWN, None)

    last = forms[-1]
    outer = forms[:-1]
    stride_last = last.linear_coefficient(vector_var)
    outer_strides = [f.linear_coefficient(vector_var) for f in outer]
    if stride_last is None or any(s is None for s in outer_strides):
        return AccessInfo(AccessPattern.UNKNOWN, None)

    if stride_last.is_zero and all(s.is_zero for s in outer_strides):
        return AccessInfo(AccessPattern.UNIFORM, 0)
    if any(not s.is_zero for s in outer_strides):
        # The vector variable strides across rows: worst-case scattered.
        stride = _row_stride_elems(
            ref, [s.const if s.is_constant else 1 for s in outer_strides]
        )
        return AccessInfo(AccessPattern.UNCOALESCED, stride)
    if not stride_last.is_constant:
        # Symbolic stride (hand-linearised row access, e.g. i*ny*nx): the
        # run-time stride exceeds a warp's footprint — fully scattered.
        return AccessInfo(AccessPattern.UNCOALESCED, None)
    coef_last = stride_last.const
    if abs(coef_last) == 1:
        return AccessInfo(AccessPattern.COALESCED, 1)
    return AccessInfo(AccessPattern.UNCOALESCED, abs(coef_last))


def _row_stride_elems(ref: ArrayRef, outer_coefs: list[int]) -> int | None:
    """Element stride when the vector variable appears in outer dims.

    Computable only when all the dimensions to the right of the involved
    dimension have static extents.
    """
    if ref.sym.array is None or not ref.sym.array.dims:
        return None
    dims = ref.sym.array.dims
    stride: int | None = None
    # Row-major: stride of dim d = product of extents of dims d+1..end.
    suffix = 1
    static = True
    for d in range(len(dims) - 1, -1, -1):
        if d < len(outer_coefs) and outer_coefs[d] != 0:
            if not static:
                return None
            contrib = abs(outer_coefs[d]) * suffix
            stride = contrib if stride is None else stride + contrib
        extent = dims[d].extent
        if isinstance(extent, int):
            suffix *= extent
        else:
            static = False
    return stride


def classify_all(
    refs: list[ArrayRef], vector_var: Symbol | None
) -> dict[ArrayRef, AccessInfo]:
    """Classify a batch of references (memoised by structural equality)."""
    out: dict[ArrayRef, AccessInfo] = {}
    for ref in refs:
        if ref not in out:
            out[ref] = classify_access(ref, vector_var)
    return out
