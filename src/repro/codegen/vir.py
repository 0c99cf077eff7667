"""VIR — a PTX-like virtual ISA.

The paper's key observation about GPU toolchains (Section III-B.2): the
compiler emits a *virtual* ISA with unlimited pseudo-registers ("NVIDIA
uses PTX ... There are unlimited pseudo register numbers available"); only
the vendor's closed-source assembler assigns hardware registers.  VIR
plays the role of PTX here, and :mod:`repro.gpu.registers` plays the role
of ``ptxas``.

Instructions are structured (loops and conditionals are bracketed by
marker instructions rather than arbitrary branches), which keeps liveness
analysis exact and matches the structured code OpenACC regions lower to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..analysis.coalescing import AccessInfo
from ..analysis.memspace import MemSpace
from ..errors import TimingUnavailable
from ..ir.stmt import Loop
from ..ir.symbols import Symbol
from ..pickling import positional_pickle


@positional_pickle
@dataclass(eq=False, slots=True)
class VReg:
    """A virtual register (identity equality).

    ``bits`` is 32 or 64; a 64-bit vreg consumes two hardware registers
    when allocated (Section IV-B).
    """

    id: int
    bits: int = 32
    hint: str = ""

    @property
    def units(self) -> int:
        """32-bit register units consumed."""
        return self.bits // 32

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        suffix = "d" if self.bits == 64 else ""
        label = f"%{self.hint}" if self.hint else f"%r{self.id}"
        return f"{label}{suffix}"


class Op(enum.Enum):
    # Data movement / arithmetic
    MOV = "mov"
    MOV_IMM = "mov_imm"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAD = "mad"  # dst = a*b + c
    DIV = "div"
    REM = "rem"
    NEG = "neg"
    CVT = "cvt"  # width/type conversion
    SETP = "setp"  # compare -> predicate (we model predicates as regs)
    SELP = "selp"  # select
    AND = "and"
    OR = "or"
    NOT = "not"
    MATH = "math"  # sqrt/exp/... (attr 'func')

    # Parameters / special registers
    LD_PARAM = "ld_param"
    LD_DOPE = "ld_dope"  # dope-vector field (lower bound / length)
    TID = "tid"
    CTAID = "ctaid"
    NTID = "ntid"

    # Memory
    LD = "ld"  # global / readonly load
    ST = "st"  # global store

    # Synchronisation
    BAR = "bar"  # __syncthreads()

    # Structure markers
    LOOP_BEGIN = "loop_begin"
    LOOP_END = "loop_end"
    IF_BEGIN = "if_begin"
    IF_ELSE = "if_else"
    IF_END = "if_end"
    RET = "ret"


#: Ops that read memory (for statistics/timing).
MEMORY_OPS = frozenset({Op.LD, Op.ST})
#: Marker ops that do not execute.
MARKER_OPS = frozenset(
    {Op.LOOP_BEGIN, Op.LOOP_END, Op.IF_BEGIN, Op.IF_ELSE, Op.IF_END, Op.RET}
)


@positional_pickle
@dataclass(slots=True)
class Instr:
    """One VIR instruction."""

    op: Op
    dst: VReg | None = None
    #: Second destination for vector (two-element) loads.
    dst2: VReg | None = None
    srcs: tuple[VReg, ...] = ()
    imm: int | float | None = None
    func: str = ""  # MATH function name / SETP comparison / ALU variant
    is_float: bool = False
    # -- memory attributes -------------------------------------------------
    array: Symbol | None = None
    space: MemSpace | None = None
    access: AccessInfo | None = None
    width_bits: int = 32
    dope_dim: int = -1
    dope_kind: str = ""  # 'lb' | 'len'
    # -- structure attributes ------------------------------------------------
    loop: Loop | None = None
    comment: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.op.value]
        if self.func:
            parts.append(f".{self.func}")
        if self.dst is not None:
            parts.append(repr(self.dst))
        if self.srcs:
            parts.append(", ".join(repr(s) for s in self.srcs))
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.array is not None:
            parts.append(f"[{self.array.name}]")
        if self.comment:
            parts.append(f"  // {self.comment}")
        return " ".join(parts)


@dataclass(slots=True)
class LaunchConfig:
    """Kernel launch topology derived from gang/vector clauses.

    ``block_dims``/``grid_dims`` hold the per-axis sizes; symbolic sizes
    (from runtime bounds) are expressions evaluated by the timing model
    against a problem-size environment.
    """

    threads_per_block: int = 128
    #: (loop, axis) pairs: which IR loops map to which thread axes.
    vector_loops: list[Loop] = field(default_factory=list)
    gang_loops: list[Loop] = field(default_factory=list)

    def total_threads(self, env: dict[str, int]) -> int:
        total = 1
        for loop in self.vector_loops + self.gang_loops:
            trips = loop.trip_count(env)
            if trips is None:
                raise TimingUnavailable(
                    f"cannot evaluate trip count of loop {loop.var.name}"
                )
            total *= max(trips, 1)
        return total


@dataclass(slots=True)
class VirKernel:
    """The virtual-ISA form of one offload region."""

    name: str
    instrs: list[Instr] = field(default_factory=list)
    launch: LaunchConfig = field(default_factory=LaunchConfig)
    vreg_count: int = 0
    #: Static shared memory per block (reduction scratch).
    smem_bytes: int = 0

    def dump(self) -> str:
        """Readable listing (indentation mirrors structure)."""
        lines = []
        depth = 0
        for ins in self.instrs:
            if ins.op in (Op.LOOP_END, Op.IF_END, Op.IF_ELSE):
                depth = max(0, depth - 1)
            lines.append("  " * depth + repr(ins))
            if ins.op in (Op.LOOP_BEGIN, Op.IF_BEGIN, Op.IF_ELSE):
                depth += 1
        return "\n".join(lines)

    def count(self, op: Op) -> int:
        return sum(1 for i in self.instrs if i.op is op)


class VRegAllocator:
    """Hands out fresh virtual registers (unlimited, like PTX)."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self, bits: int = 32, hint: str = "") -> VReg:
        self._next += 1
        return VReg(id=self._next, bits=bits, hint=hint)

    @property
    def count(self) -> int:
        return self._next
