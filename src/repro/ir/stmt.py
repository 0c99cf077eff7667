"""IR statements: assignments, conditionals, loops and offload regions.

Statements are *mutable* (transformations edit bodies in place), in contrast
to the immutable expression trees.  A :class:`Loop` keeps its OpenACC
``loop`` directive; a :class:`Region` keeps the ``kernels``/``parallel``
directive including the proposed ``dim``/``small`` clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from ..lang.directives import ComputeDirective, LoopDirective
from .expr import ArrayRef, Expr, IntConst, VarRef
from .symbols import Symbol


@dataclass(slots=True)
class Stmt:
    """Base class of IR statements."""


@dataclass(slots=True)
class LocalDecl(Stmt):
    """Declaration of a kernel-local scalar, optionally initialised."""

    sym: Symbol
    init: Expr | None = None


@dataclass(slots=True)
class Assign(Stmt):
    """``target = value``.  Compound assignments are normalised by the
    builder into a plain store whose RHS re-reads the target, so reuse
    analysis sees both the read and the write reference."""

    target: VarRef | ArrayRef
    value: Expr


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class Loop(Stmt):
    """A counted loop ``for (var = init; var <cond_op> bound; var += step)``.

    ``step`` is a compile-time integer (negative for downward loops).
    ``directive`` is the attached ``acc loop`` directive, if any; the
    OpenACC mapping rules (gang → blocks, vector → threads, seq →
    per-thread execution) are applied by the code generator.
    """

    var: Symbol
    init: Expr
    cond_op: str  # '<' | '<=' | '>' | '>='
    bound: Expr
    step: int
    body: list[Stmt] = field(default_factory=list)
    directive: LoopDirective | None = None
    #: Numbered per function, from 1 (the builder and the transforms draw
    #: from :meth:`~repro.ir.symbols.SymbolTable.new_loop_id`), so a
    #: function's ids do not depend on what the process built before.
    loop_id: int = field(kw_only=True)
    #: Set by transformations that introduce loop-carried dependences into a
    #: previously parallel loop (the Carr-Kennedy hazard of Section III-A.1).
    sequentialized: bool = False

    @property
    def is_parallel(self) -> bool:
        """Is this loop mapped onto the GPU thread topology?"""
        if self.sequentialized:
            return False
        return self.directive is not None and self.directive.is_parallel

    @property
    def is_seq(self) -> bool:
        return not self.is_parallel

    def trip_count(self, env: dict[str, int] | None = None) -> int | None:
        """Concrete trip count when bounds are known (else ``None``).

        ``env`` maps symbol names to values for symbolic bounds.
        """
        lo = _eval_int(self.init, env)
        hi = _eval_int(self.bound, env)
        if lo is None or hi is None or self.step == 0:
            return None
        if self.cond_op == "<":
            n = hi - lo
        elif self.cond_op == "<=":
            n = hi - lo + 1
        elif self.cond_op == ">":
            n = lo - hi
        else:  # '>='
            n = lo - hi + 1
        if n <= 0:
            return 0
        return (n + abs(self.step) - 1) // abs(self.step)

    def iter_values(self, env: dict[str, int]) -> range:
        """The concrete iteration space as a Python range (for the
        interpreter)."""
        lo = _eval_int(self.init, env)
        hi = _eval_int(self.bound, env)
        if lo is None or hi is None:
            raise ValueError(f"loop bounds of {self.var.name} not evaluable")
        if self.cond_op == "<":
            return range(lo, hi, self.step)
        if self.cond_op == "<=":
            return range(lo, hi + 1, self.step)
        if self.cond_op == ">":
            return range(lo, hi, self.step)
        return range(lo, hi - 1, self.step)  # '>='


@dataclass(slots=True)
class Region(Stmt):
    """An OpenACC offload region (``kernels`` or ``parallel`` construct).

    One Region lowers to one GPU kernel launch in the paper's compiler
    (nested parallel loops define the launch topology).
    """

    directive: ComputeDirective
    body: list[Stmt] = field(default_factory=list)
    #: Numbered per function, from 1, in source order.
    region_id: int = field(kw_only=True)

    @property
    def name_hint(self) -> str:
        return f"region{self.region_id}"


def _eval_int(e: Expr, env: dict[str, int] | None) -> int | None:
    """Best-effort constant evaluation of an integer expression."""
    from .expr import BinOp, UnOp  # local import to avoid cycle noise

    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, VarRef):
        if env is not None and e.sym.name in env:
            return env[e.sym.name]
        return None
    if isinstance(e, UnOp) and e.op == "-":
        v = _eval_int(e.operand, env)
        return None if v is None else -v
    if isinstance(e, BinOp):
        lhs = _eval_int(e.left, env)
        rhs = _eval_int(e.right, env)
        if lhs is None or rhs is None:
            return None
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            if rhs == 0:
                return None
            q = abs(lhs) // abs(rhs)
            return q if (lhs >= 0) == (rhs >= 0) else -q  # C truncation
        if e.op == "%":
            if rhs == 0:
                return None
            return lhs - rhs * (_eval_int(BinOp("/", e.left, e.right), env) or 0)
    return None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_stmts(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Pre-order traversal of a statement list (descending into bodies)."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, Loop):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, Region):
            yield from walk_stmts(stmt.body)


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """The expressions directly owned by one statement (no recursion into
    child statements)."""
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, LocalDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, Loop):
        return [stmt.init, stmt.bound]
    return []


def clone_stmt(stmt: Stmt) -> Stmt:
    """Structural copy of one statement tree.

    Expressions and :class:`~repro.ir.symbols.Symbol` objects are *shared*
    (exprs are immutable, so the clone keeps the function's hash-consed
    nodes; symbols compare by identity and must stay the same objects the
    symbol table holds) — only the mutable
    statement skeleton is copied, so transformations on the clone cannot
    reach the original.  Directives are copied too (they are mutable
    dataclasses that passes may rewrite), keeping ``loop_id``/``region_id``
    so traces and launch caches line up between the two copies.
    """
    if isinstance(stmt, Assign):
        return Assign(target=stmt.target, value=stmt.value)
    if isinstance(stmt, LocalDecl):
        return LocalDecl(sym=stmt.sym, init=stmt.init)
    if isinstance(stmt, If):
        return If(
            cond=stmt.cond,
            then_body=[clone_stmt(s) for s in stmt.then_body],
            else_body=[clone_stmt(s) for s in stmt.else_body],
        )
    if isinstance(stmt, Loop):
        return Loop(
            var=stmt.var,
            init=stmt.init,
            cond_op=stmt.cond_op,
            bound=stmt.bound,
            step=stmt.step,
            body=[clone_stmt(s) for s in stmt.body],
            directive=_clone_loop_directive(stmt.directive),
            loop_id=stmt.loop_id,
            sequentialized=stmt.sequentialized,
        )
    if isinstance(stmt, Region):
        return clone_region(stmt)
    raise TypeError(f"cannot clone statement {type(stmt).__name__}")


def _clone_loop_directive(d: LoopDirective | None) -> LoopDirective | None:
    if d is None:
        return None
    return replace(d)


def clone_region(region: Region) -> Region:
    """Independent copy of an offload region (same ``region_id``): compile
    the copy down one configuration path while keeping the original intact
    for another — the register-pressure guard compiles a region both with
    and without equality saturation and keeps the better kernel."""
    directive = replace(
        region.directive,
        combined_loop=_clone_loop_directive(region.directive.combined_loop),
    )
    return Region(
        directive=directive,
        body=[clone_stmt(s) for s in region.body],
        region_id=region.region_id,
    )


def loops_in(stmts: list[Stmt]) -> list[Loop]:
    return [s for s in walk_stmts(stmts) if isinstance(s, Loop)]


def regions_in(stmts: list[Stmt]) -> list[Region]:
    return [s for s in walk_stmts(stmts) if isinstance(s, Region)]
