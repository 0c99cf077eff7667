"""Sequential-loop unrolling (the paper's future work, Section VII).

"In future work, we plan to combine other classical optimizations like
loop unrolling and memory vectorization with SAFARA" — this module
implements that combination's first half.  Unrolling a sequential loop by
``U`` turns inter-iteration reuse (rotating registers, one load per
iteration) into *intra*-iteration reuse across the unrolled copies, which
SAFARA then exploits with plain temporaries — fewer register rotations
per element and amortised loop overhead.

Shape handled: upward (+1 step) counted loops with ``<`` / ``<=`` bounds —
the shape every benchmark seq loop here has.  The transformation is::

    for (v = lo; v < hi; v++) BODY(v)
      ==>
    full = (hi - lo) / U * U;             // folded when bounds are static
    for (v = lo; v < lo + full; v += U) { BODY(v); BODY(v+1); ... }
    for (v = lo + full; v < hi; v++) BODY(v)   // remainder

Each unrolled copy gets fresh local symbols (flat symbol table) and its
loop-variable uses substituted with ``v + j``.  Correctness is covered by
interpreter equivalence tests, including non-divisible trip counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    IntConst,
    VarRef,
    fold_constants,
    rewrite,
)
from ..ir.stmt import Assign, If, LocalDecl, Loop, Region, Stmt
from ..ir.symbols import Symbol, SymbolTable
from .carr_kennedy import _parent_stmts


@dataclass(slots=True)
class UnrollReport:
    unrolled: list[Loop] = field(default_factory=list)
    factor: int = 1


class UnrollError(Exception):
    """The loop shape is not unrollable."""


def can_unroll(loop: Loop) -> bool:
    """Upward unit-stride sequential loops with </<= bounds only."""
    return (
        not loop.is_parallel
        and loop.step == 1
        and loop.cond_op in ("<", "<=")
    )


def _clone_expr(e: Expr, var: Symbol, offset: int, local_map: dict[Symbol, Symbol]) -> Expr:
    def rule(node: Expr) -> Expr | None:
        if isinstance(node, VarRef):
            if node.sym is var:
                if offset == 0:
                    return None
                return BinOp("+", VarRef(var), IntConst(offset))
            mapped = local_map.get(node.sym)
            if mapped is not None:
                return VarRef(mapped)
        return None

    return fold_constants(rewrite(e, rule))


def _clone_stmts(
    stmts: list[Stmt],
    var: Symbol,
    offset: int,
    symtab: SymbolTable,
    local_map: dict[Symbol, Symbol],
) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, LocalDecl):
            fresh = symtab.fresh(f"{stmt.sym.name}_u{offset}", stmt.sym.stype)
            local_map[stmt.sym] = fresh
            init = (
                _clone_expr(stmt.init, var, offset, local_map)
                if stmt.init is not None
                else None
            )
            out.append(LocalDecl(sym=fresh, init=init))
        elif isinstance(stmt, Assign):
            target = stmt.target
            if isinstance(target, ArrayRef):
                target = _clone_expr(target, var, offset, local_map)
            elif target.sym in local_map:
                target = VarRef(local_map[target.sym])
            out.append(
                Assign(target=target, value=_clone_expr(stmt.value, var, offset, local_map))
            )
        elif isinstance(stmt, If):
            out.append(
                If(
                    cond=_clone_expr(stmt.cond, var, offset, local_map),
                    then_body=_clone_stmts(stmt.then_body, var, offset, symtab, local_map),
                    else_body=_clone_stmts(stmt.else_body, var, offset, symtab, local_map),
                )
            )
        elif isinstance(stmt, Loop):
            fresh_var = symtab.fresh(f"{stmt.var.name}_u{offset}", stmt.var.stype)
            local_map[stmt.var] = fresh_var
            inner = Loop(
                var=fresh_var,
                init=_clone_expr(stmt.init, var, offset, local_map),
                cond_op=stmt.cond_op,
                bound=_clone_expr(stmt.bound, var, offset, local_map),
                step=stmt.step,
                body=_clone_stmts(stmt.body, var, offset, symtab, local_map),
                directive=stmt.directive,
                loop_id=symtab.new_loop_id(),
            )
            out.append(inner)
        else:
            raise UnrollError(f"cannot clone statement {type(stmt).__name__}")
    return out


def unroll_loop(
    parent_stmts: list[Stmt],
    loop: Loop,
    symtab: SymbolTable,
    factor: int,
) -> Loop:
    """Unroll one loop in place; returns the remainder loop.

    The original :class:`Loop` object becomes the main (unrolled) loop so
    enclosing references stay valid; a remainder loop is inserted after it.
    """
    if factor < 2:
        raise UnrollError("unroll factor must be >= 2")
    if not can_unroll(loop):
        raise UnrollError("loop shape not unrollable (need seq, +1 step, </<=)")

    lo = loop.init
    hi = loop.bound
    # Trip count n; for '<=' bounds use hi+1 as the exclusive limit.
    limit: Expr = hi if loop.cond_op == "<" else BinOp("+", hi, IntConst(1))
    n = BinOp("-", limit, lo)
    full = BinOp("*", BinOp("/", n, IntConst(factor)), IntConst(factor))
    main_limit = fold_constants(BinOp("+", lo, full))

    # Build the unrolled body: copy 0 keeps the original statements (and
    # their symbols); copies 1..U-1 are clones at v+j.
    original_body = loop.body
    new_body: list[Stmt] = list(original_body)
    for j in range(1, factor):
        local_map: dict[Symbol, Symbol] = {}
        new_body.extend(_clone_stmts(original_body, loop.var, j, symtab, local_map))

    # Remainder: one clean clone of the body with the loop variable mapped
    # to a fresh symbol (shared local_map keeps cross-statement local
    # references consistent).
    remainder_var = symtab.fresh(f"{loop.var.name}_rem", loop.var.stype)
    dummy = Symbol("__dummy__", loop.var.stype)
    rem_map: dict[Symbol, Symbol] = {loop.var: remainder_var}
    remainder_body = _clone_stmts(original_body, dummy, 0, symtab, rem_map)

    remainder = Loop(
        var=remainder_var,
        init=main_limit,
        cond_op=loop.cond_op,
        bound=hi,
        step=1,
        body=remainder_body,
        directive=loop.directive,
        loop_id=symtab.new_loop_id(),
    )

    loop.body = new_body
    loop.cond_op = "<"
    loop.bound = main_limit
    loop.step = factor

    idx = parent_stmts.index(loop)
    parent_stmts.insert(idx + 1, remainder)
    return remainder


def apply_unrolling(
    region: Region,
    symtab: SymbolTable,
    factor: int = 2,
    innermost_only: bool = True,
) -> UnrollReport:
    """Unroll the region's sequential loops (innermost first/only)."""
    from ..analysis.loopinfo import analyze_loops

    report = UnrollReport(factor=factor)
    info = analyze_loops(region)
    candidates = [l for l in info.loops if can_unroll(l)]
    if innermost_only:
        inner_ids = {
            l.loop_id for l in candidates if not info.inner_loops(l)
        }
        candidates = [l for l in candidates if l.loop_id in inner_ids]
    for loop in candidates:
        parent = _parent_stmts(region, loop)
        unroll_loop(parent, loop, symtab, factor)
        report.unrolled.append(loop)
    return report
