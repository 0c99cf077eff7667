"""Scalar-replacement rewriting machinery.

This module implements the *mechanics* of replacing a reuse group with
scalar temporaries; the *policy* of which groups to replace lives in
:mod:`repro.transforms.carr_kennedy` (classic baseline) and
:mod:`repro.transforms.safara` (the paper's algorithm).

Three shapes of replacement, matching :class:`~repro.analysis.reuse.GroupKind`:

``INVARIANT``
    The load is hoisted into the loop preheader (read-only groups only —
    sinking stores past a possibly-zero-trip loop would be unsound).

``INTRA``
    One temporary carries the value within an iteration: the first read
    loads it once; a write computes into the temporary and stores it,
    letting later reads in the same iteration come from the register.

``INTER``
    Rotating temporaries across iterations of a *sequential* loop — the
    Carr-Kennedy pattern of the paper's Figures 4 and 6: preheader
    preloads, a single leading load per iteration, and a register rotation
    at the bottom of the body.  Only read-only groups are rotated (the
    paper's own examples scalarise read chains; forwarding written values
    would need store-queue reasoning that neither prototype does).

Every transformation is semantics-preserving; the test suite checks this
by executing original and transformed IR in the functional interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.reuse import GroupKind, ReuseGroup
from ..ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    IntConst,
    VarRef,
    fold_constants,
    rewrite,
    substitute,
)
from ..ir.stmt import Assign, If, LocalDecl, Loop, Region, Stmt
from ..ir.symbols import Symbol, SymbolKind, SymbolTable


@dataclass(slots=True)
class ReplacementResult:
    """What one group replacement did (for reporting and cost accounting)."""

    group: ReuseGroup
    temps: list[Symbol] = field(default_factory=list)
    sequentializes: bool = False


class ReplacementError(Exception):
    """The group cannot be replaced in its current form."""


def can_replace(group: ReuseGroup, *, allow_inter: bool) -> bool:
    """Is this group replaceable by the machinery below?

    ``allow_inter`` is False for parallel loops (SAFARA's guard) — INTER
    groups are then rejected rather than sequentialising the loop.
    """
    if group.kind is GroupKind.INTER:
        return allow_inter and not group.has_write
    if group.kind is GroupKind.INVARIANT:
        return not group.has_write
    if group.kind is GroupKind.INTRA:
        return group.loads_saved() > 0
    return False


def replace_group(
    parent_stmts: list[Stmt],
    loop: Loop,
    group: ReuseGroup,
    symtab: SymbolTable,
) -> ReplacementResult:
    """Apply scalar replacement for one reuse group.

    ``parent_stmts`` is the statement list that directly contains ``loop``
    (needed to place preheader loads).  Raises :class:`ReplacementError`
    when the group shape is unsupported.
    """
    if group.kind is GroupKind.INVARIANT:
        return _replace_invariant(parent_stmts, loop, group, symtab)
    if group.kind is GroupKind.INTRA:
        return _replace_intra(loop, group, symtab)
    if group.kind is GroupKind.INTER:
        return _replace_inter(parent_stmts, loop, group, symtab)
    raise ReplacementError(f"unsupported group kind {group.kind}")


# ---------------------------------------------------------------------------
# Individual shapes
# ---------------------------------------------------------------------------


def _elem_type(group: ReuseGroup):
    assert group.array.array is not None
    return group.array.array.elem


def _replace_invariant(
    parent_stmts: list[Stmt],
    loop: Loop,
    group: ReuseGroup,
    symtab: SymbolTable,
) -> ReplacementResult:
    if group.has_write:
        raise ReplacementError("cannot hoist a written invariant reference")
    temp = symtab.fresh(f"{group.array.name}_inv", _elem_type(group))
    gen_ref = group.generator.ref
    mapping: dict[Expr, Expr] = {
        ref: VarRef(temp) for ref in group.distinct_refs
    }
    _substitute_in_body(loop.body, group, mapping)
    idx = parent_stmts.index(loop)
    parent_stmts.insert(idx, LocalDecl(sym=temp, init=gen_ref))
    return ReplacementResult(
        group=group,
        temps=[temp],
    )


def _replace_intra(
    loop: Loop, group: ReuseGroup, symtab: SymbolTable
) -> ReplacementResult:
    temp = symtab.fresh(f"{group.array.name}_t", _elem_type(group))
    occs = sorted(group.occurrences, key=lambda o: o.order)
    first = occs[0]
    var_temp = VarRef(temp)

    new_body: list[Stmt] = []
    loaded = first.is_write  # a leading write defines the temp; no load
    refs = set(group.distinct_refs)
    mapping: dict[Expr, Expr] = {ref: var_temp for ref in group.distinct_refs}

    for stmt in loop.body:
        # Membership is decided structurally, not via the occurrences'
        # recorded statement objects: an earlier group's replacement may
        # have rebuilt the body, leaving those identities stale.
        has_read, writes_here = _stmt_uses(stmt, refs)
        if not has_read and not writes_here:
            new_body.append(stmt)
            continue
        assert isinstance(stmt, (Assign, LocalDecl))
        if has_read and not loaded:
            new_body.append(Assign(target=var_temp, value=first.ref))
            loaded = True
        if isinstance(stmt, Assign):
            new_value = substitute(stmt.value, mapping)
            if writes_here and isinstance(stmt.target, ArrayRef) and stmt.target in mapping:
                # 'a[i] = RHS'  ->  't = RHS; a[i] = t'
                target_ref = stmt.target.map_children(
                    lambda idx: substitute(idx, mapping)
                )
                new_body.append(Assign(target=var_temp, value=new_value))
                new_body.append(Assign(target=target_ref, value=var_temp))
                loaded = True
            else:
                new_target = stmt.target
                if isinstance(new_target, ArrayRef):
                    new_target = new_target.map_children(
                        lambda idx: substitute(idx, mapping)
                    )
                new_body.append(Assign(target=new_target, value=new_value))
        else:  # LocalDecl with init
            init = substitute(stmt.init, mapping) if stmt.init is not None else None
            new_body.append(LocalDecl(sym=stmt.sym, init=init))
    loop.body[:] = new_body
    return ReplacementResult(
        group=group,
        temps=[temp],
    )


def _replace_inter(
    parent_stmts: list[Stmt],
    loop: Loop,
    group: ReuseGroup,
    symtab: SymbolTable,
) -> ReplacementResult:
    if group.has_write:
        raise ReplacementError("inter-iteration replacement of written groups is unsupported")
    span = group.span
    elem = _elem_type(group)
    temps = [
        symtab.fresh(f"{group.array.name}_r{lag}", elem) for lag in range(span + 1)
    ]

    # Map every occurrence's reference to its lag temporary.
    mapping: dict[Expr, Expr] = {}
    for occ, lag in zip(group.occurrences, group.lags):
        mapping[occ.ref] = VarRef(temps[lag])
    _substitute_in_body(loop.body, group, mapping)

    gen_ref = group.generator.ref
    var = loop.var

    # Preheader: preload temps for lags 1..span with their first-iteration
    # values: t_lag = generator's location at (init - lag*step).
    idx = parent_stmts.index(loop)
    pre: list[Stmt] = []
    for lag in range(1, span + 1):
        shifted = _shift_ref(gen_ref, var, loop.init, -lag * loop.step)
        pre.append(LocalDecl(sym=temps[lag], init=shifted))
    parent_stmts[idx:idx] = pre

    # Body top: the single leading load; body bottom: rotate registers.
    loop.body.insert(0, Assign(target=VarRef(temps[0]), value=gen_ref))
    for lag in range(span, 0, -1):
        loop.body.append(Assign(target=VarRef(temps[lag]), value=VarRef(temps[lag - 1])))

    return ReplacementResult(
        group=group,
        temps=temps,
        sequentializes=loop.is_parallel,
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _shift_ref(ref: ArrayRef, var: Symbol, init: Expr, offset: int) -> ArrayRef:
    """``ref`` with ``var`` replaced by ``init + offset`` (folded)."""

    def rule(e: Expr) -> Expr | None:
        if isinstance(e, VarRef) and e.sym is var:
            if offset == 0:
                return init
            if isinstance(init, IntConst):
                return IntConst(init.value + offset)
            op = "+" if offset > 0 else "-"
            return BinOp(op, init, IntConst(abs(offset)))
        return None

    shifted = fold_constants(rewrite(ref, rule))
    assert isinstance(shifted, ArrayRef)
    return shifted


def _contains_ref(e: Expr | None, refs: set) -> bool:
    """Does ``e`` contain any of ``refs`` as a sub-expression (structural)?"""
    if e is None:
        return False
    return any(node in refs for node in e.walk())


def _stmt_uses(stmt: Stmt, refs: set) -> tuple[bool, bool]:
    """(has_read, writes_here) of the group's refs in one body statement.

    Decided by structure rather than the occurrence records' statement
    identity, which goes stale once another group's replacement rebuilds
    the loop body.
    """
    if isinstance(stmt, Assign):
        writes_here = isinstance(stmt.target, ArrayRef) and stmt.target in refs
        has_read = _contains_ref(stmt.value, refs) or (
            isinstance(stmt.target, ArrayRef)
            and any(_contains_ref(idx, refs) for idx in stmt.target.indices)
        )
        return has_read, writes_here
    if isinstance(stmt, LocalDecl):
        return _contains_ref(stmt.init, refs), False
    return False, False


def _substitute_in_body(
    body: list[Stmt], group: ReuseGroup, mapping: dict[Expr, Expr]
) -> None:
    """Replace the group's references throughout the loop body's immediate
    statements (reads in values/inits, and subscript positions)."""
    for stmt in body:
        if isinstance(stmt, Assign):
            stmt.value = substitute(stmt.value, mapping)
            if isinstance(stmt.target, ArrayRef):
                # Only subscript sub-expressions may be substituted in the
                # target (the stored-to element itself must stay a store).
                stmt.target = stmt.target.map_children(
                    lambda idx: substitute(idx, mapping)
                )
        elif isinstance(stmt, LocalDecl) and stmt.init is not None:
            stmt.init = substitute(stmt.init, mapping)
