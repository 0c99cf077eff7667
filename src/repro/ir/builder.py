"""Lowering from the MiniACC AST to the IR.

Responsibilities:

* name resolution and no-redeclaration checking against a per-kernel
  :class:`~repro.ir.symbols.SymbolTable`;
* type derivation for parameters (including array dope information:
  per-dimension lower bound / extent as static ints or scalar symbols);
* normalisation of compound assignments (``a[i] += x`` becomes
  ``a[i] = a[i] + x`` so both the read and the write reference are explicit
  for reuse analysis);
* validation of array reference ranks and of ``dim``/``small`` clause
  arguments against the declared parameters (Section IV notes the compiler
  may verify clause correctness — we verify what is statically checkable).
"""

from __future__ import annotations

from ..lang import ast_nodes as ast
from ..lang.directives import ComputeDirective, DimGroup
from ..lang.errors import SemanticError
from .expr import (
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
    expr_type,
    intern_expr,
)
from .module import KernelFunction, Module
from .stmt import Assign, If, LocalDecl, Loop, Region, Stmt
from .symbols import ArrayInfo, Dim, Symbol, SymbolKind, SymbolTable
from .types import F32, F64, I32, ScalarType, type_from_name


def build_module(program: ast.Program) -> Module:
    """Lower a parsed program into an IR module."""
    return Module(functions=[_FunctionBuilder(k).build() for k in program.kernels])


def build_kernel(program: ast.Program, name: str) -> KernelFunction:
    """Lower a single kernel by name."""
    return _FunctionBuilder(program.kernel(name)).build()


class _FunctionBuilder:
    def __init__(self, decl: ast.KernelDecl):
        self._decl = decl
        self._symtab = SymbolTable()
        self._loop_vars: list[str] = []
        # Lexical scopes: name -> Symbol.  The symbol table itself stores
        # uniquified names (shadowed/sibling locals get numeric suffixes),
        # but resolution follows the source scoping.
        self._scopes: list[dict[str, Symbol]] = [{}]
        # Hash-cons table of this function's expressions: equal subtrees
        # are one object within the function (and so within its pickled
        # envelope), and the table dies with the builder.
        self._exprs: dict[Expr, Expr] = {}
        self._regions = 0

    def _intern(self, e: Expr) -> Expr:
        return intern_expr(e, self._exprs)

    # -- scoping -----------------------------------------------------------
    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _lookup(self, name: str) -> Symbol | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _declare_scoped(self, sym: Symbol, loc) -> Symbol:
        scope = self._scopes[-1]
        if sym.name in scope:
            raise SemanticError(f"symbol {sym.name!r} already declared", loc)
        source_name = sym.name
        if self._symtab.lookup(sym.name) is not None:
            suffix = 2
            while f"{source_name}_{suffix}" in self._symtab:
                suffix += 1
            sym.name = f"{source_name}_{suffix}"
        self._symtab.declare(sym)
        scope[source_name] = sym
        return sym

    # -- entry ----------------------------------------------------------------
    def build(self) -> KernelFunction:
        params = [self._build_param(p) for p in self._decl.params]
        # Resolve symbolic array bounds now that every parameter exists.
        for p, sym in zip(self._decl.params, params):
            if p.dims:
                assert sym.array is not None
                dims = tuple(self._build_dim(d) for d in p.dims)
                sym.array = ArrayInfo(elem=sym.array.elem, dims=dims, is_pointer=False)
        body = self._build_stmts(self._decl.body)
        return KernelFunction(
            name=self._decl.name, params=params, symtab=self._symtab, body=body
        )

    # -- declarations -----------------------------------------------------
    def _build_param(self, p: ast.ParamDecl) -> Symbol:
        elem = type_from_name(p.type_name)
        array: ArrayInfo | None = None
        if p.is_pointer:
            array = ArrayInfo(elem=elem, dims=(), is_pointer=True)
        elif p.dims:
            # Dims resolved in a second pass (may reference later params).
            array = ArrayInfo(elem=elem, dims=(), is_pointer=False)
        sym = Symbol(
            name=p.name,
            stype=elem,
            kind=SymbolKind.PARAM,
            array=array,
            is_const=p.is_const,
            is_restrict=p.is_restrict,
        )
        try:
            self._symtab.declare(sym)
        except KeyError as exc:
            raise SemanticError(str(exc), p.loc) from exc
        self._scopes[0][p.name] = sym
        return sym

    def _build_dim(self, d: ast.DimDecl) -> Dim:
        extent = self._dim_value(d.extent)
        lower = 0 if d.lower is None else self._dim_value(d.lower)
        return Dim(extent=extent, lower=lower)

    def _dim_value(self, e: ast.Expr) -> int | Symbol:
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.Name):
            sym = self._lookup(e.ident)
            if sym is None:
                raise SemanticError(f"array bound {e.ident!r} is not a parameter", e.loc)
            if sym.is_array or sym.stype.is_float:
                raise SemanticError(f"array bound {e.ident!r} must be an integer scalar", e.loc)
            return sym
        raise SemanticError("array bounds must be integer literals or parameter names", getattr(e, "loc", None))

    # -- statements ------------------------------------------------------------
    def _build_stmts(self, stmts: list[ast.Stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            out.append(self._build_stmt(s))
        return out

    def _build_stmt(self, s: ast.Stmt) -> Stmt:
        if isinstance(s, ast.DeclStmt):
            return self._build_decl(s)
        if isinstance(s, ast.AssignStmt):
            return self._build_assign(s)
        if isinstance(s, ast.IfStmt):
            cond = self._intern(self._build_expr(s.cond))
            self._push_scope()
            then_body = self._build_stmts(s.then_body)
            self._pop_scope()
            self._push_scope()
            else_body = self._build_stmts(s.else_body)
            self._pop_scope()
            return If(cond=cond, then_body=then_body, else_body=else_body)
        if isinstance(s, ast.ForStmt):
            return self._build_loop(s)
        if isinstance(s, ast.RegionStmt):
            return self._build_region(s)
        if isinstance(s, ast.ReturnStmt):
            raise SemanticError("return inside kernel body is not supported", s.loc)
        raise SemanticError(f"unsupported statement {type(s).__name__}", getattr(s, "loc", None))

    def _build_decl(self, s: ast.DeclStmt) -> LocalDecl:
        stype = type_from_name(s.type_name)
        sym = Symbol(
            name=s.name, stype=stype, kind=SymbolKind.LOCAL, is_const=s.is_const
        )
        init = self._intern(self._build_expr(s.init)) if s.init is not None else None
        self._declare_scoped(sym, s.loc)
        return LocalDecl(sym=sym, init=init)

    def _build_assign(self, s: ast.AssignStmt) -> Assign:
        target = self._build_expr(s.target)
        if not isinstance(target, (VarRef, ArrayRef)):
            raise SemanticError("invalid assignment target", s.loc)
        if isinstance(target, VarRef) and target.sym.kind is SymbolKind.LOOPVAR:
            raise SemanticError(
                f"assignment to loop variable {target.sym.name!r}", s.loc
            )
        if isinstance(target, VarRef) and target.sym.is_const:
            raise SemanticError(f"assignment to const {target.sym.name!r}", s.loc)
        if isinstance(target, ArrayRef) and target.sym.is_const:
            raise SemanticError(
                f"store to const array {target.sym.name!r}", s.loc
            )
        value = self._build_expr(s.value)
        if s.op is not None:
            value = BinOp(s.op, target, value)
        return Assign(target=self._intern(target), value=self._intern(value))

    def _build_loop(self, s: ast.ForStmt) -> Loop:
        existing = self._lookup(s.var)
        if existing is None:
            var = self._declare_scoped(
                Symbol(name=s.var, stype=I32, kind=SymbolKind.LOOPVAR), s.loc
            )
        else:
            if existing.is_array:
                raise SemanticError(f"loop variable {s.var!r} is an array", s.loc)
            var = existing
        if s.var in self._loop_vars:
            raise SemanticError(f"loop variable {s.var!r} reused in enclosing loop", s.loc)
        init = self._intern(self._build_expr(s.init))
        bound = self._intern(self._build_expr(s.bound))
        step = self._const_int(s.step)
        if step is None or step == 0:
            raise SemanticError("loop step must be a non-zero integer constant", s.loc)
        self._loop_vars.append(s.var)
        self._push_scope()
        try:
            body = self._build_stmts(s.body)
        finally:
            self._pop_scope()
            self._loop_vars.pop()
        return Loop(
            var=var,
            init=init,
            cond_op=s.cond_op,
            bound=bound,
            step=step,
            body=body,
            directive=s.directive,
            loop_id=self._symtab.new_loop_id(),
        )

    def _build_region(self, s: ast.RegionStmt) -> Region:
        self._validate_clauses(s.directive, s.loc)
        self._push_scope()
        try:
            body = self._build_stmts(s.body)
        finally:
            self._pop_scope()
        self._regions += 1
        return Region(directive=s.directive, body=body, region_id=self._regions)

    def _validate_clauses(self, directive: ComputeDirective, loc) -> None:
        for name in directive.small:
            sym = self._lookup(name)
            if sym is None or not sym.is_array:
                raise SemanticError(f"small clause names non-array {name!r}", loc)
        for group in directive.dim_groups:
            self._validate_dim_group(group, loc)

    def _validate_dim_group(self, group: DimGroup, loc) -> None:
        rank: int | None = len(group.dims) if group.dims else None
        for name in group.arrays:
            sym = self._lookup(name)
            if sym is None or not sym.is_array:
                raise SemanticError(f"dim clause names non-array {name!r}", loc)
            if sym.array.is_pointer:
                raise SemanticError(
                    f"dim clause cannot apply to pointer {name!r} "
                    "(no dimension information — see paper Section V-C)",
                    loc,
                )
            if rank is None:
                rank = len(sym.array.dims)
            elif len(sym.array.dims) != rank:
                raise SemanticError(
                    f"dim clause group mixes ranks ({name!r} has rank "
                    f"{len(sym.array.dims)}, expected {rank})",
                    loc,
                )

    # -- expressions -----------------------------------------------------------
    def _build_expr(self, e: ast.Expr) -> Expr:
        if isinstance(e, ast.IntLit):
            return IntConst(e.value)
        if isinstance(e, ast.FloatLit):
            return FloatConst(e.value, stype=F32 if e.is_single else F64)
        if isinstance(e, ast.Name):
            sym = self._lookup(e.ident)
            if sym is None:
                raise SemanticError(f"undeclared identifier {e.ident!r}", e.loc)
            if sym.is_array:
                raise SemanticError(f"array {e.ident!r} used without subscripts", e.loc)
            return VarRef(sym)
        if isinstance(e, ast.Index):
            return self._build_index(e)
        if isinstance(e, ast.Unary):
            return UnOp(e.op, self._build_expr(e.operand))
        if isinstance(e, ast.Binary):
            return BinOp(e.op, self._build_expr(e.left), self._build_expr(e.right))
        if isinstance(e, ast.Ternary):
            return Select(
                cond=self._build_expr(e.cond),
                then=self._build_expr(e.then),
                otherwise=self._build_expr(e.otherwise),
            )
        if isinstance(e, ast.CallExpr):
            if e.func.startswith("cast_"):
                to = type_from_name(e.func.removeprefix("cast_"))
                (arg,) = e.args
                return Cast(to, self._build_expr(arg))
            return Call(e.func, tuple(self._build_expr(a) for a in e.args))
        raise SemanticError(f"unsupported expression {type(e).__name__}", getattr(e, "loc", None))

    def _build_index(self, e: ast.Index) -> ArrayRef:
        if not isinstance(e.base, ast.Name):
            raise SemanticError("only direct array subscripting is supported", e.loc)
        sym = self._lookup(e.base.ident)
        if sym is None:
            raise SemanticError(f"undeclared identifier {e.base.ident!r}", e.loc)
        if not sym.is_array:
            raise SemanticError(f"subscripting non-array {e.base.ident!r}", e.loc)
        indices = tuple(self._build_expr(i) for i in e.indices)
        assert sym.array is not None
        expected = 1 if sym.array.is_pointer else len(sym.array.dims)
        if len(indices) != expected:
            raise SemanticError(
                f"array {sym.name!r} has rank {expected}, got {len(indices)} subscripts",
                e.loc,
            )
        for idx in indices:
            if expr_type(idx).is_float:
                raise SemanticError(
                    f"non-integer subscript on array {sym.name!r}", e.loc
                )
        return ArrayRef(sym=sym, indices=indices)

    @staticmethod
    def _const_int(e: ast.Expr) -> int | None:
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.Unary) and e.op == "-" and isinstance(e.operand, ast.IntLit):
            return -e.operand.value
        return None
