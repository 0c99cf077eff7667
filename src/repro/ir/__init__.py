"""Mid-level IR: typed loop nests with OpenACC region/loop directives.

The IR plays the role of OpenUH's WHIRL in the paper's pipeline: analyses
(:mod:`repro.analysis`) and transformations (:mod:`repro.transforms`)
operate here, and the code generator (:mod:`repro.codegen`) lowers offload
regions to the PTX-like virtual ISA.
"""

from .builder import build_kernel, build_module
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
    array_refs,
    expr_type,
    fold_constants,
    intern_expr,
    rewrite,
    scalar_reads,
    substitute,
)
from .module import KernelFunction, Module
from .printer import format_expr, format_function, format_stmts
from .stmt import (
    Assign,
    If,
    LocalDecl,
    Loop,
    Region,
    Stmt,
    clone_region,
    clone_stmt,
    loops_in,
    regions_in,
    stmt_exprs,
    walk_stmts,
)
from .symbols import ArrayInfo, Dim, Symbol, SymbolKind, SymbolTable
from .types import BOOL, F32, F64, I32, I64, ScalarType, promote, type_from_name

__all__ = [
    "ArrayInfo",
    "ArrayRef",
    "Assign",
    "BOOL",
    "BinOp",
    "Call",
    "Cast",
    "Dim",
    "Expr",
    "F32",
    "F64",
    "FloatConst",
    "I32",
    "I64",
    "If",
    "IntConst",
    "KernelFunction",
    "LocalDecl",
    "Loop",
    "Module",
    "Region",
    "ScalarType",
    "Select",
    "Stmt",
    "Symbol",
    "SymbolKind",
    "SymbolTable",
    "UnOp",
    "VarRef",
    "array_refs",
    "build_kernel",
    "build_module",
    "expr_type",
    "fold_constants",
    "intern_expr",
    "clone_region",
    "clone_stmt",
    "format_expr",
    "format_function",
    "format_stmts",
    "loops_in",
    "promote",
    "regions_in",
    "rewrite",
    "scalar_reads",
    "stmt_exprs",
    "substitute",
    "type_from_name",
    "walk_stmts",
]
