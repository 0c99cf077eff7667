"""Hash-consed expression IR: `intern_expr` canonicalises structurally
equal trees to one instance within one build's table, so equality hits
the identity fast path and repeated hashing reuses the cached digest —
and the IR lives no longer than the compile that made it."""

import gc
import types

from repro.compiler import BASE, SMALL_DIM_SAFARA, CompilerSession
from repro.ir import KernelFunction, SymbolTable, build_module, intern_expr
from repro.ir.expr import BinOp, Expr, FloatConst, IntConst, VarRef
from repro.ir.symbols import Symbol
from repro.ir.types import F64
from repro.lang import parse_program

SRC = """
kernel k(double a[n], const double b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 0; i < n; i++) { a[i] = b[i] * 2.0 + b[i] * 2.0; }
}
"""


def _tree(sym):
    return BinOp("+", BinOp("*", VarRef(sym), FloatConst(2.0)), IntConst(1))


class TestInterning:
    def test_equal_trees_become_one_object(self):
        sym = Symbol("x", F64)
        table = {}
        assert intern_expr(_tree(sym), table) is intern_expr(_tree(sym), table)

    def test_distinct_symbols_do_not_unify(self):
        """Symbols compare by identity: same-named symbols from different
        scopes must stay distinct through interning."""
        table = {}
        a = intern_expr(_tree(Symbol("x", F64)), table)
        b = intern_expr(_tree(Symbol("x", F64)), table)
        assert a is not b

    def test_interning_is_bottom_up(self):
        sym = Symbol("x", F64)
        table = {}
        a = intern_expr(BinOp("+", VarRef(sym), IntConst(1)), table)
        b = intern_expr(BinOp("-", VarRef(sym), IntConst(1)), table)
        assert a.left is b.left
        assert a.right is b.right

    def test_tables_do_not_share(self):
        sym = Symbol("x", F64)
        assert intern_expr(_tree(sym), {}) is not intern_expr(_tree(sym), {})

    def test_hash_is_cached_after_first_use(self):
        e = _tree(Symbol("x", F64))
        assert e._hash == -1
        h = hash(e)
        assert e._hash == h
        assert hash(e) == h

    def test_builder_interns_duplicate_subtrees(self):
        """The front end interns statement-level expressions: the two
        `b[i] * 2.0` reads in SRC share one node."""
        fn = build_module(parse_program(SRC)).functions[0]
        loop = fn.body[0].body[0]
        rhs = loop.body[0].value
        assert rhs.left is rhs.right


def _live_exprs(prefix: str) -> list[Expr]:
    """Live expressions that reference a symbol named ``prefix...``."""
    gc.collect()
    return [
        o for o in gc.get_objects()
        if isinstance(o, Expr)
        and any(
            getattr(n, "sym", None) is not None
            and n.sym.name.startswith(prefix)
            for n in o.walk()
        )
    ]


def _reachable(root) -> list[object]:
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not following classes, modules or functions (their globals reach the
    whole process)."""
    seen = {id(root)}
    stack, out = [root], []
    while stack:
        obj = stack.pop()
        out.append(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (type, types.ModuleType, types.FunctionType)):
                continue
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return out


class TestBuildScope:
    """The hash-cons table belongs to one build and dies with it."""

    def test_two_builds_share_no_node(self):
        def nodes(fn):
            stmt = fn.body[0].body[0]
            return {
                id(n) for e in (stmt.init, stmt.bound, *(
                    x for s in stmt.body for x in (s.target, s.value)
                )) for n in e.walk()
            }

        first = build_module(parse_program(SRC)).functions[0]
        second = build_module(parse_program(SRC)).functions[0]
        assert nodes(first) and not nodes(first) & nodes(second)

    def test_dropped_session_leaves_no_expr(self):
        src = """
kernel scoped_probe(double scoped_a[n], const double scoped_b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (scoped_i = 0; scoped_i < n; scoped_i++) {
    scoped_a[scoped_i] = scoped_b[scoped_i] * 2.0;
  }
}
"""
        session = CompilerSession()
        programs = [session.compile_source(src, c) for c in (BASE, SMALL_DIM_SAFARA)]
        assert all(p.kernels for p in programs)
        del session, programs
        assert _live_exprs("scoped_") == []

    def test_compiled_program_reaches_no_function(self):
        program = CompilerSession().compile_source(SRC, SMALL_DIM_SAFARA)
        reached = _reachable(program)
        assert not [
            o for o in reached if isinstance(o, (KernelFunction, SymbolTable))
        ]
