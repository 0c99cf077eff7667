"""Unit tests for AST→IR lowering: name resolution, typing, scoping,
normalisation and clause validation."""

import pytest

from repro.ir import (
    Assign,
    ArrayRef,
    BinOp,
    F32,
    F64,
    I32,
    I64,
    If,
    IntConst,
    LocalDecl,
    Loop,
    Region,
    VarRef,
    build_kernel,
    build_module,
    expr_type,
)
from repro.ir.stmt import loops_in
from repro.ir.symbols import SymbolKind
from repro.lang import SemanticError, parse_program


def lower(src, name=None):
    mod = build_module(parse_program(src))
    return mod.functions[0] if name is None else mod.function(name)


class TestParams:
    def test_scalar_types(self):
        fn = lower("kernel k(double d, float f, int i, long l) { }")
        types = [p.stype for p in fn.params]
        assert types == [F64, F32, I32, I64]

    def test_array_dims_resolved_to_symbols(self):
        fn = lower("kernel k(double a[n][m], int n, int m) { }")
        a = fn.params[0]
        n = fn.symtab.require("n")
        assert a.array.dims[0].extent is n
        assert a.array.dims[0].lower == 0

    def test_forward_reference_to_later_param(self):
        # Dims may reference params declared after the array (C doesn't
        # allow this; our two-pass builder does, like Fortran).
        fn = lower("kernel k(double a[n], int n) { }")
        assert fn.params[0].array.dims[0].extent is fn.symtab.require("n")

    def test_lower_bounds(self):
        fn = lower("kernel k(double a[1:n], int n) { }")
        assert fn.params[0].array.dims[0].lower == 1

    def test_unknown_bound_rejected(self):
        with pytest.raises(SemanticError, match="not a parameter"):
            lower("kernel k(double a[zzz]) { }")

    def test_float_bound_rejected(self):
        with pytest.raises(SemanticError, match="integer scalar"):
            lower("kernel k(double a[x], double x) { }")

    def test_duplicate_param_rejected(self):
        with pytest.raises(SemanticError):
            lower("kernel k(int n, int n) { }")

    def test_vla_detection(self):
        fn = lower("kernel k(double a[n][4], double b[8][4], int n) { }")
        assert fn.params[0].array.is_vla
        assert not fn.params[1].array.is_vla
        assert fn.params[1].array.static_size_bytes() == 8 * 4 * 8


class TestScoping:
    def test_sibling_locals_same_name(self):
        fn = lower(
            """
            kernel k(double a[n], int n) {
              #pragma acc loop seq
              for (i = 0; i < n; i++) { double t = 1.0; a[i] = t; }
              #pragma acc loop seq
              for (j = 0; j < n; j++) { double t = 2.0; a[j] = t; }
            }
            """
        )
        # Two distinct symbols, uniquified in the table.
        loops = [s for s in fn.body if isinstance(s, Loop)]
        t1 = loops[0].body[0].sym
        t2 = loops[1].body[0].sym
        assert t1 is not t2

    def test_redeclaration_in_same_scope_rejected(self):
        with pytest.raises(SemanticError, match="already declared"):
            lower("kernel k() { double t = 1.0; double t = 2.0; }")

    def test_shadowing_param_in_loop(self):
        fn = lower(
            """
            kernel k(double a[n], int n, double t) {
              #pragma acc loop seq
              for (i = 0; i < n; i++) { double t = 2.0; a[i] = t; }
            }
            """
        )
        loop = next(s for s in fn.body if isinstance(s, Loop))
        inner_t = loop.body[0].sym
        assert inner_t is not fn.symtab.require("t")

    def test_loop_var_reuse_across_siblings(self):
        fn = lower(
            """
            kernel k(double a[n], int n) {
              #pragma acc loop seq
              for (i = 0; i < n; i++) { a[i] = 1.0; }
              #pragma acc loop seq
              for (i = 0; i < n; i++) { a[i] = 2.0; }
            }
            """
        )
        assert len([s for s in fn.body if isinstance(s, Loop)]) == 2

    def test_nested_loop_var_reuse_rejected(self):
        with pytest.raises(SemanticError, match="reused"):
            lower(
                """
                kernel k(double a[n], int n) {
                  #pragma acc loop seq
                  for (i = 0; i < n; i++) {
                    #pragma acc loop seq
                    for (i = 0; i < n; i++) { a[i] = 1.0; }
                  }
                }
                """
            )


class TestNormalisation:
    def test_compound_assign_expanded(self):
        fn = lower(
            """
            kernel k(double a[4]) {
              a[0] += 2.0;
            }
            """
        )
        stmt = fn.body[0]
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, BinOp) and stmt.value.op == "+"
        # The read reference is explicit.
        assert isinstance(stmt.value.left, ArrayRef)

    def test_loop_var_default_int(self):
        fn = lower(
            """
            kernel k(double a[4]) {
              #pragma acc loop seq
              for (i = 0; i < 4; i++) { a[i] = 0.0; }
            }
            """
        )
        loop = fn.body[0]
        assert loop.var.stype is I32
        assert loop.var.kind is SymbolKind.LOOPVAR


class TestTypeChecking:
    def test_assignment_to_loop_var_rejected(self):
        with pytest.raises(SemanticError, match="loop variable"):
            lower(
                """
                kernel k(double a[4]) {
                  #pragma acc loop seq
                  for (i = 0; i < 4; i++) { i = 2; }
                }
                """
            )

    def test_store_to_const_array_rejected(self):
        with pytest.raises(SemanticError, match="const"):
            lower("kernel k(const double a[4]) { a[0] = 1.0; }")

    def test_array_without_subscripts_rejected(self):
        with pytest.raises(SemanticError, match="without subscripts"):
            lower("kernel k(double a[4], double x) { x = a; }")

    def test_wrong_rank_rejected(self):
        with pytest.raises(SemanticError, match="rank"):
            lower("kernel k(double a[4][4]) { a[0] = 1.0; }")

    def test_float_subscript_rejected(self):
        with pytest.raises(SemanticError, match="non-integer subscript"):
            lower("kernel k(double a[4], double x) { a[x] = 1.0; }")

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(SemanticError, match="undeclared"):
            lower("kernel k(double a[4]) { a[0] = qqq; }")

    def test_expr_type_promotion(self):
        fn = lower("kernel k(double a[4], int n) { a[0] = a[1] + n; }")
        stmt = fn.body[0]
        assert expr_type(stmt.value) is F64

    def test_non_zero_step_required(self):
        with pytest.raises(SemanticError, match="non-zero"):
            lower(
                """
                kernel k(double a[4]) {
                  #pragma acc loop seq
                  for (i = 0; i < 4; i += 0) { a[i] = 1.0; }
                }
                """
            )


class TestLoopTripCounts:
    def _loop(self, header):
        fn = lower(
            f"""
            kernel k(double a[100], int n) {{
              #pragma acc loop seq
              for ({header}) {{ a[0] = 1.0; }}
            }}
            """
        )
        return fn.body[0]

    def test_exclusive_upper(self):
        assert self._loop("i = 0; i < 10; i++").trip_count() == 10

    def test_inclusive_upper(self):
        assert self._loop("i = 1; i <= 10; i++").trip_count() == 10

    def test_strided(self):
        assert self._loop("i = 0; i < 10; i += 3").trip_count() == 4

    def test_downward(self):
        assert self._loop("i = 10; i > 0; i--").trip_count() == 10

    def test_downward_inclusive(self):
        assert self._loop("i = 10; i >= 1; i--").trip_count() == 10

    def test_empty(self):
        assert self._loop("i = 5; i < 5; i++").trip_count() == 0

    def test_symbolic_needs_env(self):
        loop = self._loop("i = 0; i < n; i++")
        assert loop.trip_count() is None
        assert loop.trip_count({"n": 7}) == 7

    def test_iter_values_match_trip_count(self):
        loop = self._loop("i = 0; i < 10; i += 3")
        assert len(list(loop.iter_values({}))) == loop.trip_count()


class TestModule:
    def test_function_lookup(self):
        mod = build_module(parse_program("kernel a() { } kernel b() { }"))
        assert mod.function("b").name == "b"
        with pytest.raises(KeyError):
            mod.function("c")

    def test_build_kernel_by_name(self):
        prog = parse_program("kernel a() { } kernel b() { }")
        assert build_kernel(prog, "b").name == "b"

    def test_regions_enumeration(self):
        fn = lower(
            """
            kernel k(double a[n], int n) {
              #pragma acc kernels loop gang vector(32)
              for (i = 0; i < n; i++) { a[i] = 1.0; }
              #pragma acc kernels loop gang vector(32)
              for (i = 0; i < n; i++) { a[i] = 2.0; }
            }
            """
        )
        assert len(fn.regions()) == 2


CLONE_SRC = """
kernel k(double a[n], const double b[n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    #pragma acc loop seq
    for (j = 0; j < 4; j++) { a[i] = a[i] + b[j]; }
  }
  #pragma acc kernels loop gang vector(64)
  for (i = 0; i < n; i++) { a[i] = 0.0; }
}
"""


class TestClone:
    def test_ids_are_numbered_per_function(self):
        fn = lower(CLONE_SRC)
        assert [r.region_id for r in fn.regions()] == [1, 2]
        assert sorted(l.loop_id for l in loops_in(fn.body)) == [1, 2, 3]
        assert lower(CLONE_SRC).regions()[1].region_id == 2

    def test_symbol_table_copy_continues_both_counters(self):
        symtab = lower(CLONE_SRC).symtab
        symtab.fresh("t", F64)
        copy = symtab.copy()
        assert [s.name for s in copy] == [s.name for s in symtab]
        assert all(a is b for a, b in zip(copy, symtab))
        assert copy.fresh("t", F64).name == symtab.fresh("t", F64).name
        assert copy.new_loop_id() == symtab.new_loop_id() == 4
        copy.fresh("u", F64)
        assert "u_3" in copy and "u_3" not in symtab

    def test_function_clone_shares_symbols_and_exprs_not_statements(self):
        fn = lower(CLONE_SRC)
        clone = fn.clone()
        assert clone.params == fn.params and clone.params is not fn.params
        assert clone.symtab is not fn.symtab
        loop, orig = clone.regions()[0].body[0], fn.regions()[0].body[0]
        assert loop is not orig and loop.loop_id == orig.loop_id
        assert loop.var is orig.var and loop.bound is orig.bound
        loop.body.clear()
        assert orig.body
