"""Unit tests for the MiniACC parser."""

import pytest

from repro.lang import (
    AssignStmt,
    Binary,
    CallExpr,
    DeclStmt,
    FloatLit,
    ForStmt,
    IfStmt,
    Index,
    IntLit,
    Name,
    ParseError,
    RegionStmt,
    ReturnStmt,
    Ternary,
    Unary,
    parse_program,
)


def parse_kernel_body(body_src, params="double a[n], int n"):
    prog = parse_program(f"kernel k({params}) {{ {body_src} }}")
    return prog.kernel("k").body


def parse_expr(expr_src):
    (stmt,) = parse_kernel_body(f"x = {expr_src};", params="double x")
    return stmt.value


class TestKernelDecls:
    def test_empty_kernel(self):
        prog = parse_program("kernel k() { }")
        assert prog.kernel("k").params == ()
        assert prog.kernel("k").body == []

    def test_multiple_kernels(self):
        prog = parse_program("kernel a() { } kernel b() { }")
        assert [k.name for k in prog.kernels] == ["a", "b"]

    def test_missing_kernel_raises_keyerror(self):
        prog = parse_program("kernel a() { }")
        with pytest.raises(KeyError):
            prog.kernel("zzz")

    def test_scalar_params(self):
        prog = parse_program("kernel k(double x, int n, float f, long l) { }")
        params = prog.kernel("k").params
        assert [p.type_name for p in params] == ["double", "int", "float", "long"]
        assert not any(p.is_array for p in params)

    def test_array_param_with_symbolic_dims(self):
        prog = parse_program("kernel k(double a[nx][ny], int nx, int ny) { }")
        a = prog.kernel("k").params[0]
        assert a.is_array and not a.is_pointer
        assert len(a.dims) == 2
        assert isinstance(a.dims[0].extent, Name)
        assert a.dims[0].lower is None

    def test_array_param_with_lower_bounds(self):
        # Fortran-allocatable model: 'double a[1:nx][1:ny]'.
        prog = parse_program("kernel k(double a[1:nx][1:ny], int nx, int ny) { }")
        a = prog.kernel("k").params[0]
        assert isinstance(a.dims[0].lower, IntLit)
        assert a.dims[0].lower.value == 1

    def test_static_array_param(self):
        prog = parse_program("kernel k(double a[64][64]) { }")
        a = prog.kernel("k").params[0]
        assert isinstance(a.dims[0].extent, IntLit)
        assert a.dims[0].extent.value == 64

    def test_pointer_param(self):
        prog = parse_program("kernel k(double * restrict p) { }")
        p = prog.kernel("k").params[0]
        assert p.is_pointer and p.is_restrict

    def test_const_param(self):
        prog = parse_program("kernel k(const double a[n], int n) { }")
        assert prog.kernel("k").params[0].is_const

    def test_pointer_and_dims_rejected(self):
        with pytest.raises(ParseError):
            parse_program("kernel k(double *a[n], int n) { }")


class TestStatements:
    def test_simple_assign(self):
        (stmt,) = parse_kernel_body("a[0] = 1.0;")
        assert isinstance(stmt, AssignStmt)
        assert stmt.op is None
        assert isinstance(stmt.target, Index)

    def test_compound_assigns(self):
        stmts = parse_kernel_body("a[0] += 1.0; a[1] -= 2.0; a[2] *= 3.0; a[3] /= 4.0;")
        assert [s.op for s in stmts] == ["+", "-", "*", "/"]

    def test_increment_statement(self):
        (stmt,) = parse_kernel_body("x++;", params="int x")
        assert stmt.op == "+"
        assert isinstance(stmt.value, IntLit)

    def test_declaration_with_init(self):
        (stmt,) = parse_kernel_body("double t = 0.5;")
        assert isinstance(stmt, DeclStmt)
        assert stmt.type_name == "double"
        assert isinstance(stmt.init, FloatLit)

    def test_multi_declarator_flattened(self):
        stmts = parse_kernel_body("double t1, t2, t3;")
        assert len(stmts) == 3
        assert all(isinstance(s, DeclStmt) for s in stmts)
        assert [s.name for s in stmts] == ["t1", "t2", "t3"]

    def test_return_statement(self):
        (stmt,) = parse_kernel_body("return;")
        assert isinstance(stmt, ReturnStmt)

    def test_if_else(self):
        (stmt,) = parse_kernel_body("if (n > 0) { a[0] = 1.0; } else { a[0] = 2.0; }")
        assert isinstance(stmt, IfStmt)
        assert len(stmt.then_body) == 1
        assert len(stmt.else_body) == 1

    def test_else_if_chain(self):
        (stmt,) = parse_kernel_body(
            "if (n > 0) a[0] = 1.0; else if (n < 0) a[0] = 2.0; else a[0] = 3.0;"
        )
        assert isinstance(stmt.else_body[0], IfStmt)

    def test_naked_block_rejected(self):
        with pytest.raises(ParseError):
            parse_kernel_body("{ a[0] = 1.0; }")


class TestForLoops:
    def test_canonical_loop(self):
        (loop,) = parse_kernel_body("for (i = 0; i < n; i++) a[i] = 0.0;")
        assert isinstance(loop, ForStmt)
        assert loop.var == "i"
        assert loop.cond_op == "<"
        assert isinstance(loop.step, IntLit) and loop.step.value == 1

    def test_inclusive_bound(self):
        (loop,) = parse_kernel_body("for (i = 1; i <= n; i++) a[i] = 0.0;")
        assert loop.cond_op == "<="

    def test_inline_declared_loop_var(self):
        (loop,) = parse_kernel_body("for (int i = 0; i < n; i++) a[i] = 0.0;")
        assert loop.var == "i"

    def test_strided_loop(self):
        (loop,) = parse_kernel_body("for (i = 0; i < n; i += 2) a[i] = 0.0;")
        assert isinstance(loop.step, IntLit) and loop.step.value == 2

    def test_downward_loop(self):
        (loop,) = parse_kernel_body("for (i = n; i > 0; i--) a[i] = 0.0;")
        assert isinstance(loop.step, IntLit) and loop.step.value == -1

    def test_i_equals_i_plus_c_increment(self):
        (loop,) = parse_kernel_body("for (i = 0; i < n; i = i + 1) a[i] = 0.0;")
        assert isinstance(loop.step, IntLit) and loop.step.value == 1

    def test_mismatched_condition_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_kernel_body("for (i = 0; j < n; i++) a[i] = 0.0;")

    def test_mismatched_increment_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_kernel_body("for (i = 0; i < n; j++) a[i] = 0.0;")

    def test_nested_loops(self):
        (outer,) = parse_kernel_body(
            "for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { a[i] = 0.0; } }"
        )
        inner = outer.body[0]
        assert isinstance(inner, ForStmt)
        assert inner.var == "j"


class TestPragmaAttachment:
    def test_loop_pragma_attaches_to_for(self):
        (loop,) = parse_kernel_body("#pragma acc loop seq\nfor (i = 0; i < n; i++) a[i] = 0.0;")
        assert loop.directive is not None
        assert loop.directive.seq

    def test_loop_pragma_without_for_rejected(self):
        with pytest.raises(ParseError):
            parse_kernel_body("#pragma acc loop seq\na[0] = 1.0;")

    def test_kernels_region_wraps_block(self):
        (region,) = parse_kernel_body(
            "#pragma acc kernels\n{ for (i = 0; i < n; i++) a[i] = 0.0; }"
        )
        assert isinstance(region, RegionStmt)
        assert isinstance(region.body[0], ForStmt)

    def test_combined_kernels_loop(self):
        (region,) = parse_kernel_body(
            "#pragma acc kernels loop gang vector(64)\nfor (i = 0; i < n; i++) a[i] = 0.0;"
        )
        assert isinstance(region, RegionStmt)
        loop = region.body[0]
        assert loop.directive.vector == 64

    def test_combined_construct_requires_for(self):
        with pytest.raises(ParseError):
            parse_kernel_body("#pragma acc kernels loop gang\na[0] = 1.0;")

    def test_non_acc_pragma_skipped(self):
        stmts = parse_kernel_body("#pragma unroll\na[0] = 1.0;")
        assert len(stmts) == 1
        assert isinstance(stmts[0], AssignStmt)

    def test_region_inside_loop_nest_structure(self):
        src = """
        #pragma acc kernels loop gang vector(2)
        for (j = 1; j < n; j++) {
          #pragma acc loop seq
          for (i = 1; i < n; i++) {
            a[i] += a[i-1];
          }
        }
        """
        (region,) = parse_kernel_body(src)
        outer = region.body[0]
        inner = outer.body[0]
        assert inner.directive.seq


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, Binary) and e.op == "+"
        assert isinstance(e.right, Binary) and e.right.op == "*"

    def test_left_associativity(self):
        e = parse_expr("1 - 2 - 3")
        assert e.op == "-"
        assert isinstance(e.left, Binary)
        assert isinstance(e.right, IntLit) and e.right.value == 3

    def test_parentheses_override(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op == "*"
        assert isinstance(e.left, Binary) and e.left.op == "+"

    def test_unary_minus(self):
        e = parse_expr("-x")
        assert isinstance(e, Unary) and e.op == "-"

    def test_unary_plus_is_identity(self):
        e = parse_expr("+x")
        assert isinstance(e, Name)

    def test_comparison_chain(self):
        e = parse_expr("a1 < 2 == 1")  # (a1 < 2) == 1
        assert e.op == "=="

    def test_every_precedence_level(self):
        # a || (b && (c == (d < (e + (f * g)))))
        e = parse_expr("a || b && c == d < e + f * g")
        ops = []
        while isinstance(e, Binary):
            ops.append(e.op)
            assert isinstance(e.left, Name)
            e = e.right
        assert ops == ["||", "&&", "==", "<", "+", "*"]

    def test_each_level_is_left_associative(self):
        # ((((a % b) / c) * d) - e) + f
        e = parse_expr("a % b / c * d - e + f")
        ops = []
        while isinstance(e, Binary):
            ops.append(e.op)
            assert isinstance(e.right, Name)
            e = e.left
        assert ops == ["+", "-", "*", "/", "%"]

    def test_long_suffix_on_a_float(self):
        e = parse_expr("1.5L")
        assert isinstance(e, FloatLit) and e.value == 1.5 and not e.is_single

    def test_logical_ops(self):
        e = parse_expr("a1 && b1 || c1")
        assert e.op == "||"

    def test_ternary(self):
        e = parse_expr("c1 ? 1.0 : 2.0")
        assert isinstance(e, Ternary)

    def test_multi_dim_index(self):
        e = parse_expr("b[i][j][k-1]")
        assert isinstance(e, Index)
        assert len(e.indices) == 3
        assert isinstance(e.indices[2], Binary)

    def test_intrinsic_call(self):
        e = parse_expr("sqrt(x * x)")
        assert isinstance(e, CallExpr) and e.func == "sqrt"

    def test_two_arg_intrinsic(self):
        e = parse_expr("pow(x, 2.0)")
        assert len(e.args) == 2

    def test_cast(self):
        e = parse_expr("(double)n")
        assert isinstance(e, CallExpr) and e.func == "cast_double"

    def test_modulo(self):
        e = parse_expr("i % 4")
        assert e.op == "%"

    def test_paper_figure3_expression(self):
        # a[i] = (b[i] + b[i+1])/2
        (stmt,) = parse_kernel_body("a[i] = (b[i] + b[i+1])/2;", params="double a[n], double b[n], int n, int i")
        assert stmt.value.op == "/"
        assert stmt.value.left.op == "+"
